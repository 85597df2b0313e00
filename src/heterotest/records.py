"""Frozen record classes.

``@record`` turns each annotated name of a class body, in order, into a
field, with the class attribute of that name as its default.  It reads
the names through ``cls.__annotations__``, which holds them whether the
module defers annotations or not.  It adds
``__init__`` (positional or keyword), ``__repr__`` (``Name(f=v, ...)``),
``__eq__`` over the compared fields of two records of the same class,
``__hash__`` of the same tuple, and a ``__setattr__``/``__delattr__`` that
refuse.  The methods are closures over the field names; nothing is
compiled, so decorating a class takes microseconds.  Instances keep a
``__dict__``, which is what ``functools.cached_property`` writes to.
"""

from operator import attrgetter

_MISSING = object()


class aside:
    """Marks a field, ``name: T = aside()``, that a record requires but
    that ``==``, ``hash`` and ``repr`` skip."""


def _values(names):
    # a tuple of the named attributes; attrgetter alone returns a bare
    # value for one name
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple(getattr(obj, name) for name in names)


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields."""
    names = tuple(cls.__annotations__)
    defaults, compared = {}, []
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        if isinstance(default, aside):
            delattr(cls, name)
            continue
        if default is not _MISSING:
            defaults[name] = default
        compared.append(name)
    qualname = cls.__qualname__

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            raise TypeError(f"{qualname}() missing argument(s): {', '.join(missing)}")
        return [values[name] if name in values else defaults[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in compared)
        return f"{self.__class__.__qualname__}({fields})"

    key = _values(compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    cls._fields = names
    cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = __init__, __repr__, __eq__, __hash__
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_delete
    return cls


def replace(obj, **changes):
    """A copy of the record ``obj`` with the fields named in ``changes``
    set to their values."""
    values = [changes.pop(name) if name in changes else getattr(obj, name) for name in obj._fields]
    if changes:
        raise TypeError(f"{obj.__class__.__qualname__} has no field(s) {', '.join(changes)}")
    return obj.__class__(*values)
