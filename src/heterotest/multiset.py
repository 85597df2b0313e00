"""Immutable multisets of symbols with a canonical text form.

The canonical form repeats each symbol by its multiplicity in lexicographic
order, e.g. ``{c:2, f:1}`` prints as ``"ccf"``.  When any symbol is longer
than one character, occurrences are joined with single spaces instead
(``"ab ab c"``), and parsing splits on whitespace.  A lone multi-character
symbol with count 1 is therefore ambiguous on parse; validation against the
declared alphabet catches misreads.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple


class Multiset:
    """A frozen mapping from symbols to positive counts."""

    # ``_counts`` is the symbol -> count lookup of ``_items``; ``_canonical``
    # and ``_hash`` cache the canonical string and the hash once first asked
    # for, since configurations are hashed and printed many times over.
    __slots__ = ("_items", "_counts", "_canonical", "_hash")

    def __init__(self, counts: Mapping[str, int] | None = None):
        items = []
        for sym, n in sorted((counts or {}).items()):
            if n < 0:
                raise ValueError(f"negative count for {sym!r}")
            if n > 0:
                items.append((sym, n))
        object.__setattr__(self, "_items", tuple(items))
        object.__setattr__(self, "_counts", dict(items))
        object.__setattr__(self, "_canonical", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Multiset is immutable")

    @classmethod
    def from_symbols(cls, symbols: Iterable[str]) -> "Multiset":
        counts: dict[str, int] = {}
        for sym in symbols:
            counts[sym] = counts.get(sym, 0) + 1
        return cls(counts)

    @classmethod
    def from_string(cls, text: str) -> "Multiset":
        text = text.strip()
        if not text:
            return cls()
        if any(ch.isspace() for ch in text):
            return cls.from_symbols(text.split())
        return cls.from_symbols(text)

    def items(self) -> Tuple[Tuple[str, int], ...]:
        return self._items

    def symbols(self) -> Tuple[str, ...]:
        return tuple(sym for sym, _ in self._items)

    def count(self, sym: str) -> int:
        return self._counts.get(sym, 0)

    def is_empty(self) -> bool:
        return not self._items

    def canonical(self) -> str:
        if self._canonical is None:
            joiner = " " if any(len(s) > 1 for s, _ in self._items) else ""
            text = joiner.join(s for s, n in self._items for _ in range(n))
            object.__setattr__(self, "_canonical", text)
        return self._canonical

    def __add__(self, other: "Multiset") -> "Multiset":
        counts = dict(self._counts)
        for s, n in other._items:
            counts[s] = counts.get(s, 0) + n
        return Multiset(counts)

    def __sub__(self, other: "Multiset") -> "Multiset":
        counts = dict(self._counts)
        for s, n in other._items:
            have = counts.get(s, 0)
            if have < n:
                raise ValueError(f"cannot remove {n} x {s!r}, only {have} present")
            counts[s] = have - n
        return Multiset(counts)

    def __le__(self, other: "Multiset") -> bool:
        have = other._counts
        return all(have.get(s, 0) >= n for s, n in self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiset) and self._items == other._items

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._items))
        return self._hash

    def __repr__(self) -> str:
        return f"Multiset({dict(self._items)!r})"
