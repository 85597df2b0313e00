"""The benchmark tracer wraps heterotest functions by name; a rename or a
deletion must fail here rather than at ``install()`` in a traced run."""

import importlib
import pathlib
import runpy

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve_in_heterotest():
    tracer = runpy.run_path(str(TRACER))
    for module_name, qualname in tracer["SPANS"] + tracer["COUNTED"]:
        owner = importlib.import_module(f"heterotest.{module_name}")
        *classes, attr = qualname.split(".")
        for name in classes:
            owner = getattr(owner, name)
        # install() replaces methods through the class's own __dict__
        names = vars(owner) if classes else dir(owner)
        assert attr in names, f"{module_name}.{qualname}"
