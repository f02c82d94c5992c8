"""The examples in the package's docstrings run and print what they show."""

import doctest
import importlib
import pkgutil

import tdho


def test_docstring_examples():
    # import by name: the attribute tdho.kernel is the function, not the
    # module; __main__ is skipped, since importing it runs the CLI
    names = ["tdho"] + [f"tdho.{m.name}" for m in pkgutil.iter_modules(tdho.__path__)
                        if m.name != "__main__"]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert sum(r.attempted for r in results.values()) >= 4
