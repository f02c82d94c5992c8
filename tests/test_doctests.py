"""The examples in the package's docstrings run and print what they show,
and the README's Python blocks run."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import tdho

README = Path(__file__).resolve().parents[1] / "README.md"


def test_docstring_examples():
    # import by name: the attribute tdho.kernel is the function, not the
    # module; __main__ is skipped, since importing it runs the CLI
    names = ["tdho"] + [f"tdho.{m.name}" for m in pkgutil.iter_modules(tdho.__path__)
                        if m.name != "__main__"]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert sum(r.attempted for r in results.values()) >= 4


def test_readme_python_blocks_run_in_order():
    # one namespace, as a reader pasting them into one session would run them
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
