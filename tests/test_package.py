"""Package surface: every exported name exists, and no check is an
``assert`` that ``python -O`` would skip."""

import ast
import importlib
import pathlib
import pkgutil

import commwb


def test_every_all_entry_resolves():
    names = ["commwb"] + [f"commwb.{m.name}"
                          for m in pkgutil.iter_modules(commwb.__path__)]
    assert "commwb.commutators" in names
    for name in names:
        mod = importlib.import_module(name)
        for attr in mod.__all__:
            assert hasattr(mod, attr), f"{name}.__all__ names {attr!r}"


def test_package_has_no_assert_statements():
    sources = sorted(pathlib.Path(commwb.__file__).parent.glob("*.py"))
    assert any(p.name == "core.py" for p in sources)
    found = [f"{p.name}:{node.lineno}"
             for p in sources
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in commwb: {found}"
