"""Package surface: every exported name exists, no check is an
``assert`` that ``python -O`` would skip, and no group-only path finds its
tables by operation name."""

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


def _nodes():
    """(module file name, node) for every AST node of the package."""
    sources = sorted(pathlib.Path(commwb.__file__).parent.glob("*.py"))
    assert any(p.name == "core.py" for p in sources)
    return [(p.name, node) for p in sources
            for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))]


def test_package_has_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in commwb: {found}"


def test_only_the_catalogue_reads_a_table_by_operation_name():
    # ``varieties`` builds the tables; everything else reads a group's
    # mul and inv from ``core._group_tables``, which finds them by arity
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if name != "varieties.py" and isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Attribute)
             and node.value.attr == "tables"
             and isinstance(node.slice, ast.Constant)
             and isinstance(node.slice.value, str)]
    assert not found, f"tables read by operation name in commwb: {found}"
