"""Package surface: every exported name exists, no check is an
``assert`` that ``python -O`` would skip, no group-only path finds its
tables by operation name, and results are kept only through ``core``'s
two helpers, ``_Cache`` and ``_kept``."""

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


def _trees():
    """(module file name, module AST) for every module of the package."""
    sources = sorted(pathlib.Path(commwb.__file__).parent.glob("*.py"))
    assert any(p.name == "core.py" for p in sources)
    return [(p.name, ast.parse(p.read_text(), filename=str(p)))
            for p in sources]


def _nodes():
    """(module file name, node) for every AST node of the package."""
    return [(name, node) for name, tree in _trees()
            for node in ast.walk(tree)]


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


def _in_functions(tree, parent=None):
    """(enclosing function name or None, node) for every node below
    ``tree``."""
    for node in ast.iter_child_nodes(tree):
        yield parent, node
        yield from _in_functions(node, node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else parent)


def test_frozen_objects_are_set_only_by_their_constructors_and_kept():
    # a frozen object's fields are set in ``__post_init__`` and
    # ``_trusted``; anything computed later is kept through ``core._kept``,
    # the one reader of an object's ``__dict__``
    found = [f"{name}:{node.lineno} in {func}" for name, tree in _trees()
             for func, node in _in_functions(tree)
             if isinstance(node, ast.Attribute) and (
                 node.attr == "__setattr__"
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "object"
                 and func not in ("__post_init__", "_trusted", "_kept")
                 or node.attr == "__dict__" and func != "_kept")]
    assert not found, f"objects written outside their constructors: {found}"


_DICT_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear",
                  "__setitem__", "__delitem__"}


def _module_dicts(tree) -> set:
    """Names a module binds at its top level to a dict."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        if isinstance(value, (ast.Dict, ast.DictComp)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "defaultdict", "OrderedDict")):
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_no_module_keeps_a_cache_of_its_own():
    # bounded caches are ``core._Cache`` instances; a module-level dict
    # written at run time is an unbounded one
    found = []
    for name, tree in _trees():
        dicts = _module_dicts(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in dicts:
                found.append(f"{name}:{node.lineno} writes {node.value.id}")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _DICT_MUTATORS \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in dicts:
                found.append(f"{name}:{node.lineno} writes "
                             f"{node.func.value.id}")
    assert not found, f"module-level caches in commwb: {found}"
