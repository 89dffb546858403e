"""Package surface: every exported name exists."""

import importlib
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
