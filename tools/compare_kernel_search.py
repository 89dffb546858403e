"""Differential check of the kernel-word search against an earlier engine.

Loads ``src/commwb/_kernel_search.py`` as it stood at a git revision that
still had the depth-first search, sizes that engine's per-depth candidate
buffer from the sum of the factor orders (its original width overflows on
factors of order 8 and more), lets it read ``Subuniverse.as_algebra()`` as
the algebra it now returns, and checks that both engines return
byte-identical record buffers on:

* every distinct subgroup triple of D4 and Q8 (the triples of acceptance
  criterion 7), and
* the cubes of the named catalogue groups.

The depth-first engine runs as pure Python, so this takes minutes.

    PYTHONPATH=src python tools/compare_kernel_search.py \\
        [--rev dd5ebfb] [--bound 10] [--cubes S3,Z6,Z8,D4,Q8]
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from commwb import _kernel_search
from commwb.core import Subuniverse
from commwb.sweeps import subgroups
from commwb.varieties import builtin_library

ROOT = Path(__file__).resolve().parent.parent
# (old text, new text) edits to the loaded source: the buffer width, and
# the subalgebra view that ``as_algebra`` no longer returns
PATCHES = (
    ("clist = np.empty((max_len, 2 * nmax + 4), dtype=np.int64)",
     "clist = np.empty((max_len, int(ns.sum()) + 4), dtype=np.int64)"),
    ("view = sub.as_algebra()\n    alg = view.algebra\n",
     "alg = sub.as_algebra()\n"),
    ("len(view.to_parent)", "alg.size"),
)


def load_reference(rev: str):
    source = subprocess.run(
        ["git", "show", f"{rev}:src/commwb/_kernel_search.py"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout
    for old, new in PATCHES:
        if old not in source:
            sys.exit(f"{rev}: cannot patch the engine, {old!r} not found")
        source = source.replace(old, new)
    spec = importlib.util.spec_from_loader("commwb._kernel_search_ref",
                                           loader=None)
    module = importlib.util.module_from_spec(spec)
    module.__package__ = "commwb"
    exec(compile(source, f"{rev}:kernel", "exec"), module.__dict__)
    return module


def instances(lib, cubes):
    seen = set()
    for key in ("D4", "Q8"):
        alg = lib.algebra(key)
        for triple in itertools.product(subgroups(alg), repeat=3):
            views = [s.as_algebra().tables["mul"] for s in triple]
            ident = tuple(np.asarray(t).tobytes() for t in views)
            if ident not in seen:
                seen.add(ident)
                yield f"{key} {[len(s.members) for s in triple]}", triple
    for key in cubes:
        alg = lib.algebra(key)
        full = Subuniverse(alg, tuple(range(alg.size)))
        yield f"{key}^3", (full, full, full)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="dd5ebfb")
    ap.add_argument("--bound", type=int, default=10)
    ap.add_argument("--cubes", default="S3,Z6,Z8,D4,Q8")
    args = ap.parse_args()
    ref = load_reference(args.rev)
    cubes = [c for c in args.cubes.split(",") if c]
    checked = mismatched = 0
    t_new = t_ref = 0.0
    for name, triple in instances(builtin_library(), cubes):
        start = time.perf_counter()
        new = _kernel_search.ternary_kernel_words(triple, args.bound)
        t_new += time.perf_counter() - start
        start = time.perf_counter()
        old = ref.ternary_kernel_words(triple, args.bound)
        t_ref += time.perf_counter() - start
        checked += 1
        if new.tobytes() != old.tobytes():
            mismatched += 1
            print(f"MISMATCH {name}: {len(new)} vs {len(old)} slots")
    print(f"{checked} instances at bound {args.bound}: {mismatched}"
          f" mismatched; search {t_new:.1f}s, reference {t_ref:.1f}s")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
