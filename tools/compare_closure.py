"""Differential check of the closure engine against an earlier revision.

Loads ``core.py``, ``commutators.py`` and ``conditions.py`` as they stood at
a git revision that still had the separate closure mechanisms, together with
the ``freeprod.py`` that revision's ``commutators.py`` imports (the other
modules are shared with the working tree), and compares results on:

* every ``power_closure`` and ``generate_subuniverse`` call that the three
  benchmark workloads of ``perfbench/`` make at one seed;
* ``smith`` on all congruence pairs of chain3xchain3, A4, D5, D6 and Dic3,
  the carriers the benchmark leaves out;
* ``admissible`` on every bundled diagram (fill-in or full conflict);
* ``higgins_ternary`` with ``group-fast`` on every subgroup triple of D4,
  Q8 and A4 (result and witnesses).

It prints the number of mismatches and exits 1 if there are any.  The
earlier Smith closure needs about a minute and 1.4 GB on these carriers.

    PYTHONPATH=src python tools/compare_closure.py [--rev e480f86] [--seed 11]
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

from commwb import commutators, conditions, core
from commwb.sweeps import congruences, subgroups
from commwb.varieties import builtin_library

ROOT = Path(__file__).resolve().parent.parent
OWN = ("core", "freeprod", "commutators", "conditions")    # in import order
SHARED = ("terms", "_kernel_search", "varieties", "sweeps")
SMITH_CARRIERS = ("chain3xchain3", "A4", "D5", "D6", "Dic3")
TRIPLE_CARRIERS = ("D4", "Q8", "A4")


def load_reference(rev: str) -> dict:
    """The ``OWN`` modules at ``rev``, as the package ``commwb_ref``."""
    package = types.ModuleType("commwb_ref")
    package.__path__ = []
    sys.modules["commwb_ref"] = package
    for name in SHARED:
        sys.modules[f"commwb_ref.{name}"] = importlib.import_module(
            f"commwb.{name}")
    out = {}
    for name in OWN:
        source = subprocess.run(
            ["git", "show", f"{rev}:src/commwb/{name}.py"], cwd=ROOT,
            check=True, capture_output=True, text=True).stdout
        module = types.ModuleType(f"commwb_ref.{name}")
        module.__package__ = "commwb_ref"
        sys.modules[module.__name__] = module
        exec(compile(source, f"{rev}:{name}.py", "exec"), module.__dict__)
        out[name] = module
    return out


def record_workload_calls(seed: int) -> list:
    """(function name, args) of every closure call of the three workloads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    calls = []
    originals = {name: getattr(core, name)
                 for name in ("power_closure", "generate_subuniverse")}
    holders = [m for k, m in sys.modules.items()
               if k == "commwb" or k.startswith("commwb.")]

    def recorder(name, fn):
        def wrapped(algebra, seeds, *rest, **kwargs):
            seeds = [tuple(s) if name == "power_closure" else s
                     for s in seeds]
            calls.append((name, algebra, seeds, rest, kwargs))
            return fn(algebra, seeds, *rest, **kwargs)
        return wrapped

    patched = []
    for name, fn in originals.items():
        wrapped = recorder(name, fn)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    patched.append((holder, key, fn))
                    setattr(holder, key, wrapped)
    try:
        lib = builtin_library()
        for make_inputs, run, _ in workloads.WORKLOADS.values():
            run(make_inputs(lib, seed), workloads.Clock(), lib)
    finally:
        for holder, key, fn in patched:
            setattr(holder, key, fn)
    return calls


def compare_calls(ref, calls) -> int:
    bad = 0
    seen = set()
    for name, algebra, seeds, rest, kwargs in calls:
        ident = (name, id(algebra), repr(seeds), rest, tuple(kwargs.items()))
        if ident in seen:
            continue
        seen.add(ident)
        new = getattr(core, name)(algebra, seeds, *rest, **kwargs)
        old = getattr(ref["core"], name)(algebra, seeds, *rest, **kwargs)
        if name == "power_closure":
            same = np.array_equal(new, old)
        else:
            same = new.members == old.members
        if not same:
            bad += 1
            print(f"MISMATCH {name} on {algebra.name} seeds {seeds}")
    print(f"workload closures: {len(calls)} calls, {len(seen)} distinct,"
          f" {bad} mismatched")
    return bad


def compare_smith(ref, lib) -> int:
    bad = pairs = 0
    for key in SMITH_CARRIERS:
        alg = lib.algebra(key)
        congs = congruences(alg)
        for r, s in itertools.product(congs, repeat=2):
            pairs += 1
            new = commutators.smith(alg, r, s).block_id
            old = ref["commutators"].smith(alg, r, s).block_id
            if new != old:
                bad += 1
                print(f"MISMATCH smith on {key}: {new} vs {old}")
    print(f"smith: {pairs} congruence pairs, {bad} mismatched")
    return bad


def _conflict(outcome):
    c = outcome.conflict
    if c is None:
        return None
    return (c.element, c.values, c.derivations, c.involved)


def compare_admissible(ref, lib) -> int:
    bad = 0
    for key in sorted(lib.diagrams):
        d = lib.diagrams[key]
        new = conditions.admissible(d)
        old = ref["conditions"].admissible(d)
        same = new.exists == old.exists and _conflict(new) == _conflict(old)
        if new.exists and old.exists:
            same = same and np.array_equal(new.phi.map, old.phi.map)
        if not same:
            bad += 1
            print(f"MISMATCH admissible on {key}: {_conflict(new)} vs"
                  f" {_conflict(old)}")
    print(f"admissible: {len(lib.diagrams)} diagrams, {bad} mismatched")
    return bad


def compare_group_fast(ref, lib) -> int:
    bad = triples = 0
    for key in TRIPLE_CARRIERS:
        alg = lib.algebra(key)
        for K, L, M in itertools.product(subgroups(alg), repeat=3):
            triples += 1
            new = commutators.higgins_ternary(alg, K, L, M, "group-fast")
            old = ref["commutators"].higgins_ternary(alg, K, L, M,
                                                     "group-fast")
            if (new.result.members, new.witnesses) != \
                    (old.result.members, old.witnesses):
                bad += 1
                print(f"MISMATCH group-fast on {key}: {K.members},"
                      f" {L.members}, {M.members}")
    print(f"group-fast: {triples} subgroup triples, {bad} mismatched")
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="e480f86")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    ref = load_reference(args.rev)
    lib = builtin_library()
    start = time.perf_counter()
    bad = compare_calls(ref, record_workload_calls(args.seed))
    bad += compare_smith(ref, lib)
    bad += compare_admissible(ref, lib)
    bad += compare_group_fast(ref, lib)
    print(f"{bad} mismatches in {time.perf_counter() - start:.0f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
