"""Frozen outputs: every entry's SHA-256 must match ``frozen_outputs.json``.

An entry is one carrier, cube, diagram or CLI call.  Its digest is taken
over a canonical JSON text of its outputs: sorted keys, plain ints, and
each kernel-word buffer as the SHA-256 of its ``<i8`` bytes.

* ``smith/<carrier>``: ``smith`` and ``higgins_binary`` of the
  normalisations on every congruence pair of each catalogue carrier of
  order at most 12;
* ``words/<group>``: ``ternary_kernel_words`` at bound 10 on every
  subgroup triple of D4 and Q8, and on the cubes of S3, Z6, Z8, D4, Q8;
* ``admissible/<diagram>``: the fill-in or the whole conflict;
* ``group-fast/<group>``: result, witnesses and completeness on every
  subgroup triple of D4, Q8 and A4;
* ``commute-over/<group>``: both strategies on every proper cospan of
  cyclic subgroup inclusions over the groups of order at most 12;
* ``cli/<argv>``: a ``--format json`` report with ``wall_time_ms``
  masked, plus stderr and the exit code, run from the repository root.

pytest checks every entry except the Smith commutators of the five
slowest carriers; ``PYTHONPATH=src python tests/test_frozen_outputs.py``
checks every entry and exits 1 on a mismatch.  A mismatch prints the fresh
digest.  A change that means to move an output copies that digest into
the JSON file by hand and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from commwb import cli
from commwb._kernel_search import ternary_kernel_words
from commwb.commutators import (WeightedCospan, commute_over,
                                higgins_binary, higgins_ternary,
                                is_w_normal, normalise, smith)
from commwb.conditions import admissible
from commwb.core import Subuniverse
from commwb.sweeps import congruences, cyclic_subgroups, subgroups
from commwb.varieties import builtin_library

ROOT = Path(__file__).resolve().parent.parent
FROZEN = Path(__file__).with_name("frozen_outputs.json")
SLOW = {f"smith/{key}" for key in
        ("chain3xchain3", "D6", "A4", "Dic3", "D5")}
FX = "src/commwb/fixtures"
CLI_CALLS = (
    ("algebra", "verify", "--file", f"{FX}/S3.json", "--profile", "groups"),
    ("algebra", "verify", "--algebra", "S3",
     "--profile", f"{FX}/groups-profile.json"),
    ("commutator", "huq", "--algebra", "S3", "--sub", "(12)", "--sub", "(23)"),
    ("commutator", "huq", "--algebra", "Z6", "--sub", "2", "--sub", "3"),
    ("commutator", "smith", "--algebra", "S3", "--cong", "e~(12)",
     "--cong", "e~(123)"),
    ("commutator", "smith", "--algebra", "Z6", "--cong", "0~3",
     "--cong", "0~2"),
    ("commutator", "ternary", "--algebra", "S3", "--sub", "(12)",
     "--sub", "(12)", "--sub", "(123)"),
    ("commutator", "ternary", "--algebra", "S3", "--sub", "(12)",
     "--sub", "(12)", "--sub", "(123)", "--strategy", "word-oracle",
     "--word-bound", "10"),
    ("commutator", "ternary", "--algebra", "chain3", "--sub", "1/2",
     "--sub", "1/2", "--sub", "1/2", "--strategy", "term-depth",
     "--term-depth", "3"),
    ("commutator", "weighted", "--cospan", "paper/s3-w"),
    ("commutator", "weighted", "--cospan", "paper/s3-w",
     "--strategy", "ssh-kernel", "--profile", "groups"),
    ("commutator", "weighted", "--cospan", "paper/s3-w-zero",
     "--strategy", "ssh-kernel", "--profile", "groups"),
    ("commutator", "weighted", "--file", f"{FX}/s3-weighted-zero.json"),
    ("closure", "sub", "--algebra", "S3", "--gens", "(12),(123)"),
    ("closure", "cong", "--algebra", "Z12", "--pairs", "0~4"),
    ("closure", "wnormal", "--algebra", "S3", "--sub", "(12)"),
    ("closure", "wnormal", "--algebra", "S3", "--sub", "(123)",
     "--weight", "(12)"),
    ("check", "ssh", "--file", f"{FX}/hslat-admissible.json"),
    ("check", "ssh", "--diagram", "paper/hslat-adm"),
    ("check", "ssh", "--diagram", "groups/s3-s3-full-nonabelian"),
    ("check", "w", "--cospan", "paper/s3-w"),
    ("check", "reflect", "--file", f"{FX}/reflect-basic.json"),
    ("examples", "run", "all"),
)


def _plain(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.integer):
        return x.item()
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return x


def digest(outputs) -> str:
    text = json.dumps(_plain(outputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _smith(key):
    alg = builtin_library().algebra(key)
    congs = congruences(alg)
    return [c.block_id for c in congs], [
        (smith(alg, r, s).block_id,
         higgins_binary(alg, normalise(r), normalise(s)).members)
        for r, s in itertools.product(congs, repeat=2)]


def _subgroup_triples(alg):
    return itertools.product(subgroups(alg), repeat=3)


def _words(key, cube=False):
    alg = builtin_library().algebra(key)
    triples = ([(Subuniverse(alg, tuple(range(alg.size))),) * 3] if cube
               else _subgroup_triples(alg))
    return [hashlib.sha256(ternary_kernel_words(t, 10).astype("<i8")
                           .tobytes()).hexdigest() for t in triples]


def _admissible(key):
    outcome = admissible(builtin_library().diagrams[key])
    c = outcome.conflict
    return {"exists": outcome.exists,
            "phi": None if outcome.phi is None else outcome.phi.map,
            "conflict": None if c is None else
            (c.element, c.values, c.derivations, c.involved)}


def _group_fast(key):
    alg = builtin_library().algebra(key)
    reports = (higgins_ternary(alg, *t, "group-fast")
               for t in _subgroup_triples(alg))
    return [(r.result.members, r.witnesses, r.complete) for r in reports]


def _report(verdict_and_report):
    verdict, r = verdict_and_report
    return verdict, r.result.members, r.strategy, r.complete, r.witnesses


def _commute_over(key):
    lib = builtin_library()
    alg = lib.algebra(key)
    cyc = cyclic_subgroups(alg)
    incl = {c.members: c.inclusion_hom() for c in cyc}
    out = []
    for X, Y, W in itertools.product(cyc, repeat=3):
        w = incl[W.members]
        if not (is_w_normal(alg, X, w) and is_w_normal(alg, Y, w)):
            continue
        c = WeightedCospan(x=incl[X.members], y=incl[Y.members], w=w)
        out.append(((X.members, Y.members, W.members),
                    _report(commute_over(c, "proper-commutators")),
                    _report(commute_over(c, "ssh-kernel",
                                         profile=lib.profiles["groups"]))))
    return out


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--format", "json"])
    except SystemExit as exc:       # argparse rejects the command line
        code = exc.code
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        report["wall_time_ms"] = None
    return {"exit": code, "report": report, "stderr": err.getvalue()}


def _entries() -> dict:
    lib = builtin_library()
    carriers = sorted((alg.size, key) for key, alg in lib.algebras.items()
                      if "/" not in key and alg.size <= 12)
    groups = [key for _, key in carriers
              if lib.algebra_profile[key] == "groups"]
    entries = {f"smith/{k}": partial(_smith, k) for _, k in carriers}
    entries.update({f"words/{k}": partial(_words, k) for k in ("D4", "Q8")})
    entries.update({f"words/{k}^3": partial(_words, k, cube=True)
                    for k in ("S3", "Z6", "Z8", "D4", "Q8")})
    entries.update({f"admissible/{k}": partial(_admissible, k)
                    for k in sorted(lib.diagrams)})
    entries.update({f"group-fast/{k}": partial(_group_fast, k)
                    for k in ("D4", "Q8", "A4")})
    entries.update({f"commute-over/{k}": partial(_commute_over, k)
                    for k in groups})
    entries.update({"cli/" + " ".join(a): partial(_cli, a) for a in CLI_CALLS})
    return entries


ENTRIES = _entries()


def _frozen() -> dict:
    return json.loads(FROZEN.read_text())


def test_every_entry_has_a_frozen_digest():
    assert sorted(_frozen()) == sorted(ENTRIES)


@pytest.mark.parametrize("name", [n for n in ENTRIES if n not in SLOW])
def test_frozen_output(name):
    fresh = digest(ENTRIES[name]())
    assert fresh == _frozen()[name], f"{name} moved: fresh digest {fresh}"


def main() -> int:
    frozen = _frozen()
    bad = 0
    for name in ENTRIES:
        fresh = digest(ENTRIES[name]())
        if fresh != frozen.get(name):
            bad += 1
            print(f"MISMATCH {name}: fresh digest {fresh}")
    for name in sorted(set(frozen) - set(ENTRIES)):
        bad += 1
        print(f"MISMATCH {name}: frozen but no longer computed")
    print(f"{len(ENTRIES)} entries, {bad} mismatched")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
