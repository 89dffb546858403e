"""Self-test of the benchmark's checks.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs each workload on tiny carriers and checks its outputs, which must
pass; then hands each check a deliberately perturbed answer, which it must
reject.  Also checks that the metric names and units that ``run.py``
prints are the ones ``BENCHMARK.json`` declares, and that the scaling to
the reference speed is the identity on a host that runs the reference
task in exactly ``REFERENCE_S`` and halves the times measured on one that
takes twice as long.  Exits 1 on any failure.
"""

from __future__ import annotations

import copy
import json
import random
import sys

from commwb import builtin_library
from commwb._kernel_search import ternary_kernel_words

import checks
import run
import speed
import workloads

SEED = 5
FAILURES: list = []


def passes(name: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.Mismatch as err:
        FAILURES.append(f"{name}: a correct answer was rejected: {err}")
        return
    print(f"ok  {name}: correct answer accepted")


def rejects(name: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.Mismatch as err:
        print(f"ok  {name}: rejected ({err})")
        return
    FAILURES.append(f"{name}: a perturbed answer was accepted")


def merge_two_blocks(block_id: tuple) -> tuple:
    """The partition with one extra pair: the first two blocks merged."""
    roots = sorted(set(block_id))
    return checks.canonical([roots[0] if r == roots[1] else r
                             for r in block_id])


def other_element(alg, members) -> int:
    return next(x for x in range(alg.size) if x not in members)


def test_smith(lib) -> None:
    spec = workloads.smith_inputs(lib, SEED, hslat=("chain3",),
                                  groups=("S3",))
    outs = workloads.smith_run(spec, workloads.Clock(), lib)
    passes("smith-lattice", workloads.smith_check, spec, outs, SEED)
    for (kind, alg), out in zip(spec, outs):
        at = next(n for n, p in enumerate(out["pairs"]) if len(set(p[2])) > 1)
        i, j, theta, binary = out["pairs"][at]
        bad = copy.deepcopy(out)
        bad["pairs"][at] = (i, j, merge_two_blocks(theta), binary)
        rejects(f"smith-lattice {kind}: Smith result with one extra pair",
                checks.check_smith_carrier, alg, kind, bad)
        bad = copy.deepcopy(out)
        bad["pairs"][-1] = bad["pairs"][-1][:3] + (
            bad["pairs"][-1][3] + (other_element(alg, binary),),)
        rejects(f"smith-lattice {kind}: binary commutator with one extra"
                " element", checks.check_smith_carrier, alg, kind, bad)
        bad = copy.deepcopy(out)
        bad["congs"] = bad["congs"][:-1]
        rejects(f"smith-lattice {kind}: congruence missing from the"
                " inventory", checks.check_smith_carrier, alg, kind, bad)


def test_ternary(lib) -> None:
    spec = workloads.ternary_inputs(lib, SEED, nilpotent=("V4",),
                                    strata={6: ((2, 3, 6),)})
    outs = workloads.ternary_run(spec, workloads.Clock(), lib)
    passes("ternary-words", workloads.ternary_check, spec, outs, SEED)

    alg, out = spec["nilpotent"][0], outs["nilpotent"][0]
    bad = copy.deepcopy(out)
    i, j, k, fast, oracle = bad["triples"][-1]
    bad["triples"][-1] = (i, j, k, fast + (other_element(alg, fast),),
                          oracle)
    rejects("ternary-words: nontrivial ternary commutator in a"
            " two-nilpotent group", checks.check_nilpotent_triples, alg, bad)

    alg, subs = spec["sample"][0]
    members = [s.members for s in subs]
    out = dict(outs["sample"][0], words=workloads.sampled_words(
        ternary_kernel_words, subs, random.Random(SEED)))
    passes("ternary-words sample", checks.check_sampled_triple, alg,
           *members, out)
    for key in ("fast", "left", "right"):
        bad = dict(out, **{key: out[key][:-1]})
        rejects(f"ternary-words sample: {key} missing an element",
                checks.check_sampled_triple, alg, *members, bad)
    bad = dict(out, oracle=tuple(range(alg.size)))
    rejects("ternary-words sample: word oracle above group-fast",
            checks.check_sampled_triple, alg, *members, bad)
    bad = dict(out, words=[out["words"][0][:-1]] + out["words"][1:])
    rejects("ternary-words sample: kernel word without its last syllable",
            checks.check_sampled_triple, alg, *members, bad)


def test_cospans(lib) -> None:
    spec = workloads.cospan_inputs(lib, SEED, groups=("S3", "V4"))
    outs = workloads.cospan_run(spec, workloads.Clock(), lib)
    passes("weighted-cospans", workloads.cospan_check, spec, outs, SEED)
    for alg, out in zip(spec["groups"], outs["carriers"]):
        bad = copy.deepcopy(out)
        x, y, w, v1, v2 = bad["cospans"][0]
        bad["cospans"][0] = (x, y, w, not v1, not v2)
        rejects(f"weighted-cospans {alg.name}: both verdicts flipped",
                checks.check_cospan_carrier, alg, bad)
        bad = copy.deepcopy(out)
        bad["cospans"][-1] = bad["cospans"][-1][:4] + (
            not bad["cospans"][-1][4],)
        rejects(f"weighted-cospans {alg.name}: strategies disagree",
                checks.check_cospan_carrier, alg, bad)
        bad = copy.deepcopy(out)
        bad["proper"] = bad["proper"][1:]
        rejects(f"weighted-cospans {alg.name}: a proper cospan missed",
                checks.check_cospan_carrier, alg, bad)
    for d, out in zip(spec["diagrams"], outs["diagrams"]):
        bad = dict(out, hypothesis=not out["hypothesis"])
        rejects(f"weighted-cospans: {d.name} hypothesis flipped",
                checks.check_diagram, d, bad)
    for fixture, key, value in (("hslat-ssh", "conflict_involved",
                                 ["(0,a)", "(1/2,a)"]),
                                ("s3-w", "ternary", ["e"])):
        bad = copy.deepcopy(outs["paper"])
        bad[fixture][key] = value
        rejects(f"weighted-cospans: {fixture} {key} changed",
                checks.check_paper_examples, bad)


def test_declared_metrics() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, printed in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        got = [(m["name"], m["unit"]) for m in declared[key]]
        if got != list(printed):
            FAILURES.append(f"BENCHMARK.json {key} differs from run.py")
        else:
            print(f"ok  BENCHMARK.json {key}: {len(got)} metrics as printed")
    names = [w["name"] for w in declared["workloads"]]
    if names != list(run.WORKLOADS) or set(names) != set(workloads.WORKLOADS):
        FAILURES.append("BENCHMARK.json workloads differ from run.py")


def test_speed() -> None:
    for factor in (1.0, 0.5):
        meter = speed.Speedometer()
        meter.samples = [speed.REFERENCE_S / factor] * 8
        meter.marks = [(10.0 * k, 10.0 * k + 1.0) for k in range(8)]
        factors = meter.factors()
        # segments 2 to 6 between the probes, 9 s each
        got = [*factors, meter.setup_factor(), meter.elapsed(2, factors)]
        want = [factor] * 9 + [factor * 45.0]
        if any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
            FAILURES.append(f"speed: factor {factor} gave {got}")
        else:
            print(f"ok  speed: times scale by {factor}")


def main() -> int:
    lib = builtin_library()
    test_smith(lib)
    test_ternary(lib)
    test_cospans(lib)
    test_declared_metrics()
    test_speed()
    for line in FAILURES:
        print(f"FAIL {line}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
