"""commwb benchmark: sweep workloads timed end to end, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It first starts a few interpreters that
only set up (``import commwb`` plus ``builtin_library()``), then runs whole
rounds of the workload, each in a fresh single-threaded interpreter so the
program's word cache starts empty as in a CLI call, until the next round
would pass ``--seconds``.  Every round checks its outputs against
reference computations made apart from the program.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  Per-round results go to
``perfbench/out/``, spans of traced rounds as gzipped JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("smith-lattice", "ternary-words", "weighted-cospans")
SETUP_PROBES = 5
ROUND_TIMEOUT_S = 150
RUN_LIMIT_S = 160

END_TO_END = (("setup_s", "s"), ("instances_per_s", "1/s"),
              ("instance_iqm_ms", "ms"), ("instance_p95_ms", "ms"),
              ("peak_rss_mb", "MB"))

# (metric, span name, field) for the spans of the traced modules.
_SPAN_METRICS = [
    (f"core.power_closure.{w}.{f}", f"core.power_closure.{w}", f)
    for w in ("w4", "w3") for f in ("calls", "self_s", "rows")
] + [
    (f"core.{fn}.{f}", f"core.{fn}", f)
    for fn in ("generate_subuniverse", "generate_congruence", "image_sub")
    for f in ("calls", "self_s")
] + [
    (f"core.{fn}.self_s", f"core.{fn}", "self_s")
    for fn in ("product", "hom_violations")
] + [
    (f"commutators.{fn}.self_s", f"commutators.{fn}", "self_s")
    for fn in ("smith", "higgins_binary", "cooperator", "is_w_normal",
               "w_normal_closure", "commute_over",
               "higgins_ternary.group_fast", "higgins_ternary.word_oracle")
] + [
    (f"kernel_search.ternary_kernel_words.{f}",
     "kernel_search.ternary_kernel_words", f) for f in ("calls", "self_s")
] + [
    ("sweeps.congruences.self_s", "sweeps.congruences", "self_s"),
    ("sweeps.congruences.found", "sweeps.congruences", "rows"),
    ("sweeps.subgroups.self_s", "sweeps.subgroups", "self_s"),
    ("sweeps.subgroups.found", "sweeps.subgroups", "rows"),
    ("sweeps.cyclic_subgroups.self_s", "sweeps.cyclic_subgroups", "self_s"),
] + [
    (f"conditions.{fn}.self_s", f"conditions.{fn}", "self_s")
    for fn in ("admissible", "check_ssh_instance", "run_paper_examples")
]
_KERNEL_COUNTS = ("words", "distinct_inputs", "searches")


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith((".self_s", "_s", ".s")) else "count"


PER_LAYER = tuple(
    (name, _unit(name)) for name in
    [m for m, _, _ in _SPAN_METRICS]
    + [f"kernel_search.ternary_kernel_words.{k}" for k in _KERNEL_COUNTS]
    + ["varieties.builtin_library.s", "other.self_s", "bench.self_s",
       "bench.round_s", "bench.traced_instances_per_s"])


class RoundFailed(RuntimeError):
    pass


def _round(args: list, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = max(1.0, min(ROUND_TIMEOUT_S, deadline - time.perf_counter()))
    try:
        done = subprocess.run([sys.executable, str(HERE / "round.py"), *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise RoundFailed(f"round {args} ran over {timeout:.0f} s") from err
    if done.returncode != 0 or not done.stdout.strip():
        raise RoundFailed(f"round {args} exited {done.returncode}:\n"
                          + done.stderr[-4000:])
    if done.stderr:
        sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def interquartile_mean(values: list) -> float:
    """Mean of the middle half.  The latencies of a workload fall in
    clusters (by factor orders, cache hit or miss), and where the median
    sits in a gap between two clusters it jumps with noise; this mean of
    the middle half moves smoothly instead."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(setups: list, rounds: list, scaled: bool = True) -> dict:
    """The end-to-end metrics: scaled, from the times at the reference
    speed (``speed``); unscaled, from wall-clock times as measured."""
    p = "ref_" if scaled else ""
    lat = [x for r in rounds for x in r[p + "latencies_s"]]
    values = {
        "setup_s": statistics.median(s[p + "setup_s"] for s in setups),
        "instances_per_s": len(lat) / sum(r[p + "elapsed_s"] for r in rounds),
        "instance_iqm_ms": interquartile_mean(lat) * 1e3,
        "instance_p95_ms": statistics.quantiles(lat, n=20)[18] * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}


def per_layer(rounds: list) -> dict:
    """Per-round means of the traced rounds' layer figures."""
    n = len(rounds)
    values = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    listed = {span for _, span, _ in _SPAN_METRICS}
    for r in rounds:
        layers = r["layers"]
        for metric, span, field in _SPAN_METRICS:
            values[metric] += layers.get(span, {}).get(field, 0) / n
        for k in _KERNEL_COUNTS:
            values[f"kernel_search.ternary_kernel_words.{k}"] += \
                r["kernel_words"][k] / n
        values["varieties.builtin_library.s"] += r["builtin_library_s"] / n
        own = sum(v["self_s"] for k, v in layers.items()
                  if k.startswith("bench."))
        other = sum(v["self_s"] for k, v in layers.items()
                    if k not in listed and not k.startswith("bench."))
        total = sum(v["self_s"] for v in layers.values())
        values["bench.self_s"] += own / n
        values["other.self_s"] += other / n
        values["bench.round_s"] += total / n
    lat = sum(len(r["latencies_s"]) for r in rounds)
    values["bench.traced_instances_per_s"] = \
        lat / sum(r["elapsed_s"] for r in rounds)
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills the round
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "commwb" / "__init__.py").is_file():
        print(f"perfbench: no commwb sources under {ROOT / 'src'}; run from"
              " the root of a commwb checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S
    try:
        setups = [_round(["--setup-only"], deadline)
                  for _ in range(SETUP_PROBES)]
        rounds = []
        measuring = time.perf_counter()
        while True:
            start = time.perf_counter()
            tag = f"{args.workload}-seed{args.seed}-round{len(rounds)}"
            extra = (["--spans", str(OUT / f"{tag}.spans.jsonl.gz")]
                     if args.trace else [])
            rounds.append(_round(["--workload", args.workload,
                                  "--seed", str(args.seed),
                                  "--trace", str(args.trace), *extra],
                                 deadline))
            if not args.trace:
                setups.append(rounds[-1])
            now = time.perf_counter()
            if (now - measuring + (now - start) > args.seconds
                    or now - began + (now - start) > RUN_LIMIT_S):
                break
    except RoundFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    for r in rounds:
        if not r["correct"]:
            print(f"perfbench: wrong output: {r['problem']}", file=sys.stderr)
    metrics = per_layer(rounds) if args.trace else end_to_end(setups, rounds)
    result = {"correct": all(r["correct"] for r in rounds),
              "attempted": sum(len(r["latencies_s"]) for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, setups=setups[:SETUP_PROBES],
                  rounds=rounds)
    if not args.trace:
        record["unscaled_metrics"] = end_to_end(setups, rounds, False)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
