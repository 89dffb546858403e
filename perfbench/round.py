"""One round of one workload, in a fresh interpreter.

    python3 perfbench/round.py --workload NAME --seed N [--trace 0|1]
        [--spans FILE] | --setup-only

Times ``import commwb`` plus ``builtin_library()`` (the set-up every CLI
call pays), generates the inputs from the seed, runs the workload once,
then checks every output against ``checks``.  Prints one JSON object.
Untraced, the object also carries the set-up, the run and each latency
at the reference speed (``speed``), the ``ref_*`` fields.  With
``--trace 1`` the public functions of the traced modules record spans,
and the object carries per-layer calls, self times and counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

WARM_UP = 20


def kernel_word_counts(calls, word_records) -> dict:
    """Distinct inputs, searches run and words found by the kernel-word
    search.  An input is the triple of local multiplication tables plus
    the bound, the key the program's word cache uses."""
    inputs, buffers = set(), {}
    for subs, bound, buf in calls:
        tables = []
        for sub in subs:
            members = list(sub.members)
            mul = sub.parent.tables["mul"][:, members][members, :]
            local = {m: i for i, m in enumerate(members)}
            tables.append(tuple(local[int(v)] for v in mul.ravel()))
        inputs.add((tuple(tables), int(bound)))
        buffers[id(buf)] = buf
    words = sum(len(word_records(b)) for b in buffers.values())
    return {"distinct_inputs": len(inputs), "searches": len(buffers),
            "words": words}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the trace's spans here (gzip)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    t0 = time.perf_counter()
    from commwb import varieties
    t1 = time.perf_counter()
    lib = varieties.builtin_library()
    t2 = time.perf_counter()
    setup = {"setup_s": t2 - t0, "builtin_library_s": t2 - t1}
    # imported after the set-up is timed: it imports numpy
    import speed
    if args.setup_only:
        meter = speed.Speedometer()
        meter.warm(WARM_UP)
        setup["ref_setup_s"] = setup["setup_s"] * meter.setup_factor()
        print(json.dumps(setup))
        return
    if args.workload is None:
        ap.error("--workload is required")

    import checks
    import workloads
    from tracing import Tracer

    make_inputs, run, check = workloads.WORKLOADS[args.workload]
    spec = make_inputs(lib, args.seed)
    tracer = Tracer() if args.trace else None
    meter = None if args.trace else speed.Speedometer()
    if tracer is not None:
        tracer.install()
    if meter is not None:
        meter.warm(WARM_UP)
        first = meter.segment()
        probing = meter.spent
    clock = workloads.Clock(tracer, meter)
    root = tracer.open("bench.round") if tracer is not None else None
    start = time.perf_counter()
    outs = run(spec, clock, lib)
    elapsed = time.perf_counter() - start
    if meter is not None:
        elapsed -= meter.spent - probing
        meter.probe()
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    correct, problem = True, None
    try:
        check(spec, outs, args.seed)
    except checks.Mismatch as err:
        correct, problem = False, str(err)

    result = dict(setup, workload=args.workload, seed=args.seed,
                  elapsed_s=elapsed, latencies_s=clock.latencies,
                  failed=clock.failed, peak_rss_mb=peak_kb / 1024,
                  correct=correct, problem=problem)
    if meter is not None:
        factors = meter.factors()
        result.update(
            ref_setup_s=setup["setup_s"] * meter.setup_factor(),
            ref_elapsed_s=meter.elapsed(first, factors),
            ref_latencies_s=[x * factors[k] for x, k in
                             zip(clock.latencies, clock.segments)],
            probe_median_s=statistics.median(meter.samples))
    if tracer is not None:
        result["layers"] = tracer.layer_table()
        result["kernel_words"] = kernel_word_counts(
            tracer.kernel_word_calls(), workloads.word_records)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
