"""The three sweep workloads: inputs from a seed, the timed run, the checks.

Every carrier is the catalogue algebra relabelled by a seeded permutation
that fixes the basepoint, so each seed hands the program different tables
of the same algebras: the work, the verdicts and the reference values stay
the same while no answer can be remembered from another seed.  The
ternary sample also draws its group and subgroups from the seed, inside
fixed strata, so its make-up and search sizes do not depend on the seed,
and D4 and Q8 keep the number of word searches they need.
"""

from __future__ import annotations

import collections
import itertools
import random
import sys
import time

import numpy as np

from commwb import commutators, conditions, core, sweeps
import checks

# Carriers of smith-lattice: every catalogue carrier up to order 12 but
# chain3xchain3, A4, D5, D6 and Dic3.  Those five take 56 s of the 60 s
# that all congruence pairs of all these carriers take, and [nabla, nabla]
# on D5 alone takes 5 s and 1.3 GB, so one round would not fit a run.
SMITH_HSLAT = ("chain2", "chain3", "chain4", "diamond", "chain2xchain3")
SMITH_GROUPS = ("Z1", "Z2", "A3", "Z3", "V4", "Z4", "Z5", "S3", "Z6", "Z7",
                "D4", "Q8", "Z8", "Z9", "Z10", "Z11", "Z12")

NILPOTENT = ("D4", "Q8")
WORD_BOUND = 10
# Ternary sample: per carrier order, the subgroup orders of each triple.
# The seed picks the group among those of that order with subgroups of
# these orders, then each subgroup; the search size depends only on the
# orders, so every seed gives the same work.  Factors of order 16 (Z16^3
# reaches 0.7 GB) are left out; (8, 8, 16) is the largest search kept.
# Carrier order 4 is left out: V4 and Z4 are subgroups of D4 and Q8, so
# their triples hit the word cache or not depending on the seed.
SAMPLE_STRATA = {
    6: ((2, 3, 6), (2, 2, 6)),
    8: ((2, 4, 8), (4, 4, 8)),
    10: ((2, 5, 10), (2, 2, 10)),
    12: ((3, 4, 12), (6, 6, 12)),
    16: ((4, 8, 16), (8, 8, 16)),
}
SAMPLE_GROUPS = ("Z6", "S3", "Z8", "D4", "Q8", "Z10", "D5", "Z12",
                 "A4", "D6", "Dic3", "Z16", "D8")
WORDS_CHECKED = 8

COSPAN_GROUPS = ("Z1", "Z2", "A3", "Z3", "V4", "Z4", "Z5", "S3", "Z6", "Z7",
                 "D4", "Q8", "Z8", "Z9", "D5", "Z10", "Z11", "A4", "D6",
                 "Dic3", "Z12")


def relabel(alg, rng: random.Random):
    """An isomorphic copy of ``alg`` under a random basepoint-fixing
    permutation of its elements."""
    bp = alg.basepoint
    rest = [i for i in range(alg.size) if i != bp]
    rng.shuffle(rest)
    perm = np.empty(alg.size, dtype=np.int64)
    perm[[i for i in range(alg.size) if i != bp]] = rest
    perm[bp] = bp
    tables = {}
    for op, k in alg.signature.ops:
        t = alg.tables[op]
        if k == 0:
            tables[op] = np.asarray(perm[t[()]])
        else:
            new = np.empty_like(t)
            new[np.ix_(*([perm] * k))] = perm[t]
            tables[op] = new
    labels = None
    if alg.labels:
        labels = [""] * alg.size
        for i, text in enumerate(alg.labels):
            labels[perm[i]] = text
    return core.FinAlgebra(alg.signature, alg.size, tables, name=alg.name,
                           labels=labels)


class Clock:
    """Times the run: inventory phases and instances, one latency each.

    An instance that raises counts as failed and yields None.  With a
    tracer, each phase and instance is a ``bench.*`` span, so the
    benchmark's own time inside the round is accounted for.  With a
    speedometer, the host's speed is probed before a phase or instance
    when the last probe is old enough, outside the timed region, and each
    instance's segment between probes is kept in ``segments``.
    """

    def __init__(self, tracer=None, meter=None):
        self.latencies: list = []
        self.segments: list = []
        self.failed = 0
        self.tracer = tracer
        self.meter = meter

    def phase(self, fn, *args):
        if self.meter is not None:
            self.meter.maybe_probe()
        if self.tracer is None:
            return fn(*args)
        span = self.tracer.open("bench.inventory")
        try:
            return fn(*args)
        finally:
            self.tracer.close(span)

    def instance(self, fn, *args):
        if self.meter is not None:
            self.meter.maybe_probe()
            self.segments.append(self.meter.segment())
        tracer = self.tracer
        if tracer is not None:
            tracer.instance_id = len(self.latencies)
            span = tracer.open("bench.instance")
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as err:  # counted, and the sweep goes on
            print(f"instance {len(self.latencies)} failed: {err!r}",
                  file=sys.stderr)
            self.failed += 1
            out = None
        self.latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.close(span)
            tracer.instance_id = -1
        return out


def _members(sub):
    return None if sub is None else tuple(sub.members)


# ---------------------------------------------------------------------------
# smith-lattice


def smith_inputs(lib, seed: int, hslat=SMITH_HSLAT, groups=SMITH_GROUPS):
    rng = random.Random(seed)
    return [(kind, relabel(lib.algebra(key), rng))
            for kind, keys in (("hslat", hslat), ("groups", groups))
            for key in keys]


def smith_run(spec, clock: Clock, lib) -> list:
    outs = []
    for kind, alg in spec:
        congs = clock.phase(sweeps.congruences, alg)
        pairs = []
        for (i, R), (j, S) in itertools.product(enumerate(congs), repeat=2):
            def decide(R=R, S=S):
                theta = commutators.smith(alg, R, S)
                binary = commutators.higgins_binary(
                    alg, commutators.normalise(R), commutators.normalise(S))
                return theta.block_id, binary.members
            got = clock.instance(decide)
            pairs.append((i, j) + (got or (None, None)))
        outs.append({"congs": [c.block_id for c in congs], "pairs": pairs})
    return outs


def smith_check(spec, outs, seed: int) -> None:
    for (kind, alg), out in zip(spec, outs, strict=True):
        checks.check_smith_carrier(alg, kind, out)


# ---------------------------------------------------------------------------
# ternary-words


def local_table(alg, members) -> tuple:
    """The multiplication table of a subgroup on its members in index
    order: the table the program's word cache is keyed by."""
    members = sorted(members)
    local = {m: i for i, m in enumerate(members)}
    mul = alg.tables["mul"]
    return tuple(local[int(mul[a, b])] for a in members for b in members)


def word_keys(algs) -> set:
    """The word-cache keys of every subgroup triple of the groups."""
    keys = set()
    for alg in algs:
        tables = [local_table(alg, sub)
                  for sub in checks.group_of(alg).subgroups()]
        keys.update(itertools.product(tables, repeat=3))
    return keys


def search_orders(keys) -> collections.Counter:
    """How many distinct word searches the keys need, by factor orders."""
    return collections.Counter(tuple(round(len(t) ** 0.5) for t in key)
                               for key in keys)


def ternary_inputs(lib, seed: int, nilpotent=NILPOTENT, strata=SAMPLE_STRATA):
    """The groups of part A and the sampled triples of a seed.

    A relabelling can merge or split the local tables of the subgroups
    (Q8 has 4, 5 or 6 distinct tables of order 4 under about a third of
    the relabellings) and so change the number of word searches.  So D4
    and Q8 are relabelled by the first seeded draw that needs the searches
    of the catalogue tables, and each sampled triple is drawn until its
    key is new, so that its search is cold: every seed gives the same
    searches, by factor orders."""
    rng = random.Random(seed)
    want = search_orders(word_keys(lib.algebra(key) for key in nilpotent))
    while True:
        part_a = [relabel(lib.algebra(key), rng) for key in nilpotent]
        keys = word_keys(part_a)
        if search_orders(keys) == want:
            break
    groups = [relabel(lib.algebra(key), rng) for key in SAMPLE_GROUPS]
    by_order = {alg: {} for alg in groups}
    for alg in groups:
        for sub in checks.group_of(alg).subgroups():
            by_order[alg].setdefault(len(sub), []).append(tuple(sorted(sub)))
    for alg in groups:
        for subs in by_order[alg].values():
            subs.sort()
    sample = []
    for order, profiles in strata.items():
        for profile in profiles:
            fit = [alg for alg in groups if alg.size == order
                   and all(o in by_order[alg] for o in profile)]
            while True:
                alg = rng.choice(fit)
                subs = [rng.choice(by_order[alg][o]) for o in profile]
                key = tuple(local_table(alg, sub) for sub in subs)
                if key not in keys:
                    break
            keys.add(key)
            sample.append((alg, tuple(core.Subuniverse(alg, sub)
                                      for sub in subs)))
    return {"nilpotent": part_a, "sample": sample}


def ternary_run(spec, clock: Clock, lib) -> dict:
    ternary = commutators.higgins_ternary
    part_a = []
    for alg in spec["nilpotent"]:
        subs = clock.phase(sweeps.subgroups, alg)
        triples = []
        for (i, K), (j, L), (k, M) in itertools.product(enumerate(subs),
                                                        repeat=3):
            def decide(K=K, L=L, M=M):
                fast = ternary(alg, K, L, M, "group-fast")
                oracle = ternary(alg, K, L, M, "word-oracle",
                                 word_bound=WORD_BOUND)
                return fast.result.members, oracle.result.members
            got = clock.instance(decide)
            triples.append((i, j, k) + (got or (None, None)))
        part_a.append({"subs": [s.members for s in subs],
                       "triples": triples})
    sample = []
    for alg, (K, L, M) in spec["sample"]:
        def decide(alg=alg, K=K, L=L, M=M):
            fast = ternary(alg, K, L, M, "group-fast")
            oracle = ternary(alg, K, L, M, "word-oracle",
                             word_bound=WORD_BOUND)
            binary = commutators.higgins_binary
            left = binary(alg, K, sweeps.join_subs(alg, L, M))
            kl, km = binary(alg, K, L), binary(alg, K, M)
            right = sweeps.join_subs(alg, kl, km, fast.result)
            return {"fast": fast.result, "oracle": oracle.result,
                    "left": left, "kl": kl, "km": km, "right": right,
                    "holds": left.members == right.members
                    and oracle.result.issubset(fast.result)}
        got = clock.instance(decide)
        sample.append(None if got is None else
                      {k: v if k == "holds" else _members(v)
                       for k, v in got.items()})
    return {"nilpotent": part_a, "sample": sample}


def word_records(buf):
    """Start offsets of the records in a kernel-word record buffer."""
    starts = []
    pos = 0
    data = buf.tolist()
    while pos < len(data):
        starts.append(pos)
        pos += 1 + 2 * data[pos]
    return starts


def sampled_words(kernel_words, subs, rng: random.Random) -> list:
    """A few kernel words of a triple, as (factor, parent element)
    syllables, read from the search's record buffer."""
    buf = kernel_words(subs, WORD_BOUND)
    starts = word_records(buf)
    picked = rng.sample(starts, min(WORDS_CHECKED, len(starts)))
    out = []
    for pos in picked:
        rec = buf[pos + 1: pos + 1 + 2 * int(buf[pos])].reshape(-1, 2)
        out.append([(int(f), subs[f].members[x]) for f, x in rec])
    return out


def ternary_check(spec, outs, seed: int) -> None:
    # the buffers are still in the program's word cache, so this is no
    # second search; it runs after the timed region
    from commwb._kernel_search import ternary_kernel_words
    for alg, out in zip(spec["nilpotent"], outs["nilpotent"], strict=True):
        checks.check_nilpotent_triples(alg, out)
    rng = random.Random(seed)
    for (alg, subs), out in zip(spec["sample"], outs["sample"], strict=True):
        if out is None:
            continue
        checks.expect(out["holds"], f"{alg.name}: the program reports the"
                      " join formula or oracle containment failing")
        out = dict(out, words=sampled_words(ternary_kernel_words, subs, rng))
        checks.check_sampled_triple(alg, *(s.members for s in subs), out)


# ---------------------------------------------------------------------------
# weighted-cospans


def cospan_inputs(lib, seed: int, groups=COSPAN_GROUPS):
    rng = random.Random(seed)
    return {"groups": [relabel(lib.algebra(key), rng) for key in groups],
            "diagrams": [lib.diagrams[k] for k in sorted(lib.diagrams)]}


def cospan_run(spec, clock: Clock, lib) -> dict:
    prof = lib.profiles["groups"]
    commute_over = commutators.commute_over
    carriers = []
    for alg in spec["groups"]:
        cyc = clock.phase(sweeps.cyclic_subgroups, alg)

        def properness(alg=alg, cyc=cyc):
            incl = [c.inclusion_hom() for c in cyc]
            return incl, [[commutators.is_w_normal(alg, X, w) for X in cyc]
                          for w in incl]
        incl, proper = clock.phase(properness)
        cospans = []
        for x, y, w in itertools.product(range(len(cyc)), repeat=3):
            if not (proper[w][x] and proper[w][y]):
                continue

            def decide(x=x, y=y, w=w):
                c = commutators.WeightedCospan(x=incl[x], y=incl[y],
                                               w=incl[w])
                v1, _ = commute_over(c, "proper-commutators")
                v2, _ = commute_over(c, "ssh-kernel", profile=prof)
                return v1, v2
            got = clock.instance(decide)
            cospans.append((x, y, w) + (got or (None, None)))
        carriers.append({"cyc": [c.members for c in cyc],
                         "proper": [(w, x) for w, row in enumerate(proper)
                                    for x, ok in enumerate(row) if ok],
                         "cospans": cospans})
    diagrams = []
    for d in spec["diagrams"]:
        v = clock.instance(conditions.check_ssh_instance, d)
        diagrams.append(None if v is None else
                        {"hypothesis": v.hypothesis_holds,
                         "conclusion": v.conclusion_holds,
                         "satisfies": v.instance_satisfies})
    paper = clock.instance(conditions.run_paper_examples, "all")
    return {"carriers": carriers, "diagrams": diagrams, "paper": paper}


def cospan_check(spec, outs, seed: int) -> None:
    for alg, out in zip(spec["groups"], outs["carriers"], strict=True):
        checks.check_cospan_carrier(alg, out)
    for d, out in zip(spec["diagrams"], outs["diagrams"], strict=True):
        if out is not None:
            checks.check_diagram(d, out)
    if outs["paper"] is not None:
        checks.check_paper_examples(outs["paper"])


WORKLOADS = {
    "smith-lattice": (smith_inputs, smith_run, smith_check),
    "ternary-words": (ternary_inputs, ternary_run, ternary_check),
    "weighted-cospans": (cospan_inputs, cospan_run, cospan_check),
}
