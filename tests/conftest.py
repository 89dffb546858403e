"""Shared fixtures and independent brute-force oracles.

The oracles recompute, by definition-chasing, quantities the library
computes by faster closure algorithms; tests compare the two routes on
small carriers.  Oracles stay deliberately naive — triple loops over raw
tables — so they cannot share a bug with the code under test.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from commwb import _kernel_search as kernel_search, commutators, core
from commwb.commutators import (_WITNESS_CAP, CommutatorReport,
                                _double_bracket_grid)
from commwb.core import Subuniverse, _sorted_distinct, generate_subuniverse
from commwb.varieties import builtin_library

# Per-criterion verdict lines queued by tests/test_acceptance.py; the
# terminal-summary hook below replays them after the run so they are not
# lost to output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def lib():
    return builtin_library()


def clear_memos() -> None:
    """Forget every closure and every group commutator remembered."""
    core._MEMO.clear()
    commutators._COMMUTATORS.clear()


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts with no closures and no group commutators
    remembered, so that the order of the tests cannot hide a fault of a
    cold computation."""
    clear_memos()


@pytest.fixture
def empty_word_cache(monkeypatch):
    """An empty word cache with the module's limit and charge, for one
    test; the module's own cache, warm, comes back after it."""
    cache = kernel_search._WORD_CACHE
    fresh = core._Cache(cache.limit, cache.cost)
    monkeypatch.setattr(kernel_search, "_WORD_CACHE", fresh)
    return fresh


# ---------------------------------------------------------------------------
# oracle: all congruences by filtering every partition (Bell-number search)


def brute_congruences(alg) -> list[tuple[int, ...]]:
    """Canonical block-id tuples of every congruence, for tiny carriers."""
    n = alg.size

    def assignments(prefix, mx):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(mx + 2):
            yield from assignments(prefix + [b], max(mx, b))

    found = set()
    for assign in assignments([0], 0):
        if _compatible(alg, assign):
            first: dict[int, int] = {}
            canon = []
            for i, b in enumerate(assign):
                first.setdefault(b, i)
                canon.append(first[b])
            found.add(tuple(canon))
    return sorted(found)


def _compatible(alg, assign) -> bool:
    n = alg.size
    for op, k in alg.signature.ops:
        if k == 0:
            continue
        t = alg.tables[op]
        for args in itertools.product(range(n), repeat=k):
            v = int(t[args])
            for pos in range(k):
                for y in range(n):
                    if assign[args[pos]] != assign[y]:
                        continue
                    other = list(args)
                    other[pos] = y
                    if assign[int(t[tuple(other)])] != assign[v]:
                        return False
    return True


# ---------------------------------------------------------------------------
# reference: the lattice enumerations ``sweeps`` used before its join pass


def reference_subgroups(alg) -> list[tuple[int, ...]]:
    """Members of every subgroup, by breadth-first growth: extend each
    subgroup found by one outside element and close, until nothing is new.
    Sorted by size then members, as ``sweeps.subgroups``."""
    trivial = core.generate_subuniverse(alg, []).members
    found, frontier = {trivial}, [trivial]
    while frontier:
        members = frontier.pop()
        for g in sorted(set(range(alg.size)) - set(members)):
            bigger = core.generate_subuniverse(alg, members + (g,)).members
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda m: (len(m), m))


def reference_congruences(alg) -> list[tuple[int, ...]]:
    """Block ids of every congruence, by join-closure: the principal
    congruences (on a group, those of the pairs (e, g)), then, batch by
    batch, each new one regenerated together with every one found until a
    batch finds nothing.  Sorted, as ``sweeps.congruences``."""
    def generate(pairs):
        return core.generate_congruence(alg, pairs).block_id

    pairs = itertools.combinations(range(alg.size), 2)
    if core._group_tables(alg) is not None:
        e = alg.basepoint
        pairs = ((e, g) for g in range(alg.size) if g != e)
    found = {generate([])}
    fresh = {generate([p]) for p in pairs} - found
    while fresh:
        found |= fresh
        fresh = {generate([*enumerate(a), *enumerate(b)])
                 for a in fresh for b in found} - found
    return sorted(found)


# ---------------------------------------------------------------------------
# oracle: subgroup machinery by raw table chasing


def brute_generated_subgroup(alg, gens) -> tuple[int, ...]:
    mul, inv = alg.tables["mul"], alg.tables["inv"]
    members = {alg.basepoint} | set(gens)
    while True:
        new = {int(mul[a, b]) for a in members for b in members}
        new |= {int(inv[a]) for a in members}
        if new <= members:
            return tuple(sorted(members))
        members |= new


def brute_binary_commutator(alg, k_members, l_members) -> tuple[int, ...]:
    """Subgroup generated by all commutators k^-1 l^-1 k l."""
    mul, inv = alg.tables["mul"], alg.tables["inv"]
    gens = set()
    for a in k_members:
        for b in l_members:
            gens.add(int(mul[mul[inv[a], inv[b]], mul[a, b]]))
    return brute_generated_subgroup(alg, gens)


def brute_normal_closure(alg, seed_members) -> tuple[int, ...]:
    mul, inv = alg.tables["mul"], alg.tables["inv"]
    seeds = set(seed_members)
    while True:
        conj = {int(mul[mul[g, x], inv[g]])
                for g in range(alg.size) for x in seeds}
        grown = set(brute_generated_subgroup(alg, seeds | conj))
        if grown == seeds:
            return tuple(sorted(grown))
        seeds = grown


# ---------------------------------------------------------------------------
# reference: group-fast with its three grids built on every triple


def reference_group_fast(D, mul, inv, K, L, M) -> CommutatorReport:
    """``higgins_ternary(D, K, L, M, "group-fast")`` as it was before the
    trivial answer was read off the memo of [K, L]: the normal closure, in
    the join of K, L and M, of the three double-bracket grids.  When every
    double bracket is the identity the closure is trivial, and it is
    answered before the join is built."""
    Km = np.asarray(K.members, dtype=np.int64)
    Lm = np.asarray(L.members, dtype=np.int64)
    Mm = np.asarray(M.members, dtype=np.int64)
    bp = D.basepoint
    shapes = ((Km, Lm, Mm, "[[K,L],M]"), (Lm, Mm, Km, "[[L,M],K]"),
              (Mm, Km, Lm, "[[M,K],L]"))
    grids = [_double_bracket_grid(mul, inv, A, B, C) for A, B, C, _ in shapes]
    if all((grid == bp).all() for grid in grids):
        return CommutatorReport(Subuniverse._trusted(D, (bp,)), "group-fast",
                                complete=True)
    join = generate_subuniverse(
        D, set(K.members) | set(L.members) | set(M.members))
    seeds: set[int] = {bp}
    witnesses = []
    for (A, B, C, shape), grid in zip(shapes, grids):
        seeds.update(_sorted_distinct(grid.ravel()).tolist())
        if len(witnesses) < _WITNESS_CAP:
            for ia, ib, ic in np.argwhere(grid != bp)[:_WITNESS_CAP]:
                if len(witnesses) >= _WITNESS_CAP:
                    break
                witnesses.append(
                    ("bracket", shape,
                     (int(A[ia]), int(B[ib]), int(C[ic])),
                     int(grid[ia, ib, ic])))
    # the normal closure of the seeds in the join: the subgroup generated
    # by their conjugates j·s·j⁻¹ over every j in the join
    j, s = np.asarray(join.members), np.asarray(sorted(seeds))
    result = generate_subuniverse(D, _sorted_distinct(
        mul[mul[j[:, None], s[None, :]], inv[j][:, None]].ravel()))
    return CommutatorReport(result, "group-fast", complete=True,
                            witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# oracle: a subalgebra of a product by naive fixpoint iteration


def naive_closure(factors, seeds) -> np.ndarray:
    """Rows of the subalgebra of factors[0] x ... x factors[-1] generated
    by ``seeds`` and the constants, in lexicographic order.

    Every round applies every operation to every tuple of the rows found
    so far, one coordinate at a time on that factor's own table, until a
    round adds no row: no split of new and older rows, and no stop before
    a round finds nothing, even on a full product.
    """
    sig, m = factors[0].signature.ops, len(factors)
    sizes = [a.size for a in factors]
    rows = np.asarray([tuple(s) for s in seeds]
                      + [[int(a.tables[op][()]) for a in factors]
                         for op, k in sig if k == 0],
                      dtype=np.int64).reshape(-1, m)
    rows = np.unique(rows, axis=0)
    while True:
        values = [rows]
        for op, k in sig:
            if k:
                # argument p runs along axis p of a grid over the rows
                values.append(np.stack([
                    factors[j].tables[op][tuple(
                        rows[:, j].reshape((-1,) + (1,) * (k - 1 - p))
                        for p in range(k))].ravel()
                    for j in range(m)], axis=1))
        codes = np.unique(np.ravel_multi_index(
            np.concatenate(values).T, sizes))
        if len(codes) == len(rows):
            return rows
        rows = np.stack(np.unravel_index(codes, sizes), axis=1)


# ---------------------------------------------------------------------------
# reference: the fill-in search replayed pair by pair


def reference_fill_in(d):
    """What ``conditions.admissible`` decides, replayed in plain Python:
    ``("conflict", element, values, derivations, involved)`` for the first
    pair that gives a pullback element a second value, else ``("phi",
    map)``, or None if the map is partial.  Round 0 settles the seeds, then
    the constants; each later round applies each operation, in signature
    order, to the tuples of the pairs known at the round's start, in
    ``itertools.product`` order, settling each result as it comes.
    """
    square = core.pullback(d.f, d.g, d.r, d.s)
    P, D = square.carrier, d.target
    value, how = {}, {}

    def settle(p, v, der):
        if p not in value:
            value[p], how[p] = v, der
        elif value[p] != v:
            ders = (how[p], der)
            involved = {p}.union(*((q for q, _ in args) for op, args in ders
                                   if op not in ("seed-e1", "seed-e2")))
            return "conflict", p, (value[p], v), ders, tuple(sorted(involved))

    legs = ((square.induced["e1"], d.alpha, "seed-e1"),
            (square.induced["e2"], d.gamma, "seed-e2"))
    start = [(int(e.map[x]), int(leg.map[x]), (tag, x))
             for e, leg, tag in legs for x in range(e.dom.size)]
    start += [(int(P.tables[op][()]), int(D.tables[op][()]), (op, ()))
              for op, k in P.signature.ops if k == 0]
    for pair in start:
        if conflict := settle(*pair):
            return conflict
    known = []
    while len(value) > len(known):
        known = sorted(value.items())
        for op, k in P.signature.ops:
            for args in itertools.product(known, repeat=k) if k else ():
                p = int(P.tables[op][tuple(q for q, _ in args)])
                v = int(D.tables[op][tuple(w for _, w in args)])
                if conflict := settle(p, v, (op, args)):
                    return conflict
    return ("phi", [value[p] for p in range(P.size)]) \
        if len(value) == P.size else None


# ---------------------------------------------------------------------------
# helpers shared across modules


def meet_congruence_blocks(t1, t2) -> tuple[int, ...]:
    """Canonical block ids of the common refinement of two congruences."""
    keys: dict[tuple[int, int], int] = {}
    out = []
    for i, (x, y) in enumerate(zip(t1.block_id, t2.block_id)):
        out.append(keys.setdefault((x, y), i))
    return tuple(out)


def is_diagonal(theta) -> bool:
    return len(set(theta.block_id)) == theta.parent.size
