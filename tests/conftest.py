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

from commwb import _kernel_search as kernel_search, core
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


@pytest.fixture(autouse=True)
def empty_closure_memo():
    """Each test starts with no closures remembered, so that the order of
    the tests cannot hide a fault of a cold closure."""
    core._MEMO.clear()


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
