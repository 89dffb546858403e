"""Catalogue selections for the sweep tests: which algebras, which triples.

The test suites sweep the bundled catalogue by variety profile and draw
reproducible subgroup triples from it.  Both selections are fixed by their
arguments alone (the sampler by an explicit seed), so sweep outcomes are
stable across runs.  The package does not use them.
"""

from __future__ import annotations

import random

from commwb.core import FinAlgebra, Subuniverse
from commwb.sweeps import subgroups


def library_algebras(library, profile: str,
                     max_size: int | None = None) -> list[tuple[str, FinAlgebra]]:
    """Catalogue entries carrying the given profile, small ones only.

    Alias keys (containing ``/``) are skipped so each carrier appears once.
    Sorted by size then key for reproducible sweep order.
    """
    picked = []
    for key in sorted(library.algebras):
        if "/" in key:
            continue
        if library.algebra_profile.get(key) != profile:
            continue
        alg = library.algebras[key]
        if max_size is not None and alg.size > max_size:
            continue
        picked.append((key, alg))
    picked.sort(key=lambda kv: (kv[1].size, kv[0]))
    return picked


def sample_subgroup_triples(entries: list[tuple[str, FinAlgebra]],
                            count: int, seed: int):
    """Stratified triples: uniform group, then three uniform subgroups.

    Yields ``(key, algebra, K, L, M)`` tuples, ``count`` of them, fully
    determined by ``seed``.  Subgroup inventories are computed once per
    group and cached for the duration of the call.
    """
    rng = random.Random(seed)
    inventory: dict[str, tuple[Subuniverse, ...]] = {}
    out = []
    for _ in range(count):
        key, alg = rng.choice(entries)
        if key not in inventory:
            inventory[key] = subgroups(alg)
        subs = inventory[key]
        k, l, m = (rng.choice(subs) for _ in range(3))
        out.append((key, alg, k, l, m))
    return out
