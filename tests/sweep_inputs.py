"""Catalogue selections for the sweep tests: which algebras, which triples.

The test suites sweep the bundled catalogue by variety profile, draw
reproducible subgroup triples from it, and build fill-in diagrams from
pairs of its subalgebras.  Both selections are fixed by their
arguments alone (the sampler by an explicit seed), so sweep outcomes are
stable across runs.  The package does not use them.
"""

from __future__ import annotations

import itertools
import random

from commwb.conditions import AdmissibleDiagram
from commwb.core import (FinAlgebra, Subuniverse, check_hom,
                         generate_subuniverse, zero_hom)
from commwb.sweeps import subgroups
from commwb.varieties import chain_hslat


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


FILL_IN_CARRIERS = ("S3", "D4", "Q8", "A4", "Dic3",
                    "chain3", "chain4", "diamond", "chain2xchain3")


def fill_in_diagrams(library, key: str):
    """Every ordered pair (K, L) of subalgebras of the catalogue carrier
    ``key``, as a fill-in diagram over the one-element algebra of its
    profile (Z1, or the one-element chain): A = K and C = L split over it,
    alpha and gamma their inclusions.  Groups take their subgroups;
    other carriers the subalgebra generated by each subset of elements.
    Both are sorted by size then members."""
    alg = library.algebra(key)
    if library.algebra_profile[key] == "groups":
        base, subs = library.algebra("Z1"), subgroups(alg)
    else:
        base = chain_hslat(1)
        found = {generate_subuniverse(alg, gens).members: None
                 for size in range(alg.size + 1)
                 for gens in itertools.combinations(range(alg.size), size)}
        subs = [Subuniverse(alg, m) for m in sorted(
            found, key=lambda m: (len(m), m))]
    legs = [(sub.as_algebra(), sub.members) for sub in subs]
    for (a, ka), (c, kc) in itertools.product(legs, repeat=2):
        yield AdmissibleDiagram(
            f=zero_hom(a, base), r=zero_hom(base, a),
            g=zero_hom(c, base), s=zero_hom(base, c),
            alpha=check_hom(a, alg, ka), beta=zero_hom(base, alg),
            gamma=check_hom(c, alg, kc), name=f"{key}:{ka}:{kc}")
