"""Exhaustive enumeration over small finite algebras.

Batch verification sweeps need two kinds of raw material: every subgroup
of a small group and every congruence of a small algebra.  This module
produces both deterministically — results come back in a canonical order —
so sweep outcomes are stable across runs.

Enumeration strategy:

* subgroups: breadth-first closure growth.  Starting from the trivial
  subgroup, repeatedly extend each known subgroup by one outside element
  and close; every subgroup is finitely generated, so every subgroup is
  reached.  Cost is (number of subgroups) x (carrier size) closure calls.
* congruences: every congruence is a join of principal congruences, so
  generating the principal ones and closing under pairwise join yields the
  whole congruence lattice.

Both are intended for carriers of a few dozen elements at most; nothing
here tries to be clever beyond that scale.
"""

from __future__ import annotations

import itertools

from .commutators import _require_group_signature
from .core import (Congruence, FinAlgebra, Subuniverse, ValidationError,
                   generate_congruence, generate_subuniverse)

__all__ = [
    "subgroups",
    "cyclic_subgroups",
    "congruences",
    "join_subs",
]


def join_subs(algebra: FinAlgebra, *subs: Subuniverse) -> Subuniverse:
    """Smallest subuniverse containing every listed subuniverse."""
    seeds: list[int] = []
    for sub in subs:
        if sub.parent is not algebra:
            raise ValidationError(
                "join_subs: subuniverse of a different parent")
        seeds.extend(sub.members)
    return generate_subuniverse(algebra, seeds)


def subgroups(algebra: FinAlgebra) -> tuple[Subuniverse, ...]:
    """Every subgroup of a finite group, sorted by size then members."""
    _require_group_signature(algebra, "subgroup enumeration")
    trivial = generate_subuniverse(algebra, [])
    found: dict[tuple[int, ...], Subuniverse] = {trivial.members: trivial}
    frontier = [trivial]
    while frontier:
        sub = frontier.pop()
        inside = set(sub.members)
        for g in range(algebra.size):
            if g in inside:
                continue
            bigger = generate_subuniverse(algebra, sub.members + (g,))
            if bigger.members not in found:
                found[bigger.members] = bigger
                frontier.append(bigger)
    return tuple(sorted(found.values(),
                        key=lambda s: (len(s.members), s.members)))


def cyclic_subgroups(algebra: FinAlgebra) -> tuple[Subuniverse, ...]:
    """Subgroups generated by a single element, trivial one included."""
    _require_group_signature(algebra, "cyclic subgroup enumeration")
    found: dict[tuple[int, ...], Subuniverse] = {}
    for g in range(algebra.size):
        sub = generate_subuniverse(algebra, [g])
        found.setdefault(sub.members, sub)
    return tuple(sorted(found.values(),
                        key=lambda s: (len(s.members), s.members)))


def congruences(algebra: FinAlgebra) -> tuple[Congruence, ...]:
    """The whole congruence lattice, as join-closure of principal members.

    Returns the diagonal first, then every other congruence sorted by its
    canonical block-id tuple.
    """
    found: dict[tuple[int, ...], Congruence] = {}

    def admit(theta: Congruence) -> bool:
        if theta.block_id in found:
            return False
        found[theta.block_id] = theta
        return True

    admit(generate_congruence(algebra, []))
    fresh = []
    for a, b in itertools.combinations(range(algebra.size), 2):
        theta = generate_congruence(algebra, [(a, b)])
        if admit(theta):
            fresh.append(theta)
    # join-close: span both partitions at once and regenerate
    while fresh:
        batch, fresh = fresh, []
        for theta in batch:
            for other in list(found.values()):
                pairs = [(i, r) for i, r in enumerate(theta.block_id)]
                pairs += [(i, r) for i, r in enumerate(other.block_id)]
                joined = generate_congruence(algebra, pairs)
                if admit(joined):
                    fresh.append(joined)
    return tuple(sorted(found.values(), key=lambda t: t.block_id))
