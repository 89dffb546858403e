"""Exhaustive enumeration over small finite algebras.

Batch verification sweeps need two kinds of raw material: every subgroup
of a small group and every congruence of a small algebra.  This module
produces both deterministically — results come back in a canonical order —
so sweep outcomes are stable across runs.

Enumeration strategy: a lattice is the joins of its generators, found in
one pass (``_joins``).  After each generator, the pass holds the join of
every set of the generators seen so far, so a new generator is joined once
with each member above the bottom, and one already held adds nothing.
Cost: the generators, plus at most (generators) x (lattice size) joins.

* subgroups: the joins of the cyclic subgroups, read off powers.
* congruences: on a group, the cosets (``core._cosets``) of the normal
  subgroups (Burris–Sankappanavar, *A Course in Universal Algebra*, ch. II
  §5): the product sets N·M of normal closures of cyclic subgroups, one
  per conjugacy class, as conjugates have one normal closure.  On a
  Heyting semilattice, congruences match filters (Nemitz, *Implicative
  semi-lattices*, Trans. AMS 117, 1965), each ↑a when finite, with x ~ y
  iff x∧a = y∧a: one per meet column.  Elsewhere, the principal ones.

Both are intended for carriers of a few dozen elements at most; nothing
here tries to be clever beyond that scale.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (Congruence, FinAlgebra, Subuniverse, ValidationError,
                   _cosets, _group_tables, _heyting_tables, _require_group,
                   _sorted_distinct, generate_congruence, generate_subuniverse)

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


def _joins(bottom, gens, join, key):
    """The joins of every set of ``gens``, ``bottom`` the empty join, with
    distinct ``key``.  After each generator g, ``found`` holds the join of
    every set of the generators seen so far: a g already there is such a
    join and adds nothing, and the join of ``bottom`` with g is g."""
    found = {key(bottom): bottom}
    for g in gens:
        if key(g) not in found:
            for x in [g] + [join(x, g) for x in list(found.values())[1:]]:
                found.setdefault(key(x), x)
    return found.values()


def subgroups(algebra: FinAlgebra) -> tuple[Subuniverse, ...]:
    """Every subgroup of a finite group, as a join of cyclic subgroups,
    sorted by size then members; an algebra that fails the check of
    ``core._group_tables`` is refused."""
    _require_group(algebra, "subgroup enumeration")
    found = _joins(generate_subuniverse(algebra, []),
                   cyclic_subgroups(algebra),
                   lambda s, t: join_subs(algebra, s, t), lambda s: s.members)
    return tuple(sorted(found, key=lambda s: (len(s.members), s.members)))


def _cyclic(algebra: FinAlgebra, mul: np.ndarray):
    """``inside[g, x]``: x is one of g^1 ... g^n, which are <g> as g has
    order at most n; ``least[g]``: the least generator of <g>."""
    x = np.arange(algebra.size)
    inside, power = np.zeros((x.size, x.size), dtype=bool), x
    for _ in x:
        inside[x, power] = True
        power = mul[power, x]
    return inside, (inside & inside.T).argmax(axis=1)


def cyclic_subgroups(algebra: FinAlgebra) -> tuple[Subuniverse, ...]:
    """Groups only: every subgroup generated by one element, no closure."""
    mul, _ = _require_group(algebra, "cyclic subgroup enumeration")
    inside, least = _cyclic(algebra, mul)
    subs = [Subuniverse._trusted(algebra, tuple(np.flatnonzero(row).tolist()))
            for row in inside[least == np.arange(algebra.size)]]
    return tuple(sorted(subs, key=lambda s: (len(s.members), s.members)))


def congruences(algebra: FinAlgebra) -> tuple[Congruence, ...]:
    """The whole congruence lattice, sorted by canonical block-id tuple:
    the total congruence first, the diagonal last; routes as above."""
    if (group := _group_tables(algebra)) is not None:
        mul, inv = group
        y = np.arange(algebra.size)
        conj = mul[mul[y[:, None], y], inv[:, None]]  # [y, g]: y g y⁻¹
        # named: g is the least of the least generators of all <y g y⁻¹>
        named = _cyclic(algebra, mul)[1][conj].min(axis=0) == y
        normal = _joins(
            Subuniverse._trusted(algebra, (algebra.basepoint,)),
            (generate_subuniverse(algebra, conj[:, g])
             for g in np.flatnonzero(named) if g != algebra.basepoint),
            lambda N, M: Subuniverse._trusted(algebra, tuple(_sorted_distinct(
                mul[np.ix_(N.members, M.members)].ravel()).tolist())),
            lambda N: N.members)
        found = [_cosets(algebra, mul, N) for N in normal]
    elif (heyting := _heyting_tables(algebra)) is not None:
        meet = heyting[0]  # row a below: per x, the least y with y∧a = x∧a
        least = (meet[:, None] == meet).argmax(axis=0).T.tolist()
        found = [Congruence._trusted(algebra, tuple(c)) for c in least]
    else:
        found = _joins(
            generate_congruence(algebra, []),
            (generate_congruence(algebra, [p])
             for p in itertools.combinations(range(algebra.size), 2)),
            lambda s, t: generate_congruence(
                algebra, s.spanning_pairs() + t.spanning_pairs()),
            lambda t: t.block_id)
    return tuple(sorted(found, key=lambda t: t.block_id))
