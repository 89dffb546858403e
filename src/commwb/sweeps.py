"""Exhaustive enumeration over small finite algebras.

Batch verification sweeps need two kinds of raw material: every subgroup
of a small group and every congruence of a small algebra.  This module
produces both deterministically — results come back in a canonical order —
so sweep outcomes are stable across runs.

Enumeration strategy: both lattices are the joins of their generators,
found in one pass (``_joins``).  After each generator, the pass holds the
join of every set of the generators seen so far, so a new generator is
joined once with each member above the bottom, and one already held adds
nothing.  Cost: the generators, plus at most (generators) x (lattice size)
joins.

* subgroups: the joins of the cyclic subgroups.
* congruences: the joins of the principal congruences (Burris–
  Sankappanavar, *A Course in Universal Algebra*, ch. II §5).  On a group,
  Cg(a, b) = Cg(e, a⁻¹b), and on a Heyting semilattice Cg(a, b) =
  Cg(top, (a→b)∧(b→a)), so the n - 1 pairs with the basepoint give every
  principal congruence; elsewhere all n(n - 1)/2 pairs are tried.

Both are intended for carriers of a few dozen elements at most; nothing
here tries to be clever beyond that scale.
"""

from __future__ import annotations

import itertools

from .core import (Congruence, FinAlgebra, Subuniverse, ValidationError,
                   _group_tables, _heyting_tables, _require_group,
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
                   lambda s, t: join_subs(algebra, s, t),
                   lambda s: s.members)
    return tuple(sorted(found, key=lambda s: (len(s.members), s.members)))


def cyclic_subgroups(algebra: FinAlgebra) -> tuple[Subuniverse, ...]:
    """Groups only: the subgroups generated by one element, and {e}."""
    _require_group(algebra, "cyclic subgroup enumeration")
    found: dict[tuple[int, ...], Subuniverse] = {}
    for g in range(algebra.size):
        sub = generate_subuniverse(algebra, [g])
        found.setdefault(sub.members, sub)
    return tuple(sorted(found.values(),
                        key=lambda s: (len(s.members), s.members)))


def congruences(algebra: FinAlgebra) -> tuple[Congruence, ...]:
    """The whole congruence lattice, as the joins of principal members,
    sorted by canonical block-id tuple: the total congruence first, the
    diagonal last."""
    pairs = itertools.combinations(range(algebra.size), 2)
    if _group_tables(algebra) is not None \
            or _heyting_tables(algebra) is not None:
        # a ~ b exactly when e ~ a⁻¹b, so Cg(a, b) = Cg(e, a⁻¹b); on a
        # Heyting semilattice Cg(a, b) = Cg(top, (a→b)∧(b→a)), and every x
        # is (x→top)∧(top→x)
        e = algebra.basepoint
        pairs = ((e, g) for g in range(algebra.size) if g != e)
    found = _joins(
        generate_congruence(algebra, []),
        (generate_congruence(algebra, [p]) for p in pairs),
        lambda s, t: generate_congruence(
            algebra, s.spanning_pairs() + t.spanning_pairs()),
        lambda t: t.block_id)
    return tuple(sorted(found, key=lambda t: t.block_id))
