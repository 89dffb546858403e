"""Subgroup/congruence enumeration sweeps and the triple sampler."""

import os
import subprocess
import sys

import numpy as np
import pytest

from commwb import sweeps
from commwb.core import (FinAlgebra, Signature, ValidationError,
                         _group_tables, _heyting_tables, generate_subuniverse)
from commwb.sweeps import (congruences, cyclic_subgroups, join_subs,
                           subgroups)
from commwb.varieties import (builtin_library, cyclic_group, dihedral_group,
                              symmetric_group)
from conftest import (brute_congruences, brute_generated_subgroup,
                      reference_congruences, reference_subgroups)
from sweep_inputs import library_algebras, sample_subgroup_triples
from test_core import _relabel

_LIBRARY = builtin_library()
CARRIERS = sorted(key for key in _LIBRARY.algebras if "/" not in key)
GROUPS = [key for key in CARRIERS
          if _LIBRARY.algebra_profile[key] == "groups"]


def test_subgroup_counts_on_small_groups(lib):
    counts = {
        symmetric_group(3): 6,
        cyclic_group(12): 6,
        dihedral_group(4): 10,
        lib.algebra("Q8"): 6,
        dihedral_group(6): 16,
        dihedral_group(8): 19,
        cyclic_group(16): 5,
    }
    for alg, want in counts.items():
        subs = subgroups(alg)
        assert len(subs) == want, alg.name
        # sorted by size then membership, trivial first, whole last
        assert subs[0].members == (alg.basepoint,)
        assert len(subs[-1]) == alg.size
        assert len({s.members for s in subs}) == want


def test_subgroups_of_s3_are_exactly_the_known_six():
    s3 = symmetric_group(3)
    assert [s.members for s in subgroups(s3)] == [
        (0,), (0, 1), (0, 2), (0, 5), (0, 3, 4), (0, 1, 2, 3, 4, 5)]


def test_every_enumerated_subgroup_is_closed_and_none_missing():
    d4 = dihedral_group(4)
    subs = subgroups(d4)
    for s in subs:
        assert generate_subuniverse(d4, s.members).members == s.members
    # closure of every<=2-element generating set appears in the list
    listed = {s.members for s in subs}
    for a in range(8):
        for b in range(8):
            assert generate_subuniverse(d4, (a, b)).members in listed


def test_cyclic_subgroups_are_the_single_generator_closures():
    d4 = dihedral_group(4)
    cyc = cyclic_subgroups(d4)
    assert len(cyc) == 7
    assert {c.members for c in cyc} <= {s.members for s in subgroups(d4)}
    assert len(cyclic_subgroups(cyclic_group(12))) == 6


def test_subgroup_enumeration_needs_a_group_signature(lib):
    with pytest.raises(ValidationError):
        subgroups(lib.algebra("chain3"))


def test_congruence_enumeration_matches_brute_partitions(lib):
    cases = {
        symmetric_group(3): 3,
        cyclic_group(6): 4,
        lib.algebra("chain3"): 3,
        lib.algebra("diamond"): 4,
        cyclic_group(4): 3,
    }
    for alg, want in cases.items():
        got = {theta.block_id for theta in congruences(alg)}
        assert got == set(brute_congruences(alg))
        assert len(got) == want, alg.name


def test_group_congruences_are_the_cosets_of_the_normal_subgroups(
        monkeypatch, lib):
    # the sweep asks no generate_congruence and no join_subs on a group; its
    # only closures are one normal closure per conjugacy class of nontrivial
    # cyclic subgroups (the bottom {e} and the joins N·M take none), and it
    # must still find every normal subgroup's coset partition
    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} on a group")
        return call

    closures = []

    def generate(algebra, gens):
        closures.append([int(x) for x in gens])
        return generate_subuniverse(algebra, gens)

    for key, alg in library_algebras(lib, "groups"):
        mul, inv = alg.tables["mul"], alg.tables["inv"]
        g = np.arange(alg.size)[:, None]
        want = set()
        for N in subgroups(alg):
            m = np.asarray(N.members)
            if set(mul[mul[g, m], inv[g]].ravel().tolist()) <= set(N.members):
                want.add(tuple(mul[:, m].min(axis=1).tolist()))

        def conjugates(x):
            return [int(mul[mul[y, x], inv[y]]) for y in range(alg.size)]

        def cyclic_class(x):
            # the conjugates of <x>, by raw table chasing
            cyc = brute_generated_subgroup(alg, [x])
            return frozenset(
                frozenset(int(mul[mul[y, c], inv[y]]) for c in cyc)
                for y in range(alg.size))

        e = alg.basepoint
        classes = {cyclic_class(x) for x in range(alg.size) if x != e}
        closures.clear()
        with monkeypatch.context() as patch:
            patch.setattr(sweeps, "generate_congruence",
                          refuse("generate_congruence"))
            patch.setattr(sweeps, "join_subs", refuse("join_subs"))
            patch.setattr(sweeps, "generate_subuniverse", generate)
            assert {t.block_id for t in congruences(alg)} == want, key
        named = []
        for gens in closures:
            assert gens and gens == conjugates(gens[e]), key
            named.append(cyclic_class(gens[e]))
        assert len(named) == len(classes) and set(named) == classes, key


def test_heyting_congruences_are_the_filter_congruences(monkeypatch, lib):
    # the sweep generates no congruence, and must still find every
    # congruence x ~ y iff a∧x = a∧y of a principal filter ↑a (Nemitz,
    # Implicative semi-lattices, 1965), one per element a
    def refuse(*args):
        raise AssertionError("generate_congruence on a Heyting semilattice")

    monkeypatch.setattr(sweeps, "generate_congruence", refuse)
    for key, alg in library_algebras(lib, "hslat"):
        meet, _ = _heyting_tables(alg)
        want = {tuple(int(np.argmax(row == v)) for v in row)
                for row in meet}
        got = [t.block_id for t in congruences(alg)]
        assert len(got) == alg.size and set(got) == want, key


def test_a_congruence_sweep_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, 13-27 ms at the first
    # group with a join, more than the rest of the sweep; the product sets
    # N·M take core._sorted_distinct instead
    code = """if True:
        import sys
        from commwb.sweeps import congruences
        from commwb.varieties import builtin_library
        lib = builtin_library()
        keys = [key for key, profile in lib.algebra_profile.items()
                if profile in ("groups", "hslat")]
        found = sum(len(congruences(lib.algebra(key))) for key in keys)
        print(len(keys), found, "numpy.ma" in sys.modules)"""
    src = os.path.dirname(os.path.dirname(sweeps.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["33", "127", "False"]


def _relabellings(alg):
    """``alg`` and three seeded relabellings of it."""
    rng = np.random.default_rng(alg.size)
    return [alg] + [_relabel(alg, rng.permutation(alg.size))
                    for _ in range(3)]


@pytest.mark.parametrize("key", CARRIERS + [
    key for key in sorted(_LIBRARY.algebras) if key.startswith("paper/hslat-")])
def test_congruences_match_the_join_closure_reference(lib, key):
    for alg in _relabellings(lib.algebra(key)):
        assert [t.block_id for t in congruences(alg)] == \
            reference_congruences(alg), key


@pytest.mark.parametrize("key", GROUPS)
def test_cyclic_subgroups_match_the_single_generator_closures(lib, key):
    for alg in _relabellings(lib.algebra(key)):
        want = {generate_subuniverse(alg, [g]).members
                for g in range(alg.size)}
        got = [s.members for s in cyclic_subgroups(alg)]
        assert got == sorted(want, key=lambda m: (len(m), m)), key


@pytest.mark.parametrize("key", GROUPS)
def test_subgroups_match_the_breadth_first_reference(lib, key):
    for alg in _relabellings(lib.algebra(key)):
        assert [s.members for s in subgroups(alg)] == \
            reference_subgroups(alg), key


def _random_algebra(seed):
    """One binary and one unary operation on 3 to 6 elements, drawn over a
    random quotient so that the lattice is seldom just {Δ, ∇}."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    block = np.unique(rng.integers(0, n, n), return_inverse=True)[1]
    count = np.bincount(block)
    start = np.cumsum(count) - count
    members = np.argsort(block, kind="stable")

    def table(k):
        # a random member of the block that a random table on blocks names
        target = rng.integers(0, len(count), (len(count),) * k)[
            np.ix_(*[block] * k)]
        pick = (rng.random(target.shape) * count[target]).astype(np.int64)
        return members[start[target] + pick]

    sig = Signature(ops=(("f", 2), ("u", 1), ("c", 0)), basepoint_op="c")
    return FinAlgebra(sig, n, {"f": table(2), "u": table(1),
                               "c": np.array(int(rng.integers(0, n)))})


@pytest.mark.parametrize("seed", range(24))
def test_congruences_of_random_algebras_match_both_references(seed):
    alg = _random_algebra(seed)
    assert _group_tables(alg) is None and _heyting_tables(alg) is None
    got = [t.block_id for t in congruences(alg)]
    assert got == reference_congruences(alg) == brute_congruences(alg)


def test_random_algebras_have_more_than_two_congruences_often():
    counts = [len(congruences(_random_algebra(seed))) for seed in range(24)]
    assert sum(c > 2 for c in counts) >= 16, counts


# the groups take the subgroup joins, the random algebras, each with more
# than two congruences, the principal-congruence joins
_JOIN_CASES = {**{key: _LIBRARY.algebra(key) for key in ("S3", "D4", "A4")},
               **{f"random{seed}": _random_algebra(seed) for seed in (5, 18)}}


@pytest.mark.parametrize("key", list(_JOIN_CASES))
def test_every_join_combines_two_members_above_the_bottom(monkeypatch, key):
    alg = _JOIN_CASES[key]
    calls = []
    joins = sweeps._joins

    def recording(bottom, gens, join, ident):
        def logged(s, t):
            calls.append((ident(bottom), ident(s), ident(t)))
            return join(s, t)
        return joins(bottom, gens, logged, ident)

    monkeypatch.setattr(sweeps, "_joins", recording)
    assert len(congruences(alg)) > 2
    if _group_tables(alg) is not None:
        subgroups(alg)
    assert calls
    assert all(bottom not in (s, t) and s != t for bottom, s, t in calls)


def test_join_subs_is_the_generated_join():
    s3 = symmetric_group(3)
    a = generate_subuniverse(s3, [2])
    b = generate_subuniverse(s3, [3])
    assert join_subs(s3, a, b).members == (0, 1, 2, 3, 4, 5)
    assert join_subs(s3, a).members == a.members


def test_join_subs_rejects_a_foreign_subuniverse():
    s3, z6 = symmetric_group(3), cyclic_group(6)
    with pytest.raises(ValidationError, match="different parent"):
        join_subs(s3, generate_subuniverse(s3, [2]),
                  generate_subuniverse(z6, [2]))


def test_library_algebras_filters_by_profile_and_size(lib):
    keys = [key for key, _ in library_algebras(lib, "groups", 12)]
    assert keys == ['Z1', 'Z2', 'A3', 'Z3', 'V4', 'Z4', 'Z5', 'S3', 'Z6',
                    'Z7', 'D4', 'Q8', 'Z8', 'Z9', 'D5', 'Z10', 'Z11', 'A4',
                    'D6', 'Dic3', 'Z12']
    bigger = [key for key, _ in library_algebras(lib, "groups", 16)]
    assert bigger == keys + ['D8', 'Z16']
    lats = [key for key, _ in library_algebras(lib, "hslat", 9)]
    assert lats == ['chain2', 'chain3', 'chain4', 'diamond',
                    'chain2xchain3', 'chain3xchain3']
    # aliased spec-pinned keys never show up as sweep entries
    assert all("/" not in key for key in bigger + lats)


def test_sampler_is_deterministic_and_well_typed(lib):
    entries = library_algebras(lib, "groups", 16)
    first = sample_subgroup_triples(entries, 25, seed=7)
    second = sample_subgroup_triples(entries, 25, seed=7)
    assert len(first) == 25
    assert [(key, K.members, L.members, M.members)
            for key, _, K, L, M in first] == \
        [(key, K.members, L.members, M.members)
         for key, _, K, L, M in second]
    shifted = sample_subgroup_triples(entries, 25, seed=8)
    assert [(key, K.members) for key, _, K, _, _ in first] != \
        [(key, K.members) for key, _, K, _, _ in shifted]
    for key, alg, K, L, M in first:
        assert K.parent is alg and L.parent is alg and M.parent is alg
