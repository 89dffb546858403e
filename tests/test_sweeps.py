"""Subgroup/congruence enumeration sweeps and the triple sampler."""

import pytest

from commwb.core import ValidationError, generate_subuniverse
from commwb.sweeps import (congruences, cyclic_subgroups, join_subs,
                           subgroups)
from commwb.varieties import cyclic_group, dihedral_group, symmetric_group
from conftest import brute_congruences
from sweep_inputs import library_algebras, sample_subgroup_triples


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
