"""Cooperators, Higgins/Smith/weighted commutators, closures."""

import itertools

import numpy as np
import pytest

from commwb import commutators
from commwb.commutators import (WEIGHTED_STRATEGIES, CommutatorReport,
                                WeightedCospan, commute_over, cooperator,
                                higgins_binary, higgins_ternary, is_w_normal,
                                normalise, smith, w_normal_closure)
from commwb.core import (Subuniverse, ValidationError, check_hom,
                         generate_congruence, generate_subuniverse,
                         identity_hom, image_sub, power_closure)
from commwb.sweeps import congruences, cyclic_subgroups, join_subs, subgroups
from commwb.varieties import cyclic_group, dihedral_group, symmetric_group
from conftest import brute_binary_commutator, is_diagonal


def _sub(alg, *gens):
    return generate_subuniverse(alg, gens)


# ---------------------------------------------------------------------------
# cooperator


def test_cooperator_exists_for_commuting_pair():
    z6 = cyclic_group(6)
    K, L = _sub(z6, 2), _sub(z6, 3)
    out = cooperator(z6, K, L)
    assert out.exists and bool(out)
    hom = out.hom
    assert hom.is_valid and hom.cod is z6
    assert hom.dom.size == len(K) * len(L)
    # the cooperating map is addition on the grid, in particular it
    # restricts to the two inclusions along the axes
    for i, k in enumerate(K.members):
        for j, l in enumerate(L.members):
            assert hom.map[i * len(L) + j] == (k + l) % 6


def test_cooperator_conflict_for_non_commuting_pair():
    s3 = symmetric_group(3)
    K, L = _sub(s3, 2), _sub(s3, 5)                    # <(12)>, <(13)>
    out = cooperator(s3, K, L)
    assert not out.exists
    (k, l, d1), (k2, l2, d2) = out.conflict
    assert (k, l) == (k2, l2) and d1 != d2
    assert k in K.members and l in L.members
    # both clashing triples really are jointly generated: rebuild the
    # joint-generation subalgebra from scratch and look them up
    bp = s3.basepoint
    seeds = [(x, bp, x) for x in K.members] + [(bp, y, y) for y in L.members]
    pts = {tuple(int(v) for v in row)
           for row in power_closure(s3, seeds, width=3)}
    assert (k, l, d1) in pts and (k, l, d2) in pts


def test_cooperator_mirrors_binary_triviality_everywhere():
    for alg in (symmetric_group(3), dihedral_group(4), cyclic_group(12)):
        for k, l in itertools.product(subgroups(alg), repeat=2):
            assert cooperator(alg, k, l).exists == \
                higgins_binary(alg, k, l).is_zero(), (alg.name, k.members,
                                                      l.members)
            assert cooperator(alg, k, l).commutator.members == \
                higgins_binary(alg, k, l).members


# ---------------------------------------------------------------------------
# binary Higgins commutator


def test_higgins_binary_matches_brute_commutator_subgroup():
    for alg in (symmetric_group(3), dihedral_group(4), cyclic_group(8)):
        for k, l in itertools.product(subgroups(alg), repeat=2):
            got = higgins_binary(alg, k, l).members
            want = brute_binary_commutator(alg, k.members, l.members)
            assert got == want, (alg.name, k.members, l.members)


def test_higgins_binary_symmetry_and_monotonicity():
    d4 = dihedral_group(4)
    subs = subgroups(d4)
    for k, l in itertools.product(subs, repeat=2):
        assert higgins_binary(d4, k, l).members == \
            higgins_binary(d4, l, k).members
    for k, l in itertools.product(subs, repeat=2):
        big = higgins_binary(d4, join_subs(d4, k, l), l)
        assert higgins_binary(d4, k, l).issubset(big)


def test_higgins_binary_frozen_group_values():
    s3 = symmetric_group(3)
    full = _sub(s3, 2, 3)
    assert higgins_binary(s3, full, full).members == (0, 3, 4)   # A3
    c2 = _sub(s3, 2)
    assert higgins_binary(s3, c2, c2).members == (0,)
    a3 = _sub(s3, 3)
    assert higgins_binary(s3, a3, full).members == (0, 3, 4)


def test_higgins_binary_is_meet_on_heyting_semilattices(lib):
    c3 = lib.algebra("chain3")
    full = Subuniverse(c3, (0, 1, 2))
    half = Subuniverse(c3, (1, 2))
    top = Subuniverse(c3, (2,))
    for k, l in itertools.product((full, half, top), repeat=2):
        want = tuple(sorted(set(k.members) & set(l.members)))
        assert higgins_binary(c3, k, l).members == want


# ---------------------------------------------------------------------------
# ternary Higgins commutator


def test_ternary_strategies_agree_on_the_bundled_instance():
    s3 = symmetric_group(3)
    c2 = _sub(s3, 2)
    full = _sub(s3, 2, 3)
    fast = higgins_ternary(s3, c2, c2, full, "group-fast")
    assert fast.result.members == (0, 3, 4)
    assert fast.complete and fast.strategy == "group-fast"
    oracle = higgins_ternary(s3, c2, c2, full, "word-oracle", word_bound=10)
    assert oracle.result.members == (0, 3, 4)
    assert not oracle.complete
    assert oracle.strategy == "word-oracle(10)"
    below = higgins_ternary(s3, c2, c2, full, "word-oracle", word_bound=8)
    assert below.result.members == (0,)
    assert not below.complete


def test_ternary_word_oracle_always_inside_group_fast():
    d4 = dihedral_group(4)
    subs = subgroups(d4)
    for k, l, m in itertools.islice(
            itertools.product(subs, repeat=3), 0, None, 7):
        fast = higgins_ternary(d4, k, l, m, "group-fast")
        oracle = higgins_ternary(d4, k, l, m, "word-oracle", word_bound=8)
        assert oracle.result.issubset(fast.result)


def test_ternary_term_depth_lower_bounds(lib):
    c3 = lib.algebra("chain3")
    full = Subuniverse(c3, (0, 1, 2))
    half = Subuniverse(c3, (1, 2))
    top = Subuniverse(c3, (2,))
    rep = higgins_ternary(c3, full, half, top, "term-depth", term_depth=2)
    assert rep.strategy == "term-depth(2)"
    assert not rep.complete
    # the ternary commutator sits under the pairwise meets, here the zero
    # subobject, so bounded term search must come up empty
    assert rep.result.is_zero()
    # on an abelian group the same bounded search also finds nothing, and
    # the exact group strategy confirms
    z4 = cyclic_group(4)
    whole = _sub(z4, 1)
    deep = higgins_ternary(z4, whole, whole, whole, "term-depth",
                           term_depth=2)
    assert deep.result.is_zero()
    assert higgins_ternary(z4, whole, whole, whole,
                           "group-fast").result.is_zero()


def test_ternary_rejects_unknown_strategy_and_nongroups(lib):
    s3 = symmetric_group(3)
    full = _sub(s3, 2, 3)
    with pytest.raises(ValidationError):
        higgins_ternary(s3, full, full, full, "nope")
    c3 = lib.algebra("chain3")
    whole = Subuniverse(c3, (0, 1, 2))
    with pytest.raises(ValidationError):
        higgins_ternary(c3, whole, whole, whole, "group-fast")


def test_ternary_witnesses_reevaluate():
    s3 = symmetric_group(3)
    c2 = _sub(s3, 2)
    full = _sub(s3, 2, 3)
    mul, inv = s3.tables["mul"], s3.tables["inv"]

    def bracket(a, b):
        return int(mul[mul[mul[a, b], inv[a]], inv[b]])

    carriers = {"K": c2.members, "L": c2.members, "M": full.members}
    roles = {"[[K,L],M]": "KLM", "[[L,M],K]": "LMK", "[[M,K],L]": "MKL"}
    fast = higgins_ternary(s3, c2, c2, full, "group-fast")
    assert fast.witnesses
    for kind, shape, args, value in fast.witnesses:
        assert kind == "bracket"
        a, b, c = args
        # args come in the shape's own slot order, drawn from the carrier
        # the slot names
        for elt, role in zip(args, roles[shape]):
            assert elt in carriers[role]
        assert bracket(bracket(a, b), c) == value
        assert value in fast.result.members


# ---------------------------------------------------------------------------
# Smith commutator


def test_smith_frozen_s3_value():
    s3 = symmetric_group(3)
    nabla = generate_congruence(s3, [(0, 1), (0, 3)])
    theta = smith(s3, nabla, nabla)
    assert theta.block_id == (0, 1, 1, 0, 0, 1)


def test_smith_symmetry_and_meet_bound():
    for alg in (symmetric_group(3), cyclic_group(12), dihedral_group(4)):
        congs = congruences(alg)
        for r, s in itertools.product(congs, repeat=2):
            left = smith(alg, r, s)
            assert left.block_id == smith(alg, s, r).block_id
            # [R,S] sits below both arguments
            for i, j in itertools.product(range(alg.size), repeat=2):
                if left.block_id[i] == left.block_id[j]:
                    assert r.block_id[i] == r.block_id[j]
                    assert s.block_id[i] == s.block_id[j]


def test_smith_refuses_an_oversized_matrix():
    # the matrix algebra of Z90 lives in Z90^4, 65,610,000 rows
    z90 = cyclic_group(90)
    nabla = generate_congruence(z90, [(0, 1)])
    with pytest.raises(ValidationError, match="65,610,000 rows"):
        smith(z90, nabla, nabla)


def test_smith_with_diagonal_is_diagonal():
    d4 = dihedral_group(4)
    delta = generate_congruence(d4, [])
    nabla = generate_congruence(d4, [(0, i) for i in range(8)])
    assert is_diagonal(smith(d4, delta, nabla))
    assert is_diagonal(smith(d4, nabla, delta))


def test_normalise_is_the_basepoint_block():
    z12 = cyclic_group(12)
    theta = generate_congruence(z12, [(0, 4)])
    assert normalise(theta).members == (0, 4, 8)


# ---------------------------------------------------------------------------
# weighted machinery


def test_w_normal_closure_frozen_s3():
    s3 = symmetric_group(3)
    c2 = _sub(s3, 2)
    closed = w_normal_closure(s3, c2, identity_hom(s3))
    assert closed.members == (0, 1, 2, 3, 4, 5)


def test_zero_weight_closure_is_identity_on_subobjects():
    s3 = symmetric_group(3)
    c2 = _sub(s3, 2)
    zero_w = check_hom(cyclic_group(1), s3, [0])
    closed = w_normal_closure(s3, c2, zero_w)
    assert closed.members == c2.members
    assert is_w_normal(s3, c2, zero_w)


def test_is_w_normal_detects_non_normal_subgroup():
    s3 = symmetric_group(3)
    c2 = _sub(s3, 2)
    a3 = _sub(s3, 3)
    assert not is_w_normal(s3, c2, identity_hom(s3))
    assert is_w_normal(s3, a3, identity_hom(s3))


def test_weighted_cospan_requires_common_codomain():
    s3, z6 = symmetric_group(3), cyclic_group(6)
    x = _sub(s3, 2).inclusion_hom()
    w_bad = identity_hom(z6)
    with pytest.raises(ValidationError):
        WeightedCospan(x=x, y=x, w=w_bad)


def test_commute_over_bundled_cospans(lib):
    c = lib.cospans["paper/s3-w"]
    with pytest.raises(ValidationError):
        commute_over(c, "proper-commutators")       # not w-proper
    verdict, rep = commute_over(c, "ssh-kernel",
                                profile=lib.profiles["groups"])
    assert verdict is False
    assert rep.result.members == (0, 3, 4)
    zero = lib.cospans["paper/s3-w-zero"]
    v0, rep0 = commute_over(zero, "proper-commutators")
    assert v0 is True and rep0.result.is_zero()
    assert rep0.complete


def test_weighted_strategies_close_each_joint_generation_once(monkeypatch,
                                                             lib):
    calls = []
    real = commutators.power_closure

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(commutators, "power_closure", counting)
    s3 = symmetric_group(3)
    cyc = cyclic_subgroups(s3)
    incl = [c.inclusion_hom() for c in cyc]
    proper = [(x, y, w) for x, y, w in itertools.product(incl, repeat=3)
              if is_w_normal(s3, image_sub(x), w)
              and is_w_normal(s3, image_sub(y), w)]
    assert proper
    for x, y, w in proper:
        c = WeightedCospan(x=x, y=y, w=w)
        for strategy in WEIGHTED_STRATEGIES:
            calls.clear()
            commute_over(c, strategy, profile=lib.profiles["groups"])
            assert len(calls) == 3, (strategy, len(calls))


def test_commute_over_ssh_requires_certified_profile(lib):
    c = lib.cospans["paper/s3-w"]
    with pytest.raises(ValidationError):
        commute_over(c, "ssh-kernel")
    with pytest.raises(ValidationError):
        commute_over(c, "ssh-kernel", profile=lib.profiles["hslat"])


def test_commute_over_proper_strategy_on_a_proper_cospan():
    d4 = dihedral_group(4)
    whole = generate_subuniverse(d4, range(8))
    center = higgins_binary(d4, whole, whole)    # derived subgroup = centre
    assert len(center) == 2
    x = center.inclusion_hom()
    c = WeightedCospan(x=x, y=x, w=identity_hom(d4), name="centre-self")
    verdict, rep = commute_over(c, "proper-commutators")
    assert verdict is True
    assert rep.strategy.startswith("proper-commutators[")
    assert rep.complete


def test_commutator_report_witness_membership_enforced():
    s3 = symmetric_group(3)
    sub = _sub(s3, 3)
    with pytest.raises(ValidationError):
        CommutatorReport(result=sub, strategy="group-fast", complete=True,
                         witnesses=(("trace", 0, 0, 5),))
