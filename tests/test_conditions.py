"""Condition checkers, admissibility, and the bundled example fixtures."""

import numpy as np
import pytest

import commwb.conditions as conditions
from commwb.commutators import WeightedCospan, higgins_binary, smith
from commwb.conditions import (AdmissibleDiagram, ConditionVerdict,
                               EXAMPLE_NAMES, admissible, check_reflection_instance,
                               check_sh_instance, check_ssh_instance,
                               check_w_instance, groups_phi, kernel_images,
                               run_paper_examples)
from commwb.core import (PointObject, ValidationError, check_hom,
                         generate_congruence, generate_subuniverse,
                         identity_hom, zero_hom)
from commwb.varieties import cyclic_group, symmetric_group


# ---------------------------------------------------------------------------
# diagram wiring


def test_diagram_rejects_miswired_maps(lib):
    d = lib.diagrams["groups/z12-mod3-split"]
    z12, z3 = d.f.dom, d.f.cod
    bad_section = check_hom(z3, z12, [0, 8, 4])    # f∘this is not identity
    with pytest.raises(ValidationError):
        AdmissibleDiagram(f=d.f, r=bad_section, g=d.g, s=d.s,
                          alpha=d.alpha, beta=d.beta, gamma=d.gamma)
    with pytest.raises(ValidationError):
        AdmissibleDiagram(f=d.f, r=d.r, g=d.g, s=d.s,
                          alpha=d.alpha, beta=identity_hom(z12),
                          gamma=d.gamma)   # beta attached to the wrong object
    with pytest.raises(ValidationError):
        AdmissibleDiagram(f=d.f, r=d.r, g=d.g, s=d.s, alpha=d.alpha,
                          beta=zero_hom(z3, d.target), gamma=d.gamma)


def test_degenerate_diagram_admits_identity_fill_in():
    z6 = cyclic_group(6)
    one = identity_hom(z6)
    d = AdmissibleDiagram(f=one, r=one, g=one, s=one,
                          alpha=one, beta=one, gamma=one, name="degenerate")
    out = admissible(d)
    assert out.exists
    e1 = out.square.induced["e1"]
    assert np.array_equal(out.phi.map[e1.map], one.map)


# ---------------------------------------------------------------------------
# ssh checker


def test_ssh_counterexample_instance_is_frozen(lib):
    d = lib.diagrams["paper/hslat-adm"]
    X, Y = kernel_images(d)
    assert set(X.members) == {1, 2} and set(Y.members) == {2}
    verdict = check_ssh_instance(d)
    assert verdict.hypothesis_holds
    assert verdict.conclusion_holds is False
    assert not verdict.instance_satisfies
    (tag, element, values, involved), = verdict.witnesses
    assert tag == "fill-in-conflict"
    P = admissible(d).square.carrier
    D = d.target
    assert P.label(element) == "(0,a)"
    assert {D.label(v) for v in values} == {"1", "1/2"}
    assert {"(0,a)", "(1/2,1)"} <= {P.label(i) for i in involved}


# The first conflict of the fill-in closure, frozen in full: (element,
# values, derivations of both values, involved pullback elements).
FROZEN_CONFLICTS = {
    "paper/hslat-adm": (
        1, (2, 1), (("seed-e2", 1), ("meet", ((1, 2), (3, 1)))), (1, 3)),
    "groups/s3-s3-full-nonabelian": (
        8, (3, 4), (("mul", ((2, 2), (6, 1))), ("mul", ((6, 1), (2, 2)))),
        (2, 6, 8)),
}


def test_fill_in_conflicts_are_frozen(lib):
    for key in sorted(lib.diagrams):
        out = admissible(lib.diagrams[key])
        c = out.conflict
        got = None if c is None else (c.element, c.values, c.derivations,
                                      c.involved)
        assert got == FROZEN_CONFLICTS.get(key), key
        assert out.exists == (key not in FROZEN_CONFLICTS)


def test_ssh_conflict_derivations_reevaluate(lib):
    for key in FROZEN_CONFLICTS:
        d = lib.diagrams[key]
        out = admissible(d)
        assert not out.exists
        c = out.conflict
        P = out.square.carrier
        D = d.target
        e1, e2 = out.square.induced["e1"], out.square.induced["e2"]
        for (p, v), der in zip(((c.element, val) for val in c.values),
                               c.derivations):
            if der[0] == "seed-e1":
                a = der[1]
                assert e1.map[a] == p and d.alpha.map[a] == v
            elif der[0] == "seed-e2":
                cc = der[1]
                assert e2.map[cc] == p and d.gamma.map[cc] == v
            else:
                op, args = der
                qs = [q for q, _ in args]
                es = [e for _, e in args]
                assert int(P.tables[op][tuple(qs)]) == p
                assert int(D.tables[op][tuple(es)]) == v


def test_ssh_is_lazy_when_hypothesis_fails(lib, monkeypatch):
    d = lib.diagrams["groups/s3-s3-full-nonabelian"]
    X, Y = kernel_images(d)
    assert not higgins_binary(d.target, X, Y).is_zero()

    def boom(_):
        raise AssertionError("fill-in search ran despite a failed hypothesis")

    monkeypatch.setattr(conditions, "admissible", boom)
    verdict = check_ssh_instance(d)
    assert not verdict.hypothesis_holds
    assert verdict.conclusion_holds is None
    assert verdict.instance_satisfies        # vacuously
    assert verdict.witnesses[0][0] == "cooperator-conflict"


def test_ssh_positive_instances_produce_fill_ins(lib):
    for key in ("groups/z12-mod3-split", "groups/s3-sign-split"):
        verdict = check_ssh_instance(lib.diagrams[key])
        assert verdict.hypothesis_holds and verdict.conclusion_holds
        assert verdict.instance_satisfies


# ---------------------------------------------------------------------------
# group fill-in formula


def test_groups_phi_matches_closure_fill_in(lib):
    for key in ("groups/z12-mod3-split", "groups/z4-z6-z12",
                "groups/d4-sign-split"):
        d = lib.diagrams[key]
        phi = groups_phi(d)
        out = admissible(d)
        assert out.exists
        assert np.array_equal(phi.map, out.phi.map)
        e1, e2 = out.square.induced["e1"], out.square.induced["e2"]
        assert np.array_equal(phi.map[e1.map], d.alpha.map)
        assert np.array_equal(phi.map[e2.map], d.gamma.map)


def test_groups_phi_refuses_failed_hypothesis(lib):
    with pytest.raises(ValidationError):
        groups_phi(lib.diagrams["groups/s3-s3-full-nonabelian"])


def test_groups_phi_refuses_non_group_signature(lib):
    with pytest.raises(ValidationError):
        groups_phi(lib.diagrams["paper/hslat-adm"])


# ---------------------------------------------------------------------------
# sh checker


def test_sh_holds_on_group_instances():
    z6 = cyclic_group(6)
    top = generate_congruence(z6, [(0, 1)])
    verdict = check_sh_instance(z6, top, top)
    assert verdict.hypothesis_holds and verdict.conclusion_holds
    assert verdict.instance_satisfies

    s3 = symmetric_group(3)
    nabla = generate_congruence(s3, [(0, 1), (0, 3)])
    vacuous = check_sh_instance(s3, nabla, nabla)
    assert not vacuous.hypothesis_holds
    assert vacuous.conclusion_holds is None
    assert vacuous.instance_satisfies
    assert all(tag == "binary" for tag, _ in vacuous.witnesses)


def test_sh_on_semilattice_congruences(lib):
    c3 = lib.algebra("chain3")
    delta = generate_congruence(c3, [])
    verdict = check_sh_instance(c3, delta, delta)
    assert verdict.hypothesis_holds and verdict.conclusion_holds
    half = generate_congruence(c3, [(0, 1)])
    assert not check_sh_instance(c3, half, half).hypothesis_holds


# ---------------------------------------------------------------------------
# w checker


def test_w_counterexample_and_completeness_semantics(lib):
    c = lib.cospans["paper/s3-w"]
    verdict = check_w_instance(c)
    assert verdict.hypothesis_holds
    assert verdict.conclusion_holds is False
    assert not verdict.instance_satisfies
    assert verdict.complete

    # a bounded oracle that still finds the violation is conclusive
    found = check_w_instance(c, ternary_strategy="word-oracle", word_bound=10)
    assert found.conclusion_holds is False and found.complete

    # one that comes up empty below the bound is not
    missed = check_w_instance(c, ternary_strategy="word-oracle", word_bound=8)
    assert missed.conclusion_holds is True
    assert missed.instance_satisfies
    assert not missed.complete


def test_w_zero_weight_always_satisfies(lib):
    verdict = check_w_instance(lib.cospans["paper/s3-w-zero"])
    assert verdict.instance_satisfies and verdict.complete


def test_w_vacuous_when_legs_do_not_commute():
    s3 = symmetric_group(3)
    x = generate_subuniverse(s3, [2]).inclusion_hom()
    y = generate_subuniverse(s3, [5]).inclusion_hom()
    c = WeightedCospan(x=x, y=y, w=identity_hom(s3))
    verdict = check_w_instance(c)
    assert not verdict.hypothesis_holds and verdict.instance_satisfies


# ---------------------------------------------------------------------------
# reflection checker


def _z12_over_z3_point(lib):
    d = lib.diagrams["groups/z12-mod3-split"]
    return PointObject(d.f.dom, d.f.cod, d.f, d.r), d.f.dom, d.f.cod


def test_reflection_points_mode_round_trip(lib):
    point, z12, z3 = _z12_over_z3_point(lib)
    top = generate_congruence(z12, [(0, 1)])
    verdict = check_reflection_instance("points", identity_hom(z3), point,
                                        top, top)
    assert verdict.condition == "reflection-points"
    assert verdict.hypothesis_holds and verdict.conclusion_holds
    assert verdict.instance_satisfies


def test_reflection_points_mode_vacuous_branch():
    s3 = symmetric_group(3)
    z1 = cyclic_group(1)
    point = PointObject(s3, z1, zero_hom(s3, z1), zero_hom(z1, s3))
    nabla = generate_congruence(s3, [(0, 1), (0, 3)])
    verdict = check_reflection_instance("points", identity_hom(z1), point,
                                        nabla, nabla)
    assert not verdict.hypothesis_holds
    assert verdict.conclusion_holds is None
    assert verdict.instance_satisfies
    assert verdict.witnesses[0][0] == "smith-pair"


def test_reflection_basic_mode():
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    p = identity_hom(z2)
    carrier = check_hom(z4, z2, [0, 1, 0, 1])
    R = generate_congruence(z4, [(0, 2)])
    verdict = check_reflection_instance("basic", p, carrier, R, R)
    assert verdict.condition == "reflection-basic"
    assert verdict.hypothesis_holds and verdict.conclusion_holds
    assert verdict.instance_satisfies


def test_reflection_mode_and_carrier_validation(lib):
    point, z12, z3 = _z12_over_z3_point(lib)
    top = generate_congruence(z12, [(0, 1)])
    with pytest.raises(ValidationError):
        check_reflection_instance("sideways", identity_hom(z3), point,
                                  top, top)
    with pytest.raises(ValidationError):
        check_reflection_instance("points", identity_hom(z3),
                                  identity_hom(z3), top, top)
    with pytest.raises(ValidationError):
        check_reflection_instance("basic", identity_hom(z3), point, top, top)
    z2 = cyclic_group(2)
    with pytest.raises(ValidationError):
        check_reflection_instance("points", identity_hom(z2), point, top, top)
    delta3 = generate_congruence(z3, [])
    with pytest.raises(ValidationError):
        check_reflection_instance("points", identity_hom(z3), point,
                                  delta3, delta3)


# ---------------------------------------------------------------------------
# verdict invariant


def test_condition_verdict_must_be_its_own_implication():
    with pytest.raises(ValidationError):
        ConditionVerdict("x", True, False, True)
    with pytest.raises(ValidationError):
        ConditionVerdict("x", False, None, False)
    ok = ConditionVerdict("x", False, None, True)
    assert ok.instance_satisfies


# ---------------------------------------------------------------------------
# bundled example runner


def test_run_paper_examples_all_and_selectors():
    full = run_paper_examples()
    assert tuple(full) == EXAMPLE_NAMES
    assert full["hslat-ssh"]["verdict_satisfies"] is False
    assert full["hslat-ssh"]["conflict_element"] == "(0,a)"
    assert set(full["hslat-ssh"]["conflict_values"]) == {"1", "1/2"}
    assert full["s3-w"]["verdict_satisfies"] is False
    assert full["s3-w"]["ternary"] == ["(123)", "(132)", "e"]
    assert len(full["groups-phi"]["agreeing_diagrams"]) == 6
    assert full["groups-phi"]["hypothesis_failures"] == \
        ["groups/s3-s3-full-nonabelian"]

    only = run_paper_examples("s3-w")
    assert tuple(only) == ("s3-w",)
    with pytest.raises(ValidationError):
        run_paper_examples("nope")
