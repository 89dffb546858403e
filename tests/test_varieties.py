"""Equational profiles, identity verification, and the built-in catalogue."""

import itertools

import numpy as np
import pytest

from commwb.core import ValidationError
from commwb.terms import eval_term, parse_term
from commwb.varieties import (alternating_group, chain_hslat, cyclic_group,
                              diamond_hslat, dicyclic_group, dihedral_group,
                              symmetric_group, verify_identities)


# ---------------------------------------------------------------------------
# constructors produce what their names promise


def test_cyclic_group_tables_are_modular_addition():
    z5 = cyclic_group(5)
    for a, b in itertools.product(range(5), repeat=2):
        assert int(z5.tables["mul"][a, b]) == (a + b) % 5
        assert int(z5.tables["inv"][a]) == (-a) % 5
    assert z5.basepoint == 0


def test_symmetric_group_s3_structure():
    s3 = symmetric_group(3)
    assert s3.size == 6
    assert s3.labels == ("e", "(23)", "(12)", "(123)", "(132)", "(13)")
    orders = sorted(_element_order(s3, g) for g in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_dihedral_and_dicyclic_orders():
    d4 = dihedral_group(4)
    assert sorted(_element_order(d4, g) for g in range(8)) == \
        [1, 2, 2, 2, 2, 2, 4, 4]
    q8 = dicyclic_group(2)
    assert sorted(_element_order(q8, g) for g in range(8)) == \
        [1, 2, 4, 4, 4, 4, 4, 4]


def test_alternating_group_sits_inside_symmetric():
    a4 = alternating_group(4)
    assert a4.size == 12
    assert sorted(_element_order(a4, g) for g in range(12)) == \
        [1] + [2] * 3 + [3] * 8


def _element_order(alg, g):
    mul = alg.tables["mul"]
    x, k = g, 1
    while x != alg.basepoint:
        x = int(mul[x, g])
        k += 1
    return k


def test_heyting_semilattice_tables():
    c3 = chain_hslat(3)
    meet, imp = c3.tables["meet"], c3.tables["imp"]
    assert c3.basepoint == 2            # the top element is the basepoint
    for a, b in itertools.product(range(3), repeat=2):
        assert int(meet[a, b]) == min(a, b)
        assert int(imp[a, b]) == (2 if a <= b else b)
    dm = diamond_hslat()
    assert dm.size == 4
    # a and b are incomparable: a -> b = b
    ia, ib = dm.label_index("a"), dm.label_index("b")
    assert int(dm.tables["imp"][ia, ib]) == ib
    assert int(dm.tables["meet"][ia, ib]) == dm.label_index("0")


# ---------------------------------------------------------------------------
# identity verification


def test_profiles_hold_on_their_algebras(lib):
    for key in ("S3", "D4", "Q8", "Z12", "A4", "Dic3"):
        rep = verify_identities(lib.algebra(key), lib.profiles["groups"])
        assert rep.ok, rep.summary()
    for key in ("chain2", "chain3", "chain4", "diamond", "chain3xchain3"):
        rep = verify_identities(lib.algebra(key), lib.profiles["hslat"])
        assert rep.ok, rep.summary()


def test_identity_violation_is_located(lib):
    broken = verify_identities(_with_broken_inverse(cyclic_group(4)),
                               lib.profiles["groups"])
    assert not broken.ok
    text, env = broken.failures[0]
    assert "inv" in text and env


def _with_broken_inverse(z4):
    import dataclasses
    tables = dict(z4.tables)
    tables["inv"] = np.array([0, 1, 2, 3])
    return dataclasses.replace(z4, tables=tables)


def test_signature_mismatch_rejected(lib):
    with pytest.raises(ValidationError):
        verify_identities(lib.algebra("chain3"), lib.profiles["groups"])


def test_malcev_witness_behaves_on_groups(lib):
    prof = lib.profiles["groups"]
    term = parse_term(prof.malcev_witness, prof.signature)
    s3 = symmetric_group(3)
    for x, z in itertools.product(range(6), repeat=2):
        assert int(eval_term(s3, term, {"x0": x, "x1": x, "x2": z})) == z
        assert int(eval_term(s3, term, {"x0": x, "x1": z, "x2": z})) == x


def test_malcev_witness_behaves_on_hslat(lib):
    prof = lib.profiles["hslat"]
    assert prof.malcev_witness is not None
    term = parse_term(prof.malcev_witness, prof.signature)
    for alg_key in ("chain3", "diamond"):
        alg = lib.algebra(alg_key)
        n = alg.size
        for x, z in itertools.product(range(n), repeat=2):
            assert int(eval_term(alg, term, {"x0": x, "x1": x, "x2": z})) == z
            assert int(eval_term(alg, term, {"x0": x, "x1": z, "x2": z})) == x


# ---------------------------------------------------------------------------
# the catalogue


def test_library_inventory_counts(lib):
    assert len(lib.algebras) == 33
    assert len(lib.diagrams) == 8
    assert len(lib.cospans) == 2
    assert set(lib.profiles) == {"digroups", "groups", "hslat", "loops"}


def test_library_ssh_certification_flags(lib):
    assert lib.profiles["groups"].ssh_certified is True
    assert lib.profiles["hslat"].ssh_certified is False


def test_library_lookup_and_errors(lib):
    assert lib.algebra("S3") is lib.algebras["S3"]
    with pytest.raises(ValidationError):
        lib.algebra("S99")


def test_recorded_gamma_travels_with_violations(lib):
    gamma = lib.diagrams["paper/hslat-adm"].gamma
    assert not gamma.is_valid
    assert len(gamma.violations) > 0
    assert list(gamma.map) == [0, 2, 2, 2]


def test_group_diagram_orders_bounded(lib):
    for key, d in lib.diagrams.items():
        if not key.startswith("groups/"):
            continue
        for alg in (d.f.dom, d.f.cod, d.g.dom, d.alpha.cod):
            assert alg.size <= 24, key
