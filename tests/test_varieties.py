"""Equational profiles, identity verification, and the built-in catalogue."""

import dataclasses
import itertools

import numpy as np
import pytest

from commwb.core import ValidationError
from commwb.terms import eval_term, parse_term
from commwb.varieties import (VarietyProfile, alternating_group,
                              builtin_library,
                              chain_hslat, cyclic_group, diamond_hslat,
                              dicyclic_group, dihedral_group, perm_group,
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


def test_perm_group_without_the_identity_is_rejected():
    with pytest.raises(ValidationError, match="identity permutation missing"):
        perm_group([(1, 0, 2), (0, 2, 1)], name="no-e")


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


@pytest.mark.parametrize("key", list(builtin_library().algebras))
def test_catalogue_algebra_satisfies_its_profile(lib, key):
    """Every catalogue key, aliases included: the profile's identities
    hold, and its Mal'tsev witness p gives p(x,y,y)=x and p(x,x,y)=y.
    The package does not re-check the catalogue when it loads."""
    alg = lib.algebras[key]
    prof = lib.profiles[lib.algebra_profile[key]]
    rep = verify_identities(alg, prof)
    assert rep.ok, f"{key}: {rep.failures}"
    if prof.malcev_witness is None:
        return
    term = parse_term(prof.malcev_witness, prof.signature)
    x, y = np.indices((alg.size,) * 2)
    xyy = eval_term(alg, term, {"x0": x, "x1": y, "x2": y})
    xxy = eval_term(alg, term, {"x0": x, "x1": x, "x2": y})
    assert np.array_equal(xyy, x), f"{key}: p(x,y,y) != x"
    assert np.array_equal(xxy, y), f"{key}: p(x,x,y) != y"


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


def test_identities_without_variables_are_checked():
    s3 = symmetric_group(3)
    nullary = VarietyProfile("nullary", s3.signature,
                             ("e = e", "inv(e) = e"))
    assert verify_identities(s3, nullary).failures == ()
    z4 = cyclic_group(4)
    skew = dataclasses.replace(
        z4, tables={**z4.tables, "inv": np.array([1, 0, 3, 2])})
    report = verify_identities(skew, nullary)
    assert not report.ok and report.failures == (("inv(e) = e", {}),)


def test_signature_mismatch_rejected(lib):
    with pytest.raises(ValidationError):
        verify_identities(lib.algebra("chain3"), lib.profiles["groups"])


# ---------------------------------------------------------------------------
# the catalogue


def test_library_inventory_counts(lib):
    assert len(lib.algebras) == 33
    # both profiles in use have a Mal'tsev witness, so the catalogue test
    # checks one on every key
    assert set(lib.algebra_profile) == set(lib.algebras)
    assert set(lib.algebra_profile.values()) == {"groups", "hslat"}
    assert len(lib.diagrams) == 8
    assert len(lib.cospans) == 2
    assert set(lib.profiles) == {"groups", "hslat", "loops"}


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
