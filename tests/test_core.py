"""Carrier machinery: algebras, homs, closures, products, pullbacks."""

import itertools
import tracemalloc

import numpy as np
import pytest

import commwb.core as core
from commwb.core import (Congruence, FinAlgebra, Signature, Subuniverse,
                         ValidationError, check_hom, generate_congruence,
                         generate_subuniverse, hom_from_table, identity_hom,
                         image_sub, kernel_sub, power_closure, product,
                         pullback)
from commwb.varieties import (chain_hslat, cyclic_group, dihedral_group,
                              symmetric_group)
from conftest import brute_generated_subgroup, brute_congruences


# ---------------------------------------------------------------------------
# validation at construction


def test_signature_requires_unique_ops_and_nullary_basepoint():
    with pytest.raises(ValidationError):
        Signature(ops=(("mul", 2), ("mul", 1), ("e", 0)), basepoint_op="e")
    with pytest.raises(ValidationError):
        Signature(ops=(("mul", 2), ("e", 1)), basepoint_op="e")
    with pytest.raises(ValidationError):
        Signature(ops=(("mul", 2),), basepoint_op="e")


def test_algebra_rejects_out_of_range_table_entry():
    sig = Signature(ops=(("mul", 2), ("e", 0)), basepoint_op="e")
    with pytest.raises(ValidationError):
        FinAlgebra(sig, 2, {"mul": np.array([[0, 1], [1, 2]]),
                            "e": np.array(0)})


def test_algebra_label_index_handles_labels_and_integers():
    s3 = symmetric_group(3)
    assert s3.label_index("(12)") == 2
    assert s3.label_index("0") == 0
    with pytest.raises(ValidationError):
        s3.label_index("nope")


def test_check_hom_accepts_and_rejects():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    h = check_hom(z4, z2, [0, 1, 0, 1])
    assert h.is_valid and h.violations == ()
    with pytest.raises(ValidationError):
        check_hom(z4, z2, [0, 0, 1, 0])


def test_hom_from_table_non_strict_carries_violations():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    bad = hom_from_table(z4, z2, [0, 0, 1, 0])
    assert not bad.is_valid
    assert len(bad.violations) > 0


def test_hom_map_is_read_only():
    h = identity_hom(cyclic_group(3))
    with pytest.raises(ValueError):
        h.map[0] = 1


def test_subuniverse_must_be_closed_and_pointed():
    s3 = symmetric_group(3)
    with pytest.raises(ValidationError):
        Subuniverse(s3, (1,))            # no basepoint
    with pytest.raises(ValidationError):
        Subuniverse(s3, (0, 3))          # (123) alone is not closed
    sub = Subuniverse(s3, (0, 3, 4))
    assert sub.label_set() == ("e", "(123)", "(132)")


def test_issubset_rejects_a_foreign_subuniverse():
    s3, z3 = symmetric_group(3), cyclic_group(3)
    with pytest.raises(ValidationError, match="different parent"):
        Subuniverse(s3, (0,)).issubset(Subuniverse(z3, (0, 1, 2)))


def test_congruence_requires_canonical_blocks_and_compatibility():
    z4 = cyclic_group(4)
    with pytest.raises(ValidationError):
        Congruence(z4, (0, 1, 1, 1))     # incompatible with addition
    with pytest.raises(ValidationError):
        Congruence(z4, (1, 1, 2, 3))     # non-canonical ids
    theta = Congruence(z4, (0, 1, 0, 1))
    assert theta.block_id == (0, 1, 0, 1)


# ---------------------------------------------------------------------------
# closure generation against oracles


def test_generate_subuniverse_matches_brute_closure():
    for alg in (symmetric_group(3), dihedral_group(4), cyclic_group(6)):
        n = alg.size
        for gens in itertools.chain([()],
                                    itertools.combinations(range(n), 1),
                                    itertools.combinations(range(n), 2)):
            got = generate_subuniverse(alg, gens).members
            want = brute_generated_subgroup(alg, gens)
            assert got == want, (alg.name, gens)


def test_generate_congruence_yields_least_congruence_with_pair():
    for alg in (symmetric_group(3), cyclic_group(6), chain_hslat(3)):
        all_congs = brute_congruences(alg)
        for a, b in itertools.combinations(range(alg.size), 2):
            got = generate_congruence(alg, [(a, b)]).block_id
            # least congruence relating a and b, per the exhaustive oracle
            best = min((c for c in all_congs if c[a] == c[b]),
                       key=lambda c: sum(1 for i, r in enumerate(c)
                                         if i != r))
            related_got = {(i, j) for i in range(alg.size)
                           for j in range(alg.size) if got[i] == got[j]}
            related_best = {(i, j) for i in range(alg.size)
                            for j in range(alg.size) if best[i] == best[j]}
            assert related_got == related_best, (alg.name, a, b)


def test_generate_congruence_empty_is_diagonal():
    z6 = cyclic_group(6)
    assert generate_congruence(z6, []).block_id == tuple(range(6))


# ---------------------------------------------------------------------------
# products and pullbacks


def test_product_projections_and_encoding():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    span = product(z2, z3)
    assert span.carrier.size == 6
    p1, p2 = span.legs
    for x in range(2):
        for y in range(3):
            idx = x * 3 + y
            assert (int(p1.map[idx]), int(p2.map[idx])) == (x, y)
    mul = span.carrier.tables["mul"]
    for i, j in itertools.product(range(6), repeat=2):
        v = int(mul[i, j])
        assert int(p1.map[v]) == (int(p1.map[i]) + int(p1.map[j])) % 2
        assert int(p2.map[v]) == (int(p2.map[i]) + int(p2.map[j])) % 3


def test_pullback_is_the_full_fibered_product():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = check_hom(z4, z2, [0, 1, 0, 1])
    span = pullback(f, f)
    pts = {(int(span.legs[0].map[i]), int(span.legs[1].map[i]))
           for i in range(span.carrier.size)}
    want = {(a, c) for a in range(4) for c in range(4)
            if f.map[a] == f.map[c]}
    assert pts == want
    # legs commute with the cospan
    assert np.array_equal(f.map[span.legs[0].map], f.map[span.legs[1].map])


def test_pullback_with_sections_induces_splittings():
    z6, z3 = cyclic_group(6), cyclic_group(3)
    f = check_hom(z6, z3, [0, 1, 2, 0, 1, 2])
    r = check_hom(z3, z6, [0, 4, 2])
    span = pullback(f, f, r, r)
    e1, e2 = span.induced["e1"], span.induced["e2"]
    # e1 = <1, r o f>, e2 = <r o f, 1>
    assert np.array_equal(span.legs[0].map[e1.map], np.arange(6))
    assert np.array_equal(span.legs[1].map[e1.map], r.map[f.map])
    assert np.array_equal(span.legs[1].map[e2.map], np.arange(6))
    assert np.array_equal(span.legs[0].map[e2.map], r.map[f.map])


# ---------------------------------------------------------------------------
# kernels and images


def test_kernel_and_image_subuniverses():
    z12, z4 = cyclic_group(12), cyclic_group(4)
    f = check_hom(z12, z4, [x % 4 for x in range(12)])
    assert kernel_sub(f).members == (0, 4, 8)
    assert image_sub(f).members == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# power closure


def test_power_closure_diagonal_seeds_give_diagonal():
    s3 = symmetric_group(3)
    pts = power_closure(s3, [(i, i) for i in range(6)])
    assert pts.shape == (6, 2)
    assert np.array_equal(pts[:, 0], pts[:, 1])


def test_power_closure_matches_brute_componentwise_closure():
    z4 = cyclic_group(4)
    seeds = [(1, 2), (0, 1)]
    got = {tuple(row) for row in power_closure(z4, seeds)}
    # oracle: crude closure in the literal product algebra
    members = {(0, 0)} | set(seeds)
    while True:
        new = {((a + c) % 4, (b + d) % 4)
               for a, b in members for c, d in members}
        new |= {((-a) % 4, (-b) % 4) for a, b in members}
        if new <= members:
            break
        members |= new
    assert got == members


def test_power_closure_rows_in_encoded_key_order():
    z4 = cyclic_group(4)
    pts = power_closure(z4, [(1, 1, 2)], width=3)
    keys = pts[:, 0] * 16 + pts[:, 1] * 4 + pts[:, 2]
    assert np.all(np.diff(keys) > 0)


def test_power_closure_refuses_an_oversized_product():
    # Z90^4 has 65,610,000 rows: refused before its bitmap is allocated
    z90 = cyclic_group(90)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="65,610,000 rows"):
            power_closure(z90, [(0, 0, 0, 0)], width=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_power_closure_is_the_same_in_small_chunks(monkeypatch):
    d4 = dihedral_group(4)
    seeds = [(1, 0, 1, 0), (0, 2, 0, 2), (3, 3, 5, 5)]
    whole = power_closure(d4, seeds)
    monkeypatch.setattr(core, "_CHUNK", 7)
    assert np.array_equal(power_closure(d4, seeds), whole)


def test_closure_under_a_ternary_operation_matches_brute_closure():
    # p(x, y, z) = x - y + z on Z6 (with 0 as the only constant): no
    # catalogue signature has an operation of arity 3
    x, y, z = np.indices((6, 6, 6))
    sig = Signature(ops=(("p", 3), ("e", 0)), basepoint_op="e")
    alg = FinAlgebra(sig, 6, {"p": (x - y + z) % 6, "e": 0})
    for seeds in ([(2, 3)], [(1, 0), (0, 3)], [(4, 4)]):
        members = {(0, 0)} | set(seeds)
        while True:
            new = {tuple((a[i] - b[i] + c[i]) % 6 for i in range(2))
                   for a, b, c in itertools.product(members, repeat=3)}
            if new <= members:
                break
            members |= new
        assert {tuple(r) for r in power_closure(alg, seeds)} == members
    assert generate_subuniverse(alg, [4]).members == (0, 2, 4)
