"""Carrier machinery: algebras, homs, closures, products, pullbacks."""

import itertools
import tracemalloc

import numpy as np
import pytest

import commwb.core as core
from commwb.core import (Congruence, FinAlgebra, Hom, Signature,
                         Subuniverse, ValidationError, check_hom,
                         generate_congruence, generate_subuniverse,
                         hom_from_table, hom_violations, identity_hom,
                         image_sub, kernel_sub,
                         power_closure, product, pullback)
from commwb import commutators
from commwb.commutators import (_resolve_ternary_strategy, higgins_ternary,
                                normalise, smith)
from commwb.sweeps import congruences, cyclic_subgroups, subgroups
from commwb.varieties import (chain_hslat, cyclic_group, diamond_hslat,
                              dihedral_group, symmetric_group)
from conftest import (brute_generated_subgroup, brute_congruences,
                      clear_memos, naive_closure)
from sweep_inputs import library_algebras


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


def test_label_index_heads_its_error_with_the_argument():
    s3 = symmetric_group(3)
    assert s3.label_index("(12)", "--gens") == 2
    with pytest.raises(ValidationError,
                       match=r"^--gens: 'nope' names no element of S3$"):
        s3.label_index("nope", "--gens")
    with pytest.raises(ValidationError,
                       match=r"^R\[0\]: element index 6 out of range$"):
        s3.label_index("6", "R[0]")


def test_algebra_rejects_repeated_labels():
    sig = Signature(ops=(("mul", 2), ("e", 0)), basepoint_op="e")
    tables = {"mul": np.array([[0, 1], [1, 0]]), "e": np.array(0)}
    with pytest.raises(ValidationError,
                       match="label 'x' names more than one element of Z2"):
        FinAlgebra(sig, 2, tables, name="Z2", labels=("x", "x"))


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


@pytest.mark.parametrize("mapping, message", [
    ([0, 1, 0], "map: expected 4 entries, got 3"),
    ([[0, 1], [0, 1]], r"map: expected 4 entries, got shape \(2, 2\)"),
    ([0, 1, 0, 7], "map: value 7 out of range for a codomain of 2"),
    ([0, 1, 0, -1], "map: value -1 out of range for a codomain of 2"),
])
def test_a_malformed_map_is_refused_before_it_is_read(mapping, message):
    # each of these once indexed the tables with the raw map: an
    # IndexError, or for -1 the false "does not preserve mul(0,3)"
    z4, z2 = cyclic_group(4), cyclic_group(2)
    for build in (check_hom, hom_from_table, hom_violations, Hom):
        with pytest.raises(ValidationError, match=message):
            build(z4, z2, mapping)


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


def test_generate_congruence_on_groups_matches_the_worklist(lib):
    # 50 seeded pair lists per catalogue group, with [] and repeated pairs
    for key, alg in library_algebras(lib, "groups"):
        rng = np.random.default_rng(alg.size * 100 + len(key))
        n = alg.size
        lists = [[], [(n - 1, 0)] * 3 + [(0, n - 1), (n - 1, n - 1)]]
        lists += [rng.integers(0, n, (rng.integers(1, 5), 2)).tolist()
                  for _ in range(48)]
        for pairs in lists:
            got = generate_congruence(alg, pairs)
            Congruence(alg, got.block_id)  # canonical and compatible
            want = core._congruence_worklist(alg, [tuple(p) for p in pairs])
            assert got.block_id == want.block_id, (key, pairs)


@pytest.mark.parametrize("pair", [(0, 6), (-1, 0), (2, 99)])
def test_generate_congruence_checks_pairs_before_either_route(monkeypatch,
                                                               pair):
    def refuse(*args):
        raise AssertionError("a route ran")

    monkeypatch.setattr(core, "_normal_cosets", refuse)
    monkeypatch.setattr(core, "_congruence_worklist", refuse)
    for alg in (symmetric_group(3), chain_hslat(6)):
        with pytest.raises(ValidationError, match="out of range"):
            generate_congruence(alg, [(1, 2), pair])


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


def test_pullback_of_a_non_hom_names_the_operation(lib):
    # the recorded gamma of the hslat diagram does not preserve meet, so
    # its kernel pair is not closed under meet
    gamma = lib.diagrams["paper/hslat-adm"].gamma
    with pytest.raises(ValidationError, match="not closed under 'meet'"):
        pullback(gamma, gamma)


# ---------------------------------------------------------------------------
# kernels and images


def test_kernel_and_image_subuniverses():
    z12, z4 = cyclic_group(12), cyclic_group(4)
    f = check_hom(z12, z4, [x % 4 for x in range(12)])
    assert kernel_sub(f).members == (0, 4, 8)
    assert image_sub(f).members == (0, 1, 2, 3)
    assert image_sub(f) is image_sub(f)      # kept on the hom


def test_image_sub_of_a_non_hom_raises_on_every_call():
    # {0, 1} is not closed in Z4: 1 + 1 = 2
    z2, z4 = cyclic_group(2), cyclic_group(4)
    for f in (Hom(z2, z4, [0, 1]), hom_from_table(z2, z4, [0, 1])):
        for _ in range(2):
            with pytest.raises(ValidationError, match="not closed under"):
                image_sub(f)


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
    clear_memos()  # else the second call returns the memo's rows
    assert np.array_equal(power_closure(d4, seeds), whole)


def _nabla_smith_seeds(alg):
    """The seeds of smith's D^4 closure for [nabla, nabla]."""
    everything = list(itertools.product(range(alg.size), repeat=2))
    return [(a, a, b, b) for a, b in everything] \
        + [(u, v, u, v) for u, v in everything]


def test_semi_naive_closure_is_the_same_in_small_chunks(monkeypatch, lib):
    # the same check on carriers that are no group, so on the other route;
    # the second seed set closes to the whole of chain3^4, where the engine
    # stops early
    chain3 = lib.algebra("chain3")
    cases = [(lib.algebra("chain2xchain3"),
              [(1, 0, 4, 5), (2, 3, 3, 0), (5, 5, 1, 2)]),
             (chain3, _nabla_smith_seeds(chain3))]
    whole = [power_closure(alg, seeds) for alg, seeds in cases]
    assert len(whole[0]) > 7 and len(whole[1]) == 3 ** 4
    monkeypatch.setattr(core, "_CHUNK", 7)
    clear_memos()  # else the second call returns the memo's rows
    for (alg, seeds), rows in zip(cases, whole):
        assert np.array_equal(power_closure(alg, seeds), rows)
        assert np.array_equal(_run_semi_naive(alg, seeds), rows)


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


# ---------------------------------------------------------------------------
# closure memo


def _relabel(alg, perm):
    """The same algebra with element x renamed perm[x]."""
    perm = np.asarray(perm)
    back = np.argsort(perm)
    tables = {op: perm[alg.tables[op][np.ix_(*[back] * k)] if k
                       else alg.tables[op]]
              for op, k in alg.signature.ops}
    return FinAlgebra(alg.signature, alg.size, tables)


def test_power_closure_seeds_are_checked_as_before():
    z4 = cyclic_group(4)
    for seeds, width, message in (([(0, 1), (2,)], None, "width mismatch"),
                                  ([(0, 1)], 3, "width mismatch"),
                                  ([(0, 4)], None, "out of range"),
                                  ([(-1, 0)], None, "out of range"),
                                  ([], None, "needs seeds or a width")):
        with pytest.raises(ValidationError, match=message):
            power_closure(z4, seeds, width)
    with pytest.raises(ValidationError, match="generator -1 out of range"):
        generate_subuniverse(z4, [1, -1, 4])
    assert power_closure(z4, [], width=2).tolist() == [[0, 0]]


def test_power_closure_refuses_a_width_below_one():
    # refused by name before the seeds are shaped, on a group and on a
    # Heyting semilattice alike; the empty seed () gives width 0 too
    for alg in (cyclic_group(4), chain_hslat(3)):
        for seeds, width in (([], 0), ([], -1), ([()], None)):
            shown = 0 if width is None else width
            with pytest.raises(ValidationError,
                               match=f"width of at least 1, not {shown}$"):
                power_closure(alg, seeds, width)


def test_closure_memo_hit_returns_the_same_read_only_rows():
    d4 = dihedral_group(4)
    seeds = [(1, 0, 1), (0, 2, 2)]
    first = power_closure(d4, seeds)
    # the same set of seed rows, in another order and with repeats
    again = power_closure(d4, seeds[::-1] + seeds)
    assert again is first and len(core._MEMO.entries) == 1
    with pytest.raises(ValueError):
        again[0, 0] = 1
    clear_memos()
    cold = power_closure(d4, seeds)
    assert cold is not first and np.array_equal(cold, first)


def test_closure_memo_drops_its_oldest_rows(monkeypatch):
    d4 = dihedral_group(4)
    seed_sets = [[(1, 0)], [(0, 2)], [(3, 5)]]
    rows = [power_closure(d4, s) for s in seed_sets]
    entries = core._MEMO.entries
    assert [r for _, r in entries.values()] == rows
    costs = [r.nbytes + len(k[2]) + core._MEMO_ENTRY_BYTES
             for k, r in zip(entries, rows)]
    assert len(entries) == 3 and core._MEMO.held == sum(costs)
    # room for the last two entries only: the first one goes
    clear_memos()
    monkeypatch.setattr(core, "MAX_MEMO_BYTES", sum(costs[1:]))
    again = [power_closure(d4, s) for s in seed_sets]
    kept = [r for _, r in core._MEMO.entries.values()]
    assert len(kept) == 2 and kept[0] is again[1] and kept[1] is again[2]
    assert core._MEMO.held == sum(costs[1:])
    assert all(np.array_equal(a, b) for a, b in zip(again, rows))
    # an entry above the bound on its own is not kept, and drops nothing
    monkeypatch.setattr(core, "MAX_MEMO_BYTES", max(costs) - 1)
    clear_memos()
    power_closure(d4, seed_sets[0])
    assert not core._MEMO.entries and core._MEMO.held == 0


def test_closure_memo_keeps_each_algebra_apart():
    z6 = cyclic_group(6)
    twin = FinAlgebra(z6.signature, 6, z6.tables)  # equal tables, new object
    swapped = _relabel(z6, [0, 2, 1, 3, 4, 5])    # 1 and 2 trade names
    algebras = (z6, twin, swapped)
    want = [(0, 2, 4), (0, 2, 4), (0, 1, 2, 3, 4, 5)]
    assert [generate_subuniverse(a, [2]).members for a in algebras] == want
    assert len(core._MEMO.entries) == 3
    assert [generate_subuniverse(a, [2]).members for a in algebras] == want
    assert len(core._MEMO.entries) == 3
    assert [entry[0] for entry in core._MEMO.entries.values()] \
        == list(algebras)
    # an entry under z6's id that holds another algebra is not a hit
    key = next(iter(core._MEMO.entries))
    core._MEMO.entries[key] = (swapped, np.arange(6)[:, None])
    assert generate_subuniverse(z6, [2]).members == (0, 2, 4)


def test_closure_memo_keeps_each_width_apart():
    # (1,) in Z4 and (0, 1) in Z4^2 both have the seed key 1
    z4 = cyclic_group(4)
    narrow = power_closure(z4, [(1,)])
    wide = power_closure(z4, [(0, 1)])
    assert narrow.tolist() == [[0], [1], [2], [3]]
    assert wide.tolist() == [[0, 0], [0, 1], [0, 2], [0, 3]]
    assert len(core._MEMO.entries) == 2
    assert power_closure(z4, [(1,)]) is narrow
    assert power_closure(z4, [(0, 1)]) is wide


def _bytes_cache(limit: list):
    """A cache of byte strings charged their length, limited by
    ``limit[0]``."""
    return core._Cache(lambda: limit[0], lambda key, value: len(value))


def test_cache_drops_its_oldest_entries_by_charge():
    limit = [10]
    cache = _bytes_cache(limit)
    for key, value in (("a", b"1234"), ("b", b"123"), ("c", b"12")):
        assert cache.put(key, value) is value
    assert list(cache.entries) == ["a", "b", "c"] and cache.held == 9
    # 9 + 5 is over 10: "a" goes, which leaves 10
    cache.put("d", b"12345")
    assert list(cache.entries) == ["b", "c", "d"] and cache.held == 10
    assert cache.get("a") is None and cache.get("d") == b"12345"
    # the limit is read at each put: 11 over 6 drops "b", then "c"
    limit[0] = 6
    cache.put("e", b"1")
    assert list(cache.entries) == ["d", "e"] and cache.held == 6


def test_cache_refuses_a_value_above_the_limit_and_keeps_the_others():
    limit = [10]
    cache = _bytes_cache(limit)
    cache.put("a", b"12")
    cache.put("b", b"123")
    big = b"x" * 11
    assert cache.put("c", big) is big
    assert list(cache.entries) == ["a", "b"] and cache.held == 5
    # exactly the limit is kept, and drops the rest
    cache.put("d", b"x" * 10)
    assert list(cache.entries) == ["d"] and cache.held == 10


def test_cache_held_is_the_sum_of_the_kept_charges_and_clear_empties_it():
    limit = [10]
    cache = _bytes_cache(limit)
    cache.put("a", b"1234")
    cache.put("b", b"12")
    # a key put again is charged once, at its new value, as the newest
    cache.put("a", b"1")
    assert list(cache.entries) == ["b", "a"] and cache.held == 3
    for i in range(40):
        cache.put(i % 7, b"x" * (i * 5 % 12))
        assert cache.held == sum(map(len, cache.entries.values())) <= 10
    cache.clear()
    assert cache.entries == {} and cache.held == 0
    assert cache.get(0) is None


def test_kept_makes_once_and_keeps_nothing_when_make_raises():
    z4 = cyclic_group(4)
    calls = []

    def failing(alg):
        calls.append("fail")
        raise ValidationError("no")

    for _ in range(2):
        with pytest.raises(ValidationError):
            core._kept(z4, "_probe", failing)
    assert "_probe" not in z4.__dict__ and calls == ["fail", "fail"]
    first = core._kept(z4, "_probe", lambda alg: calls.append(alg) or [1])
    assert core._kept(z4, "_probe", failing) is first == [1]
    assert calls == ["fail", "fail", z4]


# ---------------------------------------------------------------------------
# the group route against the semi-naive engine


GROUPS_TO_12 = tuple(f"Z{n}" for n in range(1, 13)) + (
    "V4", "S3", "A3", "A4", "D4", "D5", "D6", "Q8", "Dic3")


def _seed_keys(alg, seeds):
    """The strides of alg^m, as ``core._closure`` keys rows, and the keys
    of the seed rows, a 2-d array of m columns."""
    seeds = np.asarray(seeds, dtype=np.int64)
    strides = alg.size ** np.arange(seeds.shape[1] - 1, -1, -1)
    return strides, seeds @ strides


def _both_routes(alg, seeds):
    """The rows of the group route and of the semi-naive engine, each
    called directly on the same seed rows."""
    keys = _seed_keys(alg, seeds)
    return (core._right_closure(alg, *keys), core._semi_naive(alg, *keys))


def _basepoint_fixing_relabel(alg, seed):
    """An isomorphic copy under a seeded permutation that fixes the
    basepoint, as the benchmark makes its carriers, and the permutation."""
    rest = [i for i in range(alg.size) if i != alg.basepoint]
    perm = np.arange(alg.size)
    perm[rest] = np.random.default_rng(seed).permutation(rest)
    return _relabel(alg, perm), perm


def test_the_differential_test_covers_every_group_to_order_12(lib):
    assert set(GROUPS_TO_12) == {
        key for key, profile in lib.algebra_profile.items()
        if profile == "groups" and lib.algebras[key].size <= 12}


@pytest.mark.parametrize("key", GROUPS_TO_12)
def test_group_route_matches_the_semi_naive_engine(lib, key):
    alg = lib.algebra(key)
    copy, perm = _basepoint_fixing_relabel(alg, len(key) + alg.size)
    assert core._group_tables(alg) and core._group_tables(copy)
    e = alg.basepoint
    seed_sets = [[(g,)] for g in range(alg.size)]
    subs = subgroups(alg)
    seed_sets += [[(k, e, k) for k in K.members]
                  + [(e, l, l) for l in L.members]
                  for K, L in itertools.product(subs, repeat=2)]
    congs = congruences(alg)
    seed_sets += [[(a, a, b, b) for a, b in R.all_pairs()]
                  + [(u, v, u, v) for u, v in S.all_pairs()]
                  for R, S in itertools.product(congs, repeat=2)]
    last = alg.size - 1
    seed_sets += [np.empty((0, 2), dtype=np.int64), [(e, e, e)],
                  [(last, 1 % alg.size)] * 3 + [(e, e), (last, 0)]]
    for seeds in seed_sets:
        seeds = np.asarray(seeds, dtype=np.int64)
        fast, slow = _both_routes(alg, seeds)
        assert np.array_equal(fast, slow), (key, seeds)
        # on the copy, against the reference rows carried over and sorted
        fast, _ = _both_routes(copy, perm[seeds])
        moved = perm[slow]
        moved = moved[np.lexsort(moved.T[::-1])]
        assert np.array_equal(fast, moved), (key, seeds)


# ---------------------------------------------------------------------------
# the semi-naive engine against a naive fixpoint


HEYTING = ("chain2", "chain3", "chain4", "diamond", "chain2xchain3")


def _run_semi_naive(alg, seeds):
    """``core._semi_naive`` called directly on the seed rows."""
    return core._semi_naive(alg, *_seed_keys(alg, seeds))


@pytest.mark.parametrize("key", HEYTING)
def test_semi_naive_engine_matches_the_naive_fixpoint(lib, key):
    # on every congruence pair: smith's D^4 seeds, and the D^3 seeds of
    # the joint generation of the normalisations
    alg = lib.algebra(key)
    assert core._group_tables(alg) is None
    bp = alg.basepoint
    congs = congruences(alg)
    for R, S in itertools.product(congs, repeat=2):
        smith_seeds = [(a, a, b, b) for a, b in R.all_pairs()] \
            + [(u, v, u, v) for u, v in S.all_pairs()]
        joint = [(k, bp, k) for k in normalise(R).members] \
            + [(bp, l, l) for l in normalise(S).members]
        for seeds in (smith_seeds, joint):
            factors = (alg,) * len(seeds[0])
            assert np.array_equal(_run_semi_naive(alg, seeds),
                                  naive_closure(factors, seeds)), \
                (key, R.block_id, S.block_id, len(seeds[0]))


def test_no_candidate_is_evaluated_once_the_product_is_full(monkeypatch,
                                                            lib):
    chain3 = lib.algebra("chain3")
    filled, late = [False], []
    mark, apply = core._mark, core._apply

    def marking(found, state):
        new = mark(found, state)
        filled[0] = bool(state.all())
        return new

    def applying(*args):
        for chunk in apply(*args):
            late.append(filled[0])
            yield chunk

    monkeypatch.setattr(core, "_mark", marking)
    monkeypatch.setattr(core, "_apply", applying)
    monkeypatch.setattr(core, "_CHUNK", 7)  # marks within a round
    seeds = _nabla_smith_seeds(chain3)
    rows = _run_semi_naive(chain3, seeds)
    assert len(rows) == 3 ** 4 and late and not any(late)
    # seeds that are the whole product: no round evaluates anything
    everything = list(itertools.product(range(3), repeat=3))
    filled[0], late[:] = False, []
    _run_semi_naive(chain3, everything)
    assert not late


def test_a_key_found_many_times_does_not_make_the_product_full(monkeypatch):
    # z(x, y) = 0 finds one new key four times in the first round, more
    # than the three keys left unseen; u(1) = 2 is evaluated after it
    sig = Signature((("z", 2), ("u", 1), ("top", 0)), "top")
    u = np.arange(5)
    u[1] = 2
    alg = FinAlgebra(sig, 5, {"z": np.zeros((5, 5), dtype=int), "u": u,
                              "top": 4})
    monkeypatch.setattr(core, "_CHUNK", 4)  # a mark after z's four keys
    assert naive_closure((alg,), [(1,)])[:, 0].tolist() == [0, 1, 2, 4]
    assert _run_semi_naive(alg, [(1,)])[:, 0].tolist() == [0, 1, 2, 4]


def _not_quite_groups():
    """Tables that each break one rule of the group check and pass the
    others."""
    sig = cyclic_group(1).signature
    x = np.arange(5)
    # the smallest loop that is not a group: identity 0 and x x = 0, so
    # inv(x) = x; it is not associative
    loop = FinAlgebra(sig, 5, {"mul": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2],
                                       [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                                       [4, 3, 1, 2, 0]],
                               "inv": x, "e": 0})
    # Z4 with basepoint 2 and inv(x) = 2 - x, so that x inv(x) is the
    # basepoint, which is not the identity
    z4 = (x[:4, None] + x[:4]) % 4
    moved = FinAlgebra(sig, 4, {"mul": z4, "inv": (2 - x[:4]) % 4, "e": 2})
    # V4 whose inv swaps two elements of order 2
    v4 = x[:4, None] ^ x[:4]
    swapped = FinAlgebra(sig, 4, {"mul": v4, "inv": [0, 2, 1, 3], "e": 0})
    # D4 with conjugation by the rotation r as a fourth operation; it is
    # listed before inv, so only the signature rule keeps D4 off the route
    d4 = dihedral_group(4)
    mul, inv = d4.tables["mul"], d4.tables["inv"]
    conj_sig = Signature((("mul", 2), ("conj", 1), ("inv", 1), ("e", 0)), "e")
    conj = FinAlgebra(conj_sig, 8, {"mul": mul, "conj": mul[mul[1], inv[1]],
                                    "inv": inv, "e": d4.basepoint})
    return {"not associative": (loop, [(1, 2), (3, 0)]),
            "basepoint not the identity": (moved, [(1, 2)]),
            "inv not inverse": (swapped, [(1, 0)]),
            "an extra operation": (conj, [(4, 1)])}


@pytest.mark.parametrize("case", sorted(_not_quite_groups()))
def test_a_table_that_is_not_a_group_takes_the_semi_naive_engine(
        monkeypatch, case):
    alg, seeds = _not_quite_groups()[case]

    def refuse(*args):
        raise AssertionError("took the group route")

    monkeypatch.setattr(core, "_right_closure", refuse)
    assert np.array_equal(power_closure(alg, seeds),
                          _run_semi_naive(alg, seeds))
    assert core._group_tables(alg) is None


def _group_only_paths_refuse(alg):
    """Every group-only path raises on ``alg``; the default ternary
    strategy is term-depth."""
    whole = Subuniverse(alg, tuple(range(alg.size)))
    for strategy in ("group-fast", "word-oracle"):
        with pytest.raises(ValidationError, match="needs a group"):
            higgins_ternary(alg, whole, whole, whole, strategy)
    for sweep in (subgroups, cyclic_subgroups):
        with pytest.raises(ValidationError, match="needs a group"):
            sweep(alg)
    assert _resolve_ternary_strategy(alg, None) == "term-depth"


@pytest.mark.parametrize("case", sorted(_not_quite_groups()))
def test_group_only_paths_refuse_a_table_that_is_not_a_group(case):
    _group_only_paths_refuse(_not_quite_groups()[case][0])


def test_group_only_paths_refuse_a_group_too_large_to_check(monkeypatch):
    monkeypatch.setattr(core, "MAX_CLOSURE_KEYS", 3 ** 3 - 1)
    _group_only_paths_refuse(_relabel(cyclic_group(3), [0, 1, 2]))


def test_the_group_check_runs_once_per_algebra(monkeypatch):
    calls = []
    check = core._group_check
    monkeypatch.setattr(core, "_group_check",
                        lambda alg: calls.append(alg) or check(alg))
    d4 = dihedral_group(4)
    power_closure(d4, [(1, 2)])
    power_closure(d4, [(3, 0), (5, 5)])
    generate_subuniverse(d4, [6])
    assert calls == [d4]


def test_the_group_check_is_sliced_and_bounded(monkeypatch):
    z60 = cyclic_group(60)   # 216,000 triples of 8 bytes for associativity
    monkeypatch.setattr(core, "_CHUNK", 1 << 12)
    tracemalloc.start()
    try:
        assert core._group_check(z60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 17
    # n^3 above the closure limit: no group, and no table is read
    monkeypatch.setattr(core, "MAX_CLOSURE_KEYS", 60 ** 3 - 1)
    object.__setattr__(z60, "tables", {})
    assert not core._group_check(z60)


# ---------------------------------------------------------------------------
# the Heyting check


def _not_quite_heyting():
    """Tables that each break one rule of the Heyting check and pass the
    others."""
    chain3 = chain_hslat(3)
    sig, meet, imp = chain3.signature, chain3.tables["meet"], \
        chain3.tables["imp"]
    # the left-zero band {0, 1} with the identity 2 adjoined: idempotent
    # and associative with 2 as its top, and imp is its relative
    # pseudocomplement for the preorder z <= y when zy = z, but 0 1 = 0
    # and 1 0 = 1
    band = FinAlgebra(sig, 3, {"meet": [[0, 0, 0], [1, 1, 1], [0, 1, 2]],
                               "imp": [[2, 2, 2], [2, 2, 2], [0, 1, 2]],
                               "top": 2})
    # chain3 pointed at its middle element
    middle = FinAlgebra(sig, 3, {"meet": meet, "imp": imp, "top": 1})
    # chain3 with imp(0, 0) the middle element instead of the top
    wrong = np.array(imp)
    wrong[0, 0] = 1
    one_entry = FinAlgebra(sig, 3, {"meet": meet, "imp": wrong, "top": 2})
    # chain3 with the identity as a third operation
    extra_sig = Signature((("meet", 2), ("id", 1), ("imp", 2), ("top", 0)),
                          "top")
    extra = FinAlgebra(extra_sig, 3, {"meet": meet, "id": np.arange(3),
                                      "imp": imp, "top": 2})
    return {"meet not commutative": band, "top not the top": middle,
            "one wrong imp entry": one_entry, "an extra operation": extra}


@pytest.mark.parametrize("case", sorted(_not_quite_heyting()))
def test_a_table_that_is_not_heyting_takes_the_smith_fixpoint(monkeypatch,
                                                              case):
    alg = _not_quite_heyting()[case]
    assert core._heyting_tables(alg) is None
    fixpoint, calls = commutators._smith_fixpoint, []
    monkeypatch.setattr(commutators, "_smith_fixpoint",
                        lambda *args: calls.append(args) or fixpoint(*args))
    congs = congruences(alg)
    for R, S in itertools.product(congs, repeat=2):
        assert smith(alg, R, S).block_id == fixpoint(alg, R, S).block_id
    assert len(calls) == len(congs) ** 2


def test_the_heyting_check_reads_the_tables_not_the_names():
    # diamond with renamed operations, imp listed before meet
    diamond = diamond_hslat()
    sig = Signature((("to", 2), ("and", 2), ("one", 0)), "one")
    alg = FinAlgebra(sig, 4, {"to": diamond.tables["imp"],
                              "and": diamond.tables["meet"], "one": 3})
    meet, imp = core._heyting_tables(alg)
    assert meet is alg.tables["and"] and imp is alg.tables["to"]
    assert core._heyting_tables(cyclic_group(4)) is None


def test_the_heyting_check_is_sliced_and_bounded(monkeypatch):
    chain60 = chain_hslat(60)   # 216,000 triples for each n^3 rule
    monkeypatch.setattr(core, "_CHUNK", 1 << 12)
    tracemalloc.start()
    try:
        assert core._heyting_check(chain60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 17
    # n^3 above the closure limit: not Heyting, and no table is read
    monkeypatch.setattr(core, "MAX_CLOSURE_KEYS", 60 ** 3 - 1)
    object.__setattr__(chain60, "tables", {})
    assert core._heyting_check(chain60) is None
