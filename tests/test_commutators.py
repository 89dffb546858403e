"""Cooperators, Higgins/Smith/weighted commutators, closures."""

import itertools

import numpy as np
import pytest

from commwb import commutators, core, sweeps
from commwb.commutators import (WEIGHTED_STRATEGIES, CommutatorReport,
                                WeightedCospan, commute_over, cooperator,
                                higgins_binary, higgins_ternary, is_w_normal,
                                normalise, smith, w_normal_closure)
from commwb.core import (Congruence, FinAlgebra, Signature, Subuniverse,
                         ValidationError, check_hom, generate_congruence,
                         generate_subuniverse, identity_hom, image_sub,
                         power_closure)
from commwb.sweeps import congruences, cyclic_subgroups, join_subs, subgroups
from commwb.varieties import (chain_hslat, cyclic_group, dihedral_group,
                              symmetric_group)
from conftest import (brute_binary_commutator, clear_memos, is_diagonal,
                      reference_group_fast)
from sweep_inputs import library_algebras
from test_core import _relabel


def _sub(alg, *gens):
    return generate_subuniverse(alg, gens)


# ---------------------------------------------------------------------------
# cooperator


def test_cooperator_exists_for_commuting_pair():
    z6 = cyclic_group(6)
    K, L = _sub(z6, 2), _sub(z6, 3)
    out = cooperator(z6, K, L)
    assert out.exists and bool(out) and out.conflict is None
    assert out.commutator.is_zero()
    # the joint-generation rows are the graph of the cooperating map, and
    # that map is addition on the grid: in particular it restricts to the
    # two inclusions along the axes
    seeds = [(k, 0, k) for k in K.members] + [(0, l, l) for l in L.members]
    rows = {tuple(int(v) for v in row)
            for row in power_closure(z6, seeds, width=3)}
    assert rows == {(k, l, (k + l) % 6) for k in K.members for l in L.members}


def test_cooperator_rejects_a_non_maltsev_instance():
    # one binary left projection: joint generation stays on the two axes,
    # so it is single-valued but reaches only 3 of the 4 pairs of K x L
    sig = Signature(ops=(("lp", 2), ("e", 0)), basepoint_op="e")
    lp = np.repeat(np.arange(3)[:, None], 3, axis=1)
    alg = FinAlgebra(sig, 3, {"lp": lp, "e": np.asarray(0)})
    K, L = Subuniverse(alg, (0, 1)), Subuniverse(alg, (0, 2))
    with pytest.raises(ValidationError, match="input not Mal'tsev") as err:
        cooperator(alg, K, L)
    assert err.value.witness == (3, 4)


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


def test_joint_generations_from_the_memo_match_cold_ones(monkeypatch, lib):
    groups = [a for key, a in lib.algebras.items()
              if lib.algebra_profile[key] == "groups" and a.size <= 12]
    assert len(groups) == 21
    # through the D^3 trace, which a group's commutators would spare
    monkeypatch.setattr(commutators, "_group_tables", lambda D: None)

    def answers(D, K, L, cold):
        got = []
        for call in (cooperator, higgins_binary):
            if cold:
                clear_memos()
            got.append(call(D, K, L))
        out, binary = got
        return out.conflict, out.commutator.members, binary.members

    for D in groups:
        pairs = list(itertools.product(cyclic_subgroups(D), repeat=2))
        warm = [answers(D, K, L, False) for K, L in pairs]
        assert [answers(D, K, L, False) for K, L in pairs] == warm
        for (K, L), got in zip(pairs, warm):
            assert answers(D, K, L, True) == got, (D.name, K.members,
                                                   L.members)


def test_group_routes_match_the_joint_generation_trace(monkeypatch, lib):
    # on every ordered pair (K, L) of subgroups of every catalogue group:
    # [K, L], the cooperator's conflict, and w-normality and the w-normal
    # closure of L under a weight with image K, against the D^3 trace
    def answers(D, subs, incl):
        out = []
        for (K, k), (L, _) in itertools.product(zip(subs, incl), repeat=2):
            coop = cooperator(D, K, L)
            out.append((higgins_binary(D, K, L).members,
                        coop.commutator.members, coop.conflict,
                        is_w_normal(D, L, k),
                        w_normal_closure(D, L, k).members))
        return out

    fast = {}
    for key, D in library_algebras(lib, "groups"):
        subs = subgroups(D)
        incl = [s.inclusion_hom() for s in subs]
        fast[key] = subs, incl, answers(D, subs, incl)
    assert len(fast) == 23
    got = [a for _, _, out in fast.values() for a in out]
    assert len(got) == 1194
    assert sum(conflict is not None for _, _, conflict, _, _ in got) == 626
    assert sum(not normal for _, _, _, normal, _ in got) == 371
    monkeypatch.setattr(commutators, "_group_tables", lambda D: None)
    for key, D in library_algebras(lib, "groups"):
        subs, incl, out = fast[key]
        want = answers(D, subs, incl)
        for (K, L), a, b in zip(itertools.product(subs, repeat=2), out,
                                want):
            assert a == b, (key, K.members, L.members)


def _memo_cost(key, comm) -> int:
    """The charge of one entry of the group-commutator memo: 8 bytes a
    member of K, L and [K, L], and the closure memo's per-entry bytes."""
    return 8 * (len(key[1]) + len(key[2]) + len(comm)) \
        + core._MEMO_ENTRY_BYTES


def test_group_questions_from_the_commutator_memo_match_cold_ones(lib):
    # every ordered pair (K, L) of subgroups of every catalogue group, and
    # every pair of congruences: twice from a warm memo, then once with
    # the memo emptied before each call
    def answers(D, subs, incl, congs, cold):
        def ask(call, *args):
            if cold:
                commutators._COMMUTATORS.clear()
            return call(D, *args)

        out = []
        for (K, k), (L, _) in itertools.product(zip(subs, incl), repeat=2):
            coop = ask(cooperator, K, L)
            out.append((ask(higgins_binary, K, L).members,
                        coop.commutator.members, coop.conflict,
                        ask(is_w_normal, L, k),
                        ask(w_normal_closure, L, k).members))
        out += [ask(smith, R, S).block_id
                for R, S in itertools.product(congs, repeat=2)]
        return out

    pairs = cong_pairs = 0
    for key, D in library_algebras(lib, "groups"):
        subs, congs = subgroups(D), congruences(D)
        incl = [s.inclusion_hom() for s in subs]
        pairs += len(subs) ** 2
        cong_pairs += len(congs) ** 2
        warm = answers(D, subs, incl, congs, False)
        assert answers(D, subs, incl, congs, False) == warm, key
        assert answers(D, subs, incl, congs, True) == warm, key
    assert (pairs, cong_pairs) == (1194, 399)


def test_group_commutator_memo_keeps_relabelled_copies_apart():
    # r2 (2) is central in D4 and s (4) is not; in the copy they trade
    # names, so (0, 2) is a subgroup of both, [D4, (0, 2)] trivial in D4
    # and (0, 4) in the copy, where (0, 2) is not normal
    d4 = dihedral_group(4)
    copy = _relabel(d4, [0, 1, 4, 3, 2, 5, 6, 7])
    want = {d4: ((0,), True), copy: ((0, 4), False)}
    first = {}
    for _ in range(2):
        for D in (d4, copy):
            K, L = Subuniverse(D, range(8)), Subuniverse(D, (0, 2))
            comm = higgins_binary(D, K, L)
            normal = is_w_normal(D, L, K.inclusion_hom())
            assert (comm.members, normal) == want[D], D.name
            # the second time round, a hit
            assert first.setdefault(D, comm) is comm
    assert len(commutators._COMMUTATORS.entries) == 2
    assert [e[0] for e in commutators._COMMUTATORS.entries.values()] \
        == [d4, copy]
    # an entry under d4's key that holds the copy is not a hit
    key = next(iter(commutators._COMMUTATORS.entries))
    commutators._COMMUTATORS.entries[key] = (copy, first[copy])
    K, L = Subuniverse(d4, range(8)), Subuniverse(d4, (0, 2))
    assert higgins_binary(d4, K, L).members == (0,)


def test_group_commutator_memo_holds_a_pair_and_its_mirror_once():
    # [K, L] = [L, K] on a group, so asking (L, K) after (K, L) is a hit
    s3 = symmetric_group(3)
    K, L = _sub(s3, 1), _sub(s3, 3)
    comm = higgins_binary(s3, K, L)
    assert len(commutators._COMMUTATORS.entries) == 1
    assert higgins_binary(s3, L, K) is comm
    assert cooperator(s3, L, K).commutator is comm
    assert len(commutators._COMMUTATORS.entries) == 1
    # the cold answer of the mirror is the same subgroup
    clear_memos()
    assert higgins_binary(s3, L, K).members == comm.members


def test_group_commutator_memo_drops_its_oldest_entries(monkeypatch):
    s3 = symmetric_group(3)
    pairs = [(_sub(s3, 1), _sub(s3, 3)), (_sub(s3, 3), _sub(s3, 4)),
             (_sub(s3, 1, 3), _sub(s3, 1, 3))]
    comms = [higgins_binary(s3, K, L) for K, L in pairs]
    memo = commutators._COMMUTATORS
    assert [e[1] for e in memo.entries.values()] == comms
    costs = [_memo_cost(k, c) for k, c in zip(memo.entries, comms)]
    assert len(memo.entries) == 3 and memo.held == sum(costs)
    # room for the last two entries only: the first one goes
    clear_memos()
    monkeypatch.setattr(core, "MAX_MEMO_BYTES", sum(costs[1:]))
    again = [higgins_binary(s3, K, L) for K, L in pairs]
    kept = [e[1] for e in memo.entries.values()]
    assert len(kept) == 2 and kept[0] is again[1] and kept[1] is again[2]
    assert memo.held == sum(costs[1:]) == sum(
        _memo_cost(k, e[1]) for k, e in memo.entries.items())
    assert [c.members for c in again] == [c.members for c in comms]
    # an entry above the bound on its own is not kept, and drops nothing
    monkeypatch.setattr(core, "MAX_MEMO_BYTES", min(costs) - 1)
    clear_memos()
    assert higgins_binary(s3, *pairs[0]).members == comms[0].members
    assert not memo.entries and memo.held == 0


def test_basepoint_parts_are_checked_when_an_operation_moves_the_basepoint():
    # mul is constantly 1 and the basepoint is 0: the trace {0} and the
    # basepoint block of the diagonal are not closed
    sig = Signature(ops=(("mul", 2), ("e", 0)), basepoint_op="e")
    A = FinAlgebra(sig, 2, {"mul": np.ones((2, 2), dtype=np.int64),
                            "e": np.array(0)})
    K = Subuniverse(A, (0, 1))
    for call in (higgins_binary, cooperator):
        with pytest.raises(ValidationError, match="'mul'"):
            call(A, K, K)
    with pytest.raises(ValidationError, match="'mul'"):
        normalise(Congruence.delta(A))


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
    # {0, 1} is a subalgebra but no filter (0 <= 1/2), and its commutator
    # with {1/2, 1} is not their intersection {1}
    ends = Subuniverse(c3, (0, 2))
    assert higgins_binary(c3, ends, half).members == (1, 2)
    assert higgins_binary(c3, half, ends).members == (1, 2)


def _heyting_keys(lib):
    keys = [key for key in sorted(lib.algebras)
            if lib.algebra_profile[key] == "hslat"]
    assert len(keys) == 10
    return keys


def _up_closed(D, sub) -> bool:
    """Whether a subuniverse of a Heyting semilattice is a filter: every
    y with k <= y, meet(k, y) = k, for a member k is a member."""
    meet = core._heyting_tables(D)[0]
    return all(y in sub.members for k in sub.members for y in range(D.size)
               if meet[k, y] == k)


def _trace(D, K, L) -> tuple:
    return commutators._binary_commutator(
        D, commutators._triple_trace(D, K, L)).members


def test_higgins_binary_on_heyting_semilattices_matches_the_trace(lib):
    # filters are the normalisations of the congruences (Nemitz 1965): on
    # every pair of them the trace is the intersection.  On every pair of
    # subalgebras generated by at most 2 elements that are not both
    # filters, higgins_binary is the trace, which the intersection often
    # is not
    filter_pairs = other_pairs = wrong_meets = 0
    for key in _heyting_keys(lib):
        D = lib.algebra(key)
        filters = [normalise(theta) for theta in congruences(D)]
        for K, L in itertools.product(filters, repeat=2):
            want = tuple(sorted(set(K.members) & set(L.members)))
            assert _trace(D, K, L) == want, (key, K.members, L.members)
            assert higgins_binary(D, K, L).members == want
            filter_pairs += 1
        small = sorted({_sub(D, *gens).members for r in range(3)
                        for gens in itertools.combinations(range(D.size), r)})
        small = [Subuniverse(D, m) for m in small]
        for K, L in itertools.product(small, repeat=2):
            if _up_closed(D, K) and _up_closed(D, L):
                continue
            want = _trace(D, K, L)
            assert higgins_binary(D, K, L).members == want, \
                (key, K.members, L.members)
            wrong_meets += want != tuple(sorted(set(K.members)
                                                & set(L.members)))
            other_pairs += 1
    assert (filter_pairs, other_pairs, wrong_meets) == (200, 708, 554)
    # on chain3 (0 < 1/2 < 1), [{0, 1}, {1/2, 1}] is {1/2, 1}, not {1}
    c3 = lib.algebra("chain3")
    assert _trace(c3, Subuniverse(c3, (0, 2)), Subuniverse(c3, (1, 2))) \
        == (1, 2)


def test_higgins_binary_of_two_filters_builds_no_trace(monkeypatch, lib):
    # the normalisations of every congruence pair of every Heyting key
    # are filters, answered with no D^3 closure; a pair that is not two
    # filters still closes once
    instances = [(lib.algebra(key), normalise(R), normalise(S))
                 for key in _heyting_keys(lib)
                 for R, S in itertools.product(
                     congruences(lib.algebra(key)), repeat=2)]
    assert len(instances) == 200
    calls = []
    real = commutators.power_closure

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(commutators, "power_closure", counting)
    for D, K, L in instances:
        higgins_binary(D, K, L)
    assert calls == []
    c3 = lib.algebra("chain3")
    higgins_binary(c3, Subuniverse(c3, (0, 2)), Subuniverse(c3, (1, 2)))
    assert calls == [c3]


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


def test_word_oracle_equals_group_fast_on_every_subgroup_triple(lib):
    # both routes are lower bounds by construction, and group-fast reports
    # complete: an oracle value outside it would disprove that claim; at
    # bound 10 the two are equal on every triple of these groups
    for key, alg in library_algebras(lib, "groups", 12):
        for K, L, M in itertools.combinations_with_replacement(
                subgroups(alg), 3):
            fast = higgins_ternary(alg, K, L, M, "group-fast")
            oracle = higgins_ternary(alg, K, L, M, "word-oracle",
                                     word_bound=10)
            assert oracle.result.members == fast.result.members, \
                (key, K.members, L.members, M.members)


def test_group_fast_matches_the_grid_reference_on_every_catalogue_triple(
        lib):
    # the trivial answer is read off the memo of [K, L] and its rotations;
    # the reference builds the three double-bracket grids on every triple.
    # Each group's triples are asked in one pass just after the memos are
    # cleared, then in two passes with the memos warm from all of them
    def seen(r):
        return r.result.members, r.strategy, r.complete, r.witnesses

    triples = nontrivial = 0
    for key, alg in library_algebras(lib, "groups"):
        mul, inv = core._group_tables(alg)
        ordered = list(itertools.product(subgroups(alg), repeat=3))
        expected = [seen(reference_group_fast(alg, mul, inv, *t))
                    for t in ordered]
        clear_memos()
        for _ in range(3):
            for t, want in zip(ordered, expected):
                assert seen(higgins_ternary(alg, *t, "group-fast")) == want, \
                    (key, *(s.members for s in t))
        triples += len(ordered)
        nontrivial += sum(want[0] != (alg.basepoint,) for want in expected)
    assert (triples, nontrivial) == (15172, 6881)


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
    # the matrix algebra of a 90-element carrier lives in its fourth power,
    # 65,610,000 rows; a chain whose imp is its meet is neither a group nor
    # a Heyting semilattice, so it needs that matrix
    chain = chain_hslat(90)
    alg = FinAlgebra(chain.signature, 90,
                     {**chain.tables, "imp": chain.tables["meet"]})
    assert core._heyting_tables(alg) is None
    nabla = generate_congruence(alg, [(0, 89)])
    with pytest.raises(ValidationError, match="65,610,000 rows"):
        smith(alg, nabla, nabla)


def test_smith_on_a_heyting_semilattice_needs_no_matrix_above_order_64():
    chain = chain_hslat(90)
    nabla = generate_congruence(chain, [(0, 89)])
    theta = generate_congruence(chain, [(45, 89)])   # the filter above 45
    assert nabla.num_blocks == 1 and theta.num_blocks == 46
    assert smith(chain, nabla, nabla).block_id == nabla.block_id
    assert smith(chain, nabla, theta).block_id == theta.block_id


def test_smith_on_a_group_needs_no_matrix_above_order_64():
    z90, d45 = cyclic_group(90), dihedral_group(45)
    nabla = generate_congruence(z90, [(0, 1)])
    assert is_diagonal(smith(z90, nabla, nabla))
    # [D45, D45] is the rotations: two blocks
    nabla = generate_congruence(d45, [(0, i) for i in range(90)])
    assert nabla.num_blocks == 1
    assert smith(d45, nabla, nabla).blocks() == (tuple(range(45)),
                                                 tuple(range(45, 90)))


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


def _use_the_worklist(monkeypatch):
    """Send the congruence generation of ``smith``'s fixpoint and of the
    congruence sweep through the worklist, which every signature takes.
    The closures keep their routes: masking the group check in ``core``
    would also send the D^4 closures to the semi-naive engine, which the
    tests of ``tests/test_core.py`` already compare with the group route,
    at about fifty times the cost here."""
    def worklist(algebra, pairs):
        return core._congruence_worklist(
            algebra, [(int(a), int(b)) for a, b in pairs])

    monkeypatch.setattr(commutators, "generate_congruence", worklist)
    monkeypatch.setattr(sweeps, "generate_congruence", worklist)


def test_group_routes_match_the_worklist_and_the_fixpoint(monkeypatch, lib):
    # on every congruence pair of every catalogue group
    fast = {}
    for key, D in library_algebras(lib, "groups"):
        congs = congruences(D)
        fast[key] = congs, [smith(D, R, S)
                            for R, S in itertools.product(congs, repeat=2)]
    assert len(fast) == 23
    _use_the_worklist(monkeypatch)
    for key, D in library_algebras(lib, "groups"):
        congs, got = fast[key]
        assert [t.block_id for t in congruences(D)] == \
            [t.block_id for t in congs], key
        for (R, S), theta in zip(itertools.product(congs, repeat=2), got):
            Congruence(D, theta.block_id)  # canonical and compatible
            want = commutators._smith_fixpoint(D, R, S)
            assert theta.block_id == want.block_id, (key, R, S)


def test_smith_on_heyting_semilattices_matches_the_fixpoint(lib):
    # Heyting semilattices form a congruence-distributive variety, so
    # [R, S] is R ∧ S; checked against the D^4 fixpoint on every
    # congruence pair of every Heyting catalogue key
    pairs = 0
    for key in sorted(lib.algebras):
        if lib.algebra_profile[key] != "hslat":
            continue
        D = lib.algebra(key)
        assert core._heyting_tables(D) is not None, key
        for R, S in itertools.product(congruences(D), repeat=2):
            theta = smith(D, R, S)
            Congruence(D, theta.block_id)  # canonical and compatible
            want = commutators._smith_fixpoint(D, R, S)
            assert theta.block_id == want.block_id, (key, R, S)
            pairs += 1
    assert pairs == 200


def test_smith_is_huq_on_every_congruence_pair(lib):
    # [R, S] is the congruence of [N_R, N_S], the joint-generation trace of
    # the basepoint blocks in D^3, built here because higgins_binary reads
    # [N_R, N_S] off commutators on a group; its cosets are found by brute
    # force
    for key, D in library_algebras(lib, "groups"):
        mul = D.tables["mul"].tolist()
        for R, S in itertools.product(congruences(D), repeat=2):
            N_R, N_S = normalise(R), normalise(S)
            H = commutators._binary_commutator(
                D, commutators._triple_trace(D, N_R, N_S)).members
            cosets = Congruence.from_raw_ids(
                D, [min(mul[x][h] for h in H) for x in range(D.size)])
            assert smith(D, R, S).block_id == cosets.block_id, (key, R, S)


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
    # on a group every joint generation is read off commutators, with no
    # D^3 closure.  On a semilattice a call makes three: two w-normality
    # checks and [X, Y], or two w-normal closures and the cooperator; the
    # trace runs once for each but a commutator of two filters
    calls, generations, traced = [], [], []
    real = commutators.power_closure
    real_binary, real_cooperator = higgins_binary, cooperator

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    def binary(D, K, L):
        generations.append(D)
        if not (_up_closed(D, K) and _up_closed(D, L)):
            traced.append(D)
        return real_binary(D, K, L)

    def cooperating(D, K, L):
        generations.append(D)
        traced.append(D)
        return real_cooperator(D, K, L)

    monkeypatch.setattr(commutators, "power_closure", counting)
    skipped = 0
    carriers = ((symmetric_group(3), 0), (lib.algebras["chain3"], 3),
                (lib.algebras["diamond"], 3))
    for D, closures in carriers:
        if closures:
            monkeypatch.setattr(commutators, "higgins_binary", binary)
            monkeypatch.setattr(commutators, "cooperator", cooperating)
        subs = {generate_subuniverse(D, (i,)).members for i in range(D.size)}
        incl = [Subuniverse(D, m).inclusion_hom() for m in sorted(subs)]
        proper = [(x, y, w) for x, y, w in itertools.product(incl, repeat=3)
                  if is_w_normal(D, image_sub(x), w)
                  and is_w_normal(D, image_sub(y), w)]
        assert proper
        for x, y, w in proper:
            c = WeightedCospan(x=x, y=y, w=w)
            for strategy in WEIGHTED_STRATEGIES:
                for seen in (calls, generations, traced):
                    seen.clear()
                commute_over(c, strategy, profile=lib.profiles["groups"])
                assert len(generations) == closures, (D.name, strategy)
                assert len(calls) == len(traced), (D.name, strategy)
                skipped += closures - len(calls)
    assert skipped > 0


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


def test_proper_commutators_is_the_join_of_binary_and_ternary(lib):
    # commute_over skips the join when [X, Y, W] lies in [X, Y]; the
    # reference always generates [X, Y] ∪ [X, Y, W].  Over groups, the
    # 1,842 proper cyclic cospans of order at most 12; over chain3, chain4
    # and diamond, where the ternary route is term-depth, the w-proper
    # cospans of one-generated subalgebras
    def cospans(D, subs):
        incl = {s.members: s.inclusion_hom() for s in subs}
        for X, Y, W in itertools.product(subs, repeat=3):
            w = incl[W.members]
            if is_w_normal(D, X, w) and is_w_normal(D, Y, w):
                yield D, X, Y, W, WeightedCospan(
                    x=incl[X.members], y=incl[Y.members], w=w)

    def one_generated(D):
        return [Subuniverse(D, m) for m in sorted(
            {_sub(D, i).members for i in range(D.size)})]

    def expected(D, X, Y, W):
        cap, bp = commutators._WITNESS_CAP, D.basepoint
        binary = higgins_binary(D, X, Y)
        ternary = higgins_ternary(D, X, Y, W, "group-fast"
                                  if core._group_tables(D) else "term-depth")
        total = generate_subuniverse(
            D, set(binary.members) | set(ternary.result.members))
        trace = tuple(("trace", bp, bp, d) for d in binary.members
                      if d != bp)[:cap]
        return total.members, trace + ternary.witnesses[:cap]

    groups = [c for _, alg in library_algebras(lib, "groups", 12)
              for c in cospans(alg, cyclic_subgroups(alg))]
    others = [c for key in ("chain3", "chain4", "diamond")
              for c in cospans(lib.algebra(key),
                               one_generated(lib.algebra(key)))]
    assert (len(groups), len(others)) == (1842, 117)
    for D, X, Y, W, c in groups + others:
        _, report = commute_over(c, "proper-commutators")
        assert (report.result.members, report.witnesses) == \
            expected(D, X, Y, W), (D.name, X.members, Y.members, W.members)


def test_commutator_report_witness_membership_enforced():
    s3 = symmetric_group(3)
    sub = _sub(s3, 3)
    with pytest.raises(ValidationError):
        CommutatorReport(result=sub, strategy="group-fast", complete=True,
                         witnesses=(("trace", 0, 0, 5),))
