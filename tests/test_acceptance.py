"""Acceptance gate: nine numbered behavioural criteria, each with a pinned
wall-clock budget.  Every test prints one ``criterion N: PASS/FAIL`` line;
a criterion asserts exactly what it promises, in full, before its budget
is enforced.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from commwb.commutators import (WeightedCospan, commute_over, higgins_binary,
                                higgins_ternary, is_w_normal, normalise,
                                smith, w_normal_closure)
from commwb.conditions import (admissible, check_ssh_instance,
                               check_w_instance, groups_phi, kernel_images,
                               run_paper_examples)
from commwb.core import generate_subuniverse, identity_hom
from commwb.sweeps import (congruences, cyclic_subgroups, join_subs,
                           subgroups)
from conftest import ACCEPTANCE_LINES, meet_congruence_blocks
from property_suites import (run_commutator_laws, run_core_invariants,
                             run_word_laws)
from sweep_inputs import library_algebras, sample_subgroup_triples

BUDGETS = {1: 1.0, 2: 10.0, 3: 30.0, 4: 30.0, 5: 60.0, 6: 120.0, 7: 60.0,
           8: 120.0, 9: 60.0}

SAMPLE_SEED = 20240823


def _report(num: int, verdict: str, elapsed: float, description: str):
    # Printed (visible under -s) and queued for the terminal summary, so
    # the per-criterion lines survive pytest's output capture.
    line = (f"criterion {num}: {verdict} ({elapsed:.2f}s /"
            f" {BUDGETS[num]:.0f}s budget) — {description}")
    print(line)
    ACCEPTANCE_LINES.append(line)


@contextmanager
def _criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(num, "FAIL", time.perf_counter() - start, description)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= BUDGETS[num]:
        _report(num, "FAIL", elapsed, description)
        raise AssertionError(
            f"criterion {num} exceeded its {BUDGETS[num]:.0f}s budget:"
            f" {elapsed:.2f}s")
    _report(num, "PASS", elapsed, description)


def test_criterion_1(lib):
    """The bundled semilattice instance: commuting kernel images, yet no
    fill-in, with the conflict at the recorded elements."""
    with _criterion(1, "semilattice fill-in counterexample reproduced"):
        d = lib.diagrams["paper/hslat-adm"]
        verdict = check_ssh_instance(d)
        assert verdict.hypothesis_holds
        assert verdict.conclusion_holds is False
        out = admissible(d)
        P = out.square.carrier
        labels = {P.label(i) for i in out.conflict.involved}
        assert {"(0,a)", "(1/2,1)"} <= labels
        summary = run_paper_examples("hslat-ssh")["hslat-ssh"]
        assert summary["verdict_satisfies"] is False


def test_criterion_2(lib):
    """The symmetric-group weighted instance: commuting legs whose
    weighted ternary commutator is the alternating subgroup, detected by
    the exact strategy, the weighted checker, and the word oracle at
    bound 8."""
    with _criterion(2, "weighted ternary counterexample reproduced"):
        s3 = lib.algebra("S3")
        c2 = generate_subuniverse(s3, [2])
        full = generate_subuniverse(s3, [2, 3])
        a3 = (0, 3, 4)
        assert higgins_binary(s3, c2, c2).is_zero()
        assert w_normal_closure(s3, c2, identity_hom(s3)).members == \
            tuple(range(6))
        assert higgins_binary(s3, full, full).members == a3
        assert higgins_ternary(s3, c2, c2, full,
                               "group-fast").result.members == a3
        verdict = check_w_instance(lib.cospans["paper/s3-w"])
        assert verdict.hypothesis_holds
        assert verdict.conclusion_holds is False
        assert not verdict.instance_satisfies
        oracle10 = higgins_ternary(s3, c2, c2, full, "word-oracle",
                                   word_bound=10)
        assert oracle10.result.members == a3
        oracle8 = higgins_ternary(s3, c2, c2, full, "word-oracle",
                                  word_bound=8)
        assert not oracle8.result.is_zero(), (
            "the word oracle at bound 8 must return a nontrivial subgroup,"
            " but every kernel word here needs 10 syllables — bound 8"
            " yields only the trivial subgroup (bound 10 yields the full"
            " alternating subgroup, as asserted above)")


def test_criterion_3(lib):
    """On every small split-group instance whose kernel images commute,
    the explicit fill-in formula validates and agrees pointwise with the
    closure-derived fill-in."""
    with _criterion(3, "explicit group fill-in formula agrees with"
                       " closure"):
        checked = 0
        for key in sorted(lib.diagrams):
            if not key.startswith("groups/"):
                continue
            d = lib.diagrams[key]
            assert max(obj.size for obj in (d.f.dom, d.f.cod, d.g.dom,
                                            d.target)) <= 24
            X, Y = kernel_images(d)
            if not higgins_binary(d.target, X, Y).is_zero():
                continue
            phi = groups_phi(d)
            assert phi.is_valid
            out = admissible(d)
            e1, e2 = out.square.induced["e1"], out.square.induced["e2"]
            assert np.array_equal(phi.map[e1.map], d.alpha.map)
            assert np.array_equal(phi.map[e2.map], d.gamma.map)
            assert np.array_equal(phi.map, out.phi.map)
            checked += 1
        assert checked >= 5


def test_criterion_4(lib):
    """Semilattice carriers are arithmetical: binary commutators of
    normal subobjects are intersections, centralising congruences are
    meets, across every bundled instance of size at most nine."""
    with _criterion(4, "semilattice commutators collapse to meets"):
        for key, alg in library_algebras(lib, "hslat", 9):
            congs = congruences(alg)
            normals = {}
            for theta in congs:
                sub = normalise(theta)
                normals[sub.members] = sub
            for K, L in itertools.product(normals.values(), repeat=2):
                want = tuple(sorted(set(K.members) & set(L.members)))
                assert higgins_binary(alg, K, L).members == want, \
                    (key, K.members, L.members)
            for R, S in itertools.product(congs, repeat=2):
                assert smith(alg, R, S).block_id == \
                    meet_congruence_blocks(R, S), key


def test_criterion_5(lib):
    """For every congruence pair on every bundled group of size at most
    twelve, the centralising congruence is trivial exactly when the
    binary commutator of the normalisations is."""
    with _criterion(5, "congruence and subobject centrality coincide on"
                       " groups"):
        for key, alg in library_algebras(lib, "groups", 12):
            for R, S in itertools.product(congruences(alg), repeat=2):
                assert smith(alg, R, S).is_delta() == \
                    higgins_binary(alg, normalise(R),
                                   normalise(S)).is_zero(), key


def test_criterion_6(lib):
    """Join decomposition: [K, L∨M] = [K,L] ∨ [K,M] ∨ [K,L,M] on one
    hundred sampled subgroup triples from groups of size at most
    sixteen, with the bounded word oracle inside the exact strategy on
    every sample."""
    with _criterion(6, "ternary term closes the binary join formula"):
        entries = library_algebras(lib, "groups", 16)
        triples = sample_subgroup_triples(entries, 100, seed=SAMPLE_SEED)
        assert len(triples) == 100
        for key, D, K, L, M in triples:
            left = higgins_binary(D, K, join_subs(D, L, M))
            tern = higgins_ternary(D, K, L, M, "group-fast")
            right = join_subs(D, higgins_binary(D, K, L),
                              higgins_binary(D, K, M), tern.result)
            assert left.members == right.members, \
                (key, K.members, L.members, M.members)
            oracle = higgins_ternary(D, K, L, M, "word-oracle",
                                     word_bound=10)
            assert oracle.result.issubset(tern.result), key


def test_criterion_7(lib):
    """Both nilpotent eight-element groups have identically trivial
    ternary commutators, on all subgroup triples, under the exact and
    the bounded-word strategies."""
    with _criterion(7, "nilpotency of class two kills every ternary"
                       " commutator"):
        for key in ("D4", "Q8"):
            alg = lib.algebra(key)
            for K, L, M in itertools.product(subgroups(alg), repeat=3):
                assert higgins_ternary(alg, K, L, M,
                                       "group-fast").result.is_zero(), key
                assert higgins_ternary(alg, K, L, M, "word-oracle",
                                       word_bound=10).result.is_zero(), key


def test_criterion_8(lib):
    """On every weight-proper cospan of cyclic subgroup inclusions over
    bundled groups of size at most twelve, the commutator-vanishing
    criterion and the kernel-functor criterion return the same verdict."""
    with _criterion(8, "weighted strategies agree on all proper cyclic"
                       " cospans"):
        prof = lib.profiles["groups"]
        agreed = 0
        for key, alg in library_algebras(lib, "groups", 12):
            cyc = cyclic_subgroups(alg)
            incl = {c.members: c.inclusion_hom() for c in cyc}
            proper_memo = {}

            def proper(sub, w, wm):
                state = proper_memo.get((wm, sub.members))
                if state is None:
                    state = is_w_normal(alg, sub, w)
                    proper_memo[(wm, sub.members)] = state
                return state

            for X, Y, W in itertools.product(cyc, repeat=3):
                w = incl[W.members]
                if not (proper(X, w, W.members) and proper(Y, w, W.members)):
                    continue
                c = WeightedCospan(x=incl[X.members], y=incl[Y.members],
                                   w=w)
                v1, _ = commute_over(c, "proper-commutators")
                v2, _ = commute_over(c, "ssh-kernel", profile=prof)
                assert v1 == v2, (key, X.members, Y.members, W.members)
                agreed += 1
        assert agreed >= 1500


def test_criterion_9():
    """The randomized law suites cover at least a thousand generated
    cases across core invariants, commutator laws, and word laws."""
    with _criterion(9, "randomized law suites at full volume"):
        total = run_core_invariants() + run_commutator_laws() \
            + run_word_laws()
        assert total >= 1000
