"""Run the randomized law suites at their standing seeds."""

import itertools

from commwb.commutators import higgins_binary, normalise
from commwb.core import (Congruence, Subuniverse, generate_congruence,
                         generate_subuniverse)
from commwb.sweeps import congruences
from property_suites import (run_commutator_laws, run_core_invariants,
                             run_word_laws)


def test_core_invariant_suite():
    assert run_core_invariants() >= 400


def test_commutator_law_suite():
    assert run_commutator_laws() >= 320


def test_word_law_suite():
    assert run_word_laws() >= 380


def test_suites_cover_a_thousand_cases_together():
    total = run_core_invariants(seed=99, cases=100) \
        + run_commutator_laws(seed=99, cases=100) \
        + run_word_laws(seed=99, cases=100)
    assert total == 300    # alternate seeds exercise fresh instances


def test_trusted_results_pass_the_public_checks(lib):
    """The closures, traces and basepoint blocks built without a re-check,
    over every catalogue algebra up to order 12, equal the checked
    constructors on the same members or block ids."""
    algebras = [a for key, a in sorted(lib.algebras.items())
                if "/" not in key and a.size <= 12]
    assert len(algebras) == 27

    def same_sub(sub):
        assert Subuniverse(sub.parent, sub.members).members == sub.members

    for D in algebras:
        assert D.fixes_basepoint        # so the traces are trusted too
        singly = [generate_subuniverse(D, [g]) for g in range(D.size)]
        for sub in singly:
            same_sub(sub)
        for pair in itertools.combinations(range(D.size), 2):
            theta = generate_congruence(D, [pair])
            assert Congruence(D, theta.block_id).block_id == theta.block_id
        for K, L in itertools.product(singly, repeat=2):
            same_sub(higgins_binary(D, K, L))
        for theta in congruences(D):
            same_sub(normalise(theta))
