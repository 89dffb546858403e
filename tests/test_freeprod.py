"""Reduced words in free products and the kernel-word machinery.

The fast kernel-word engine and the definitional enumerator are
independent routes to the same sets; their agreement is asserted here on
fixed instances, together with frozen counts for the bundled worked
example (two order-2 subgroups and the full group inside S3).
"""

import itertools

import numpy as np
import pytest

import commwb._kernel_search as kernel_search
from commwb._kernel_search import iter_word_records, ternary_kernel_words
from commwb.commutators import higgins_ternary
from commwb.core import Subuniverse, check_hom
from commwb.varieties import cyclic_group, dihedral_group, symmetric_group
from freeprod import (cosmash_kernel_words, delete_factor, evaluate,
                      identity_word, make_word, word_inverse, word_multiply)


def _c2_c2_s3():
    """The bundled instance: two copies of <(12)> and all of S3."""
    s3 = symmetric_group(3)
    c2 = Subuniverse(s3, (0, 2))
    full = Subuniverse(s3, tuple(range(6)))
    return s3, (c2, c2, full)


@pytest.fixture(scope="module")
def c2_c2_s3_words():
    """The bundled instance's factors, their inclusions into S3 and every
    co-smash kernel word up to bound 10, enumerated once for the module."""
    _, subs = _c2_c2_s3()
    homs = tuple(s.inclusion_hom() for s in subs)
    factors = tuple(h.dom for h in homs)
    return factors, homs, list(cosmash_kernel_words(factors, max_len=10))


def _record_pairs(buf):
    """Syllable tuples of every record in an engine buffer."""
    out = set()
    for length, flat in iter_word_records(buf):
        out.add(tuple((int(flat[2 * i]), int(flat[2 * i + 1]))
                      for i in range(length)))
    return out


# ---------------------------------------------------------------------------
# reduced-word algebra


def test_make_word_reduces_cancellations():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    factors = (z4, z2)
    w = make_word(factors, [(0, 1), (0, 3)])     # 1 + 3 = 0 in Z4
    assert w.syllables == ()
    w = make_word(factors, [(0, 1), (0, 1)])     # merges to (0, 2)
    assert w.syllables == ((0, 2),)
    w = make_word(factors, [(0, 1), (1, 1), (1, 1)])  # Z2 part cancels
    assert w.syllables == ((0, 1),)


def test_words_alternate_factors_and_skip_identities():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    w = make_word((z4, z2), [(0, 1), (1, 1), (0, 2), (0, 1), (1, 1)])
    assert w.syllables == ((0, 1), (1, 1), (0, 3), (1, 1))
    for (f1, x1), (f2, _) in zip(w.syllables, w.syllables[1:]):
        assert f1 != f2
        assert x1 != 0


def test_group_laws_on_reduced_words():
    z4, z3 = cyclic_group(4), cyclic_group(3)
    factors = (z4, z3)
    samples = [make_word(factors, s) for s in (
        [], [(0, 1)], [(1, 2)], [(0, 3), (1, 1)], [(1, 2), (0, 2), (1, 1)],
        [(0, 1), (1, 1), (0, 1), (1, 2)])]
    e = identity_word(factors)
    for u in samples:
        assert word_multiply(u, e).syllables == u.syllables
        assert word_multiply(e, u).syllables == u.syllables
        assert word_multiply(u, word_inverse(u)).syllables == ()
        assert word_multiply(word_inverse(u), u).syllables == ()
    for u, v, w in itertools.product(samples, repeat=3):
        left = word_multiply(word_multiply(u, v), w)
        right = word_multiply(u, word_multiply(v, w))
        assert left.syllables == right.syllables


def test_evaluation_is_a_homomorphism():
    z4, z3 = cyclic_group(4), cyclic_group(3)
    s3 = symmetric_group(3)
    homs = (check_hom(z4, s3, [0, 2, 0, 2]),
            check_hom(z3, s3, [0, 3, 4]))
    factors = (z4, z3)
    mul = s3.tables["mul"]
    samples = [make_word(factors, s) for s in (
        [], [(0, 1)], [(1, 1)], [(0, 1), (1, 2)], [(1, 2), (0, 3), (1, 1)])]
    for u, v in itertools.product(samples, repeat=2):
        got = evaluate(word_multiply(u, v), homs)
        want = int(mul[evaluate(u, homs), evaluate(v, homs)])
        assert got == want


def test_delete_factor_is_multiplicative_and_kills_its_factor():
    z4, z3 = cyclic_group(4), cyclic_group(3)
    factors = (z4, z3)
    u = make_word(factors, [(0, 1), (1, 2), (0, 2)])
    v = make_word(factors, [(0, 2), (1, 1)])
    for i in range(2):
        left = delete_factor(word_multiply(u, v), i)
        right = word_multiply(delete_factor(u, i), delete_factor(v, i))
        assert left.syllables == right.syllables
        assert all(f != i for f, _ in delete_factor(u, i).syllables)


# ---------------------------------------------------------------------------
# kernel words: dual routes agree, frozen counts hold


def test_cosmash_kernel_words_die_under_every_deletion():
    _, subs = _c2_c2_s3()
    factors = tuple(s.as_algebra() for s in subs)
    for w in cosmash_kernel_words(factors, max_len=6):
        for i in range(3):
            assert delete_factor(w, i).syllables == ()


def test_engine_agrees_with_definitional_enumerator(c2_c2_s3_words):
    _, subs = _c2_c2_s3()
    fast = _record_pairs(ternary_kernel_words(subs, max_len=10))
    _, _, words = c2_c2_s3_words
    slow = {w.syllables for w in words}
    # the enumerator also yields the empty word; the engine emits only
    # nonempty ones
    assert () in slow
    assert fast | {()} == slow
    assert len(fast) == 150


def test_engine_counts_frozen_across_bounds():
    s3, subs = _c2_c2_s3()
    assert len(_record_pairs(ternary_kernel_words(subs, max_len=9))) == 0
    assert len(_record_pairs(ternary_kernel_words(subs, max_len=10))) == 150
    z8 = cyclic_group(8)
    two = Subuniverse(z8, (0, 4))
    assert len(_record_pairs(
        ternary_kernel_words((two, two, two), max_len=10))) == 30
    z4 = cyclic_group(4)
    full4 = Subuniverse(z4, (0, 1, 2, 3))
    assert len(_record_pairs(
        ternary_kernel_words((full4, full4, full4), max_len=8))) == 0
    assert len(_record_pairs(
        ternary_kernel_words((full4, full4, full4), max_len=10))) == 810
    # three order-8 factors: 21 candidate first syllables, more than any
    # search buffer sized from one or two factors holds
    d4 = dihedral_group(4)
    full8 = Subuniverse(d4, tuple(range(8)))
    factors = (full8.as_algebra(),) * 3
    assert _record_pairs(ternary_kernel_words((full8,) * 3, max_len=4)) \
        | {()} == {w.syllables for w in cosmash_kernel_words(factors, 4)}
    # every count above is 30 * prod(|K_i| - 1): 150, 30, 810, and 30 * 7^3
    assert len(_record_pairs(
        ternary_kernel_words((full8, full8, full8), max_len=10))) == 10290


def test_word_cache_drops_its_oldest_records(monkeypatch):
    _, (c2, _, full) = _c2_c2_s3()
    triples = [(c2, c2, full), (full, c2, c2), (c2, full, c2)]
    monkeypatch.setattr(kernel_search, "_WORD_CACHE", {})
    bufs = [ternary_kernel_words(t, max_len=10) for t in triples]
    assert all(len(b) for b in bufs) and len(kernel_search._WORD_CACHE) == 3
    # room for the last two buffers only: the first one goes
    monkeypatch.setattr(kernel_search, "_WORD_CACHE", {})
    monkeypatch.setattr(kernel_search, "MAX_CACHE_BYTES",
                        bufs[1].nbytes + bufs[2].nbytes)
    again = [ternary_kernel_words(t, max_len=10) for t in triples]
    kept = list(kernel_search._WORD_CACHE.values())
    assert len(kept) == 2 and kept[0] is again[1] and kept[1] is again[2]
    assert all(np.array_equal(a, b) for a, b in zip(again, bufs))


def test_kernel_word_evaluations_reach_a3(c2_c2_s3_words):
    s3, subs = _c2_c2_s3()
    report = higgins_ternary(s3, *subs, "word-oracle", word_bound=10)
    # the words evaluate into the result, and reach both 3-cycles
    assert report.result.members == (0, 3, 4)
    assert {w[-1] for w in report.witnesses} >= {3, 4}
    # the definitional route lands on the same values
    _, homs, words = c2_c2_s3_words
    values = {0}
    for w in words:
        values.add(evaluate(w, homs))
    assert values == {0, 3, 4}


def test_engine_words_really_lie_in_the_kernel():
    _, subs = _c2_c2_s3()
    factors = tuple(s.as_algebra() for s in subs)
    words = ternary_kernel_words(subs, max_len=10)
    for pairs in itertools.islice(sorted(_record_pairs(words)), 25):
        w = make_word(factors, pairs)
        assert w.syllables == pairs
        for i in range(3):
            assert delete_factor(w, i).syllables == ()
