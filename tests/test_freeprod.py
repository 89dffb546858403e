"""Reduced words in free products and the kernel-word machinery.

The fast kernel-word engine and the definitional enumerator are
independent routes to the same sets; their agreement is asserted here on
fixed instances, together with frozen counts for the bundled worked
example (two order-2 subgroups and the full group inside S3).
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import commwb._kernel_search as kernel_search
from commwb._kernel_search import ternary_kernel_words
from commwb.commutators import _WITNESS_CAP, higgins_ternary
from commwb.core import (Subuniverse, ValidationError, check_hom,
                         generate_subuniverse)
from commwb.sweeps import subgroups
from commwb.varieties import (alternating_group, cyclic_group,
                              dicyclic_group, dihedral_group, symmetric_group)
from freeprod import (Word, cosmash_kernel_words, delete_factor, evaluate,
                      identity_word, make_word, word_inverse, word_multiply)
from test_core import _relabel


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
    """Syllable tuples of every record in an engine buffer, in record order,
    walked one length field at a time."""
    buf = buf.tolist()
    out = []
    pos = 0
    while pos < len(buf):
        length = buf[pos]
        flat = buf[pos + 1:pos + 1 + 2 * length]
        out.append(tuple((flat[2 * i], flat[2 * i + 1])
                         for i in range(length)))
        pos += 1 + 2 * length
    return out


def _scalar_word_oracle(D, subs, bound):
    """Members and witnesses of the word oracle by folding each record of
    the search syllable by syllable, in record order.  A factor's local
    element x is its x-th member once the identity is moved first."""
    mul, bp = D.tables["mul"].tolist(), D.basepoint
    local = [[bp] + [m for m in sub.members if m != bp] for sub in subs]
    found, witnesses = {bp}, []
    for pairs in _record_pairs(ternary_kernel_words(subs, bound)):
        val, sylls = bp, []
        for f, x in pairs:
            x = local[f][x]
            val = mul[val][x]
            sylls.append((f, x))
        found.add(val)
        if val != bp and len(witnesses) < _WITNESS_CAP:
            witnesses.append(("word", tuple(sylls), val))
    return generate_subuniverse(D, found).members, tuple(witnesses)


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


def _unpruned_kernel_words(factors, max_len):
    """Every syllable sequence up to max_len in the enumerator's order, by
    length and then lexicographically, kept when it is reduced and every
    deletion of it is empty: the walk without pruning."""
    steps = [(f, x) for f, alg in enumerate(factors)
             for x in range(alg.size) if x != alg.basepoint]
    for length in range(max_len + 1):
        for sylls in itertools.product(steps, repeat=length):
            if any(a[0] == b[0] for a, b in zip(sylls, sylls[1:])):
                continue
            w = Word(factors, sylls)
            if all(delete_factor(w, i).is_identity
                   for i in range(len(factors))):
                yield w


@pytest.mark.parametrize("orders, bound, count", [
    ((2, 3), 8, 21), ((4, 2), 8, 61), ((3, 3), 6, 25), ((2, 2, 2), 10, 31),
    ((2, 2, 3), 8, 1),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_pruned_enumerator_matches_the_unpruned_walk(orders, bound, count):
    factors = tuple(cyclic_group(n) for n in orders)
    pruned = [w.syllables for w in cosmash_kernel_words(factors, bound)]
    assert pruned == [w.syllables
                      for w in _unpruned_kernel_words(factors, bound)]
    assert len(pruned) == count


def test_pruned_enumerator_matches_the_unpruned_walk_on_s3():
    _, subs = _c2_c2_s3()
    factors = tuple(s.as_algebra() for s in subs)
    assert [w.syllables for w in cosmash_kernel_words(factors, 6)] == \
        [w.syllables for w in _unpruned_kernel_words(factors, 6)]


def test_engine_agrees_with_definitional_enumerator(c2_c2_s3_words):
    _, subs = _c2_c2_s3()
    fast = set(_record_pairs(ternary_kernel_words(subs, max_len=10)))
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
    assert set(_record_pairs(ternary_kernel_words((full8,) * 3, max_len=4))) \
        | {()} == {w.syllables for w in cosmash_kernel_words(factors, 4)}
    # every count above is 30 * prod(|K_i| - 1): 150, 30, 810, and 30 * 7^3
    assert len(_record_pairs(
        ternary_kernel_words((full8, full8, full8), max_len=10))) == 10290


# Up to bound 10 every kernel word of these triples has exactly 10
# syllables.  Bound 11 adds words of odd length, one syllable read off the
# keys; bound 12 adds words of 12, one read off on each side.
@pytest.mark.parametrize("bound, count, longest", [(11, 350, 200),
                                                   (12, 940, 590)])
def test_engine_agrees_with_definitional_enumerator_above_bound_10(
        bound, count, longest):
    _, subs = _c2_c2_s3()
    factors = tuple(s.as_algebra() for s in subs)
    fast = _record_pairs(ternary_kernel_words(subs, max_len=bound))
    assert len(fast) == count
    assert sum(len(w) == bound for w in fast) == longest
    assert set(fast) | {()} == {
        w.syllables for w in cosmash_kernel_words(factors, bound)}


def test_engine_counts_frozen_at_bounds_11_and_12():
    z4, s3 = cyclic_group(4), symmetric_group(3)
    for sub, counts in ((Subuniverse(z4, range(4)), (2430, 6804)),
                        (Subuniverse(s3, range(6)), (18_750, 55_500))):
        for bound, count in zip((11, 12), counts):
            words = ternary_kernel_words((sub,) * 3, bound)
            assert len(words.codes) == count


def _held(buf):
    """Bytes the word cache counts for a buffer: its records and code
    matrix."""
    return buf.nbytes + buf.codes.nbytes


def test_word_cache_drops_its_oldest_records(monkeypatch, empty_word_cache):
    s3, (c2, _, full) = _c2_c2_s3()
    c3 = Subuniverse(s3, (0, 3, 4))
    # three multisets of tables, each asked for in its search order
    triples = [(c2, c2, full), (c2, c2, c3), (c3, c3, full)]
    bufs = [ternary_kernel_words(t, max_len=10) for t in triples]
    assert all(len(b) for b in bufs) and len(empty_word_cache.entries) == 3
    assert empty_word_cache.held == sum(map(_held, bufs))
    # room for the last two entries only: the first one goes
    empty_word_cache.clear()
    monkeypatch.setattr(kernel_search, "MAX_CACHE_BYTES",
                        sum(map(_held, bufs[1:])))
    again = [ternary_kernel_words(t, max_len=10) for t in triples]
    kept = list(empty_word_cache.entries.values())
    assert len(kept) == 2 and kept[0] is again[1] and kept[1] is again[2]
    assert all(np.array_equal(a, b) for a, b in zip(again, bufs))
    # a byte less: the code matrices count, so only the last entry stays
    empty_word_cache.clear()
    monkeypatch.setattr(kernel_search, "MAX_CACHE_BYTES",
                        sum(map(_held, bufs[1:])) - 1)
    again = [ternary_kernel_words(t, max_len=10) for t in triples]
    assert list(empty_word_cache.entries.values()) == [again[2]]
    assert [b.codes.shape for b in again] == [(150, 10), (60, 10), (600, 10)]
    assert all(b.codes.dtype == np.uint8 for b in again)
    # a buffer above the limit on its own is returned but not kept, and
    # the buffers kept stay
    empty_word_cache.clear()
    monkeypatch.setattr(kernel_search, "MAX_CACHE_BYTES",
                        _held(bufs[0]) + _held(bufs[1]))
    again = [ternary_kernel_words(t, max_len=10) for t in triples]
    assert list(empty_word_cache.entries.values()) == again[:2]
    assert np.array_equal(again[2], bufs[2])


_SEARCH = kernel_search._search


def _tables_key(subs):
    """The local tables of ``subs``, in their order, as bytes."""
    return tuple(kernel_search._local_group_tables(s)[0].tobytes()
                 for s in subs)


def _fresh_search(subs, bound):
    """The search on the tables of ``subs`` in their own order, bypassing
    the word cache."""
    tabs, sizes = zip(*(kernel_search._local_group_tables(s) for s in subs))
    return _SEARCH(kernel_search._search_tables(tabs, sizes, bound), bound)


def _same_buffer(got, want):
    return got.tobytes() == want.tobytes() and got.dtype == want.dtype \
        and got.codes.tobytes() == want.codes.tobytes() \
        and got.codes.dtype == want.codes.dtype


def _in_search_order(subs):
    """Whether ``subs`` come in the factor order of their search."""
    tabs, sizes = zip(*(kernel_search._local_group_tables(s) for s in subs))
    return kernel_search._search_order(tabs, sizes) == [0, 1, 2]


def test_a_search_whose_hashes_all_collide_finds_the_same_words(monkeypatch):
    # every hash match is verified on the full key, its factor included,
    # so a hash that sends every entry to one bucket changes nothing
    s3, (c2, _, full) = _c2_c2_s3()
    c3 = Subuniverse(s3, (0, 3, 4))
    cases = [((c2, c2, full), 10), ((c2, c2, full), 11), ((c2, c2, c3), 11),
             ((c3, c3, c3), 10)]
    want = [_fresh_search(subs, bound) for subs, bound in cases]
    assert all(len(w) for w in want)
    monkeypatch.setattr(kernel_search, "_hash", lambda stacks, f: np.zeros(
        np.shape(f), dtype=np.uint64))
    for (subs, bound), buf in zip(cases, want):
        assert _same_buffer(_fresh_search(subs, bound), buf)


def test_a_search_in_small_chunks_gives_the_same_buffers(monkeypatch):
    # at 7, each factor's block of a level above the first, the packed
    # sort keys written from it and the queries and candidates of every
    # join split into pieces; the buffers are those of the default chunk
    s3, d4, q8 = symmetric_group(3), dihedral_group(4), dicyclic_group(2)
    c3 = (Subuniverse(s3, (0, 3, 4)),) * 3
    s3_mix = (Subuniverse(s3, (0, 1)), Subuniverse(s3, (0, 2)),
              Subuniverse(s3, range(6)))
    d4_mix = (Subuniverse(d4, (0, 4)), Subuniverse(d4, (0, 1, 2, 3)),
              Subuniverse(d4, (0, 2, 5, 7)))
    q8_c4s = tuple(Subuniverse(q8, m) for m in ((0, 1, 2, 3), (0, 2, 4, 6),
                                                (0, 2, 5, 7)))
    cases = [(subs, bound) for subs in (c3, s3_mix, d4_mix)
             for bound in (10, 11, 12)] + [(q8_c4s, 10), (q8_c4s, 11)]
    want = [_fresh_search(subs, bound) for subs, bound in cases]
    assert [len(w.codes) for w in want] == [
        240, 480, 1248, 150, 350, 940, 270, 630, 1692, 810, 2430]
    # bound 11 adds words of odd length: 240 of 11 over (Z3, Z3, Z3)
    assert ((want[1].codes != 0).sum(1) == 11).sum() == 240
    monkeypatch.setattr(kernel_search, "_CHUNK", 7)
    for (subs, bound), buf in zip(cases, want):
        assert _same_buffer(_fresh_search(subs, bound), buf), bound


def test_a_mid_size_search_stays_within_its_memory_peak():
    # the benchmark's largest cold search, factor orders (8, 8, 16) at
    # bound 10: 176,792 rows at the top level.  Its traced peak measured
    # 29.8 MiB, held to 36 MiB (20 % above)
    d8 = dihedral_group(8)
    by_order = {}
    for sub in subgroups(d8):
        by_order.setdefault(len(sub), []).append(sub)
    subs = (by_order[8][0], by_order[8][-1], by_order[16][0])
    tabs, sizes = zip(*(kernel_search._local_group_tables(s) for s in subs))
    tables = kernel_search._search_tables(tabs, sizes, 10)
    assert kernel_search._widest_level(sizes, 4) == 176_792
    tracemalloc.start()
    try:
        buf = _SEARCH(tables, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buf.codes) == 22_050
    assert peak < 36 << 20


@pytest.fixture
def counted_searches(monkeypatch, empty_word_cache):
    """An empty word cache, and the list of the searches run from now."""
    calls = []

    def counted(tab, max_len):
        calls.append(tuple(tab.ns.tolist()))
        return _SEARCH(tab, max_len)
    monkeypatch.setattr(kernel_search, "_search", counted)
    return calls


def _by_multiset(triples):
    """The triples grouped by the multiset of their local tables, each group
    in first-seen order."""
    groups = {}
    for subs in triples:
        groups.setdefault(tuple(sorted(_tables_key(subs))), []).append(subs)
    return list(groups.values())


@pytest.mark.parametrize("D", [dihedral_group(4), dicyclic_group(2),
                               symmetric_group(3)], ids=["D4", "Q8", "S3"])
def test_word_cache_matches_a_fresh_search(D, counted_searches,
                                           empty_word_cache):
    # every ordered subgroup triple, through the cache, against the search
    # on its own order; the cache is emptied before each multiset of
    # tables, so its first order comes cold and the others from its
    # search-order buffer.  A repeat in the search's order is the cached
    # buffer; in another order it is renamed again and not cached.
    triples = list(itertools.product(subgroups(D), repeat=3))
    fresh = {}
    for group in _by_multiset(triples):
        empty_word_cache.clear()
        for subs in group:
            got = ternary_kernel_words(subs, 10)
            key = _tables_key(subs)
            if key not in fresh:
                fresh[key] = _fresh_search(subs, 10)
            assert _same_buffer(got, fresh[key]), key
            again = ternary_kernel_words(subs, 10)
            assert (again is got) == (_in_search_order(subs) or not len(got))
            assert _same_buffer(again, got)
        assert len(empty_word_cache.entries) <= 1
    # one search per multiset of nontrivial tables, none for the others
    assert len(counted_searches) == sum(
        all(len(s) > 1 for s in group[0]) for group in _by_multiset(triples))


# One subgroup triple per profile of the benchmark's ternary sample, orders
# 6 to 12: (group, subgroup orders).  Where a profile repeats an order,
# the two subgroups are the first and last of that order.
_SAMPLE_PROFILES = (
    (symmetric_group(3), (2, 3, 6)), (symmetric_group(3), (2, 2, 6)),
    (dihedral_group(4), (2, 4, 8)), (dihedral_group(4), (4, 4, 8)),
    (dihedral_group(5), (2, 5, 10)), (dihedral_group(5), (2, 2, 10)),
    (dihedral_group(6), (3, 4, 12)), (dihedral_group(6), (6, 6, 12)))


def test_word_cache_matches_a_fresh_search_on_relabelled_samples(
        counted_searches):
    rng = np.random.default_rng(14)
    for D, orders in _SAMPLE_PROFILES:
        perm = np.r_[0, 1 + rng.permutation(D.size - 1)]
        by_order = {}
        for sub in subgroups(_relabel(D, perm)):
            by_order.setdefault(len(sub), []).append(sub)
        subs = [by_order[o][-1 if o in orders[:i] else 0]
                for i, o in enumerate(orders)]
        kernel_search._WORD_CACHE.clear()
        before = len(counted_searches)
        for order in itertools.permutations(subs):
            got = ternary_kernel_words(order, 10)
            assert len(got) and _same_buffer(got, _fresh_search(order, 10))
        assert len(counted_searches) == before + 1


def test_a_permuted_triple_is_renamed_from_the_search_and_not_cached(
        counted_searches, empty_word_cache):
    _, (c2, _, full) = _c2_c2_s3()
    canonical = ternary_kernel_words((c2, c2, full), 10)
    for order in ((full, c2, c2), (c2, full, c2)):
        got = ternary_kernel_words(order, 10)
        # the bytes of a search in that order, with no new search, made
        # again at the next call
        assert _same_buffer(got, _fresh_search(order, 10))
        again = ternary_kernel_words(order, 10)
        assert again is not got and _same_buffer(again, got)
    assert list(empty_word_cache.entries) == [
        (_tables_key((c2, c2, full)), (2, 2, 6), 10)]
    assert list(empty_word_cache.entries.values())[0] is canonical
    assert counted_searches == [(2, 2, 6)]


def test_a_permuted_triple_whose_canonical_buffer_was_dropped(
        counted_searches, empty_word_cache):
    # once the search's buffer is dropped, another order searches again
    # and caches the search-order buffer only
    _, (c2, _, full) = _c2_c2_s3()
    ternary_kernel_words((c2, c2, full), 10)
    empty_word_cache.clear()
    got = ternary_kernel_words((c2, full, c2), 10)
    assert _same_buffer(got, _fresh_search((c2, full, c2), 10))
    assert list(empty_word_cache.entries) == [
        (_tables_key((c2, c2, full)), (2, 2, 6), 10)]
    assert counted_searches == [(2, 2, 6), (2, 2, 6)]


def test_a_permuted_buffer_keeps_each_word_before_its_extensions():
    # a kernel word that is a prefix of another leaves a kernel word of at
    # least 10 syllables, so only from bound 20 does the (0, 0) padding
    # decide the order; renaming (C2, C2, C3) into (C3, C2, C2) sends
    # factor 0 to 1, which must not touch the padding
    s3 = symmetric_group(3)
    subs = (Subuniverse(s3, (0, 3, 4)),) + (Subuniverse(s3, (0, 2)),) * 2
    got = ternary_kernel_words(subs, 20)
    assert _same_buffer(got, _fresh_search(subs, 20))


@pytest.mark.parametrize("group, orders, bound", [
    (symmetric_group(3), (2, 2, 6), 13), (dihedral_group(5), (2, 10, 2), 14),
    (dihedral_group(5), (10, 2, 2), 13),
], ids=["C2xC2xS3-13", "C2xD5xC2-14", "D5xC2xC2-13"])
def test_records_come_in_lexicographic_order(group, orders, bound):
    # the buffer is sorted on syllable codes packed into one or two uint64
    # words per record; Python's tuple order, a word before its
    # extensions, is the reference
    by_order = {len(s): s for s in subgroups(group)}
    got = _record_pairs(ternary_kernel_words(
        tuple(by_order[n] for n in orders), bound))
    assert len(got) and got == sorted(got)


def test_code_rows_sort_as_tuples():
    # few distinct codes, so that many rows share the codes of their first
    # packed word and the later words decide
    rng = np.random.default_rng(19)
    for xbits, width in ((1, 40), (2, 17), (4, 13), (5, 10), (7, 12)):
        pick = rng.choice(4 << xbits, size=3, replace=False)
        codes = pick[rng.integers(0, 3, size=(400, width))].astype(
            kernel_search._code_dtype(xbits))
        got = codes[kernel_search._lex_order(codes, xbits)].tolist()
        assert got == sorted(codes.tolist())


def test_each_multiset_of_factors_is_searched_once(counted_searches):
    s3, d4 = symmetric_group(3), dihedral_group(4)
    c2, c3, six = (Subuniverse(s3, m) for m in ((0, 2), (0, 3, 4), range(6)))
    for subs in itertools.permutations((c2, c3, six)):
        first = ternary_kernel_words(subs, 10)
        again = ternary_kernel_words(subs, 10)
        assert (again is first) == _in_search_order(subs)
        assert _same_buffer(again, first)
    assert counted_searches == [(2, 3, 6)]
    # Z4 and V4 have the same order and different tables
    z4, v4, eight = (Subuniverse(d4, m)
                     for m in ((0, 1, 2, 3), (0, 2, 4, 6), range(8)))
    for subs in itertools.permutations((z4, v4, eight)):
        ternary_kernel_words(subs, 10)
    assert len(counted_searches) == 2


def test_a_trivial_factor_gives_no_words_without_a_search(
        counted_searches, empty_word_cache):
    d8 = dihedral_group(8)
    one, full = Subuniverse(d8, (0,)), Subuniverse(d8, range(16))
    two = next(s for s in subgroups(d8) if len(s) == 2)
    # a search would store 22,781,250 half-words of 6 syllables, over the
    # limit; with an order-2 factor in place of the trivial one it is
    # still refused
    assert kernel_search._widest_level((1, 16, 16), 6) == 22_781_250 \
        > kernel_search.MAX_HALF_WORDS
    with pytest.raises(ValidationError, match="40,581,000 half-words"):
        ternary_kernel_words((two, full, full), 14)
    for subs in itertools.permutations((one, full, full)):
        words = ternary_kernel_words(subs, 14)
        assert len(words) == 0 and len(words.codes) == 0
        assert words is ternary_kernel_words((full, two, one), 10)
    assert counted_searches == [] and empty_word_cache.entries == {}
    assert not words.flags.writeable and not words.codes.flags.writeable


def test_word_oracle_matches_the_scalar_fold():
    # A4's proper subgroups give triples in every search order, most with
    # more nontrivial words than the oracle keeps as witnesses
    a4 = alternating_group(4)
    cases = [(D, subgroups(D)) for D in (dihedral_group(4), dicyclic_group(2),
                                         symmetric_group(3))]
    cases.append((a4, [s for s in subgroups(a4) if len(s) < 12]))
    capped = 0
    for D, subs_of_D in cases:
        for subs in itertools.product(subs_of_D, repeat=3):
            report = higgins_ternary(D, *subs, "word-oracle", word_bound=10)
            assert (report.result.members, report.witnesses) \
                == _scalar_word_oracle(D, subs, 10)
            capped += D is a4 and len(report.witnesses) == _WITNESS_CAP
    assert capped == 252


def test_the_word_oracle_reads_search_buffers_without_renaming(
        monkeypatch, empty_word_cache):
    # every triple asks for its words in the order its search runs in, so
    # the cache holds one buffer per multiset of nontrivial tables, under
    # its search-order key, and none is renamed
    def refuse(*args):
        raise AssertionError("a cached buffer was renamed")
    monkeypatch.setattr(kernel_search, "_renamed", refuse)
    D = dihedral_group(4)
    triples = list(itertools.product(subgroups(D), repeat=3))
    for subs in triples:
        higgins_ternary(D, *subs, "word-oracle", word_bound=10)
    keys = list(empty_word_cache.entries)
    for blobs, sizes, _ in keys:
        assert list(zip(sizes, blobs)) == sorted(zip(sizes, blobs))
    assert len(keys) == sum(all(len(s) > 1 for s in group[0])
                            for group in _by_multiset(triples)) == 20


def test_word_oracle_with_no_kernel_words():
    s3, subs = _c2_c2_s3()
    for bound in (9, 1, 0):
        assert len(ternary_kernel_words(subs, bound)) == 0
        report = higgins_ternary(s3, *subs, "word-oracle", word_bound=bound)
        assert report.result.members == (0,) and report.witnesses == ()


def test_word_oracle_on_groups_whose_identity_is_last():
    # Z3' and S3 with element x renamed x - 1 mod n, so that the identity
    # is the largest: the local order puts it first and keeps the others
    # in order, so the search and the report are the catalogue's, renamed
    z3 = cyclic_group(3)
    s3, s3_subs = _c2_c2_s3()
    for D, subs in ((z3, (Subuniverse(z3, (0, 1, 2)),) * 3),
                    (s3, s3_subs)):
        perm = (np.arange(D.size) - 1) % D.size
        moved = _relabel(D, perm)
        moved_subs = tuple(Subuniverse(moved, perm[list(sub.members)])
                           for sub in subs)
        assert moved.basepoint == D.size - 1
        want = higgins_ternary(D, *subs, "word-oracle", word_bound=10)
        got = higgins_ternary(moved, *moved_subs, "word-oracle",
                              word_bound=10)
        assert np.array_equal(ternary_kernel_words(moved_subs, 10),
                              ternary_kernel_words(subs, 10))
        assert got.result.members == tuple(
            sorted(perm[list(want.result.members)].tolist()))
        assert got.witnesses == tuple(
            ("word", tuple((f, int(perm[x])) for f, x in sylls), int(perm[v]))
            for _, sylls, v in want.witnesses)
        assert (got.result.members, got.witnesses) \
            == _scalar_word_oracle(moved, moved_subs, 10)
    assert got.result.members == (2, 3, 5)   # A3, renamed


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
