"""Fast bounded enumeration of ternary co-smash kernel words.

Internal engine behind the word-oracle commutator strategy.  A reduced word
over three group factors is a kernel word when its three factor deletions
``del_i`` all reduce to the empty word.  Each deletion is a homomorphism,
so a word of length L is a kernel word exactly when ``w = p·q⁻¹`` with
``|p| = ⌈L/2⌉``, ``|q| = ⌊L/2⌋``, p and q reduced and ending in different
factors (so the product is reduced as written), and ``del_i(p) = del_i(q)``
for i = 0, 1, 2.

The search stores the reduced half-words of up to K = ⌊(B-1)/2⌋ syllables
for bound B, level by level in numpy.  Each deletion word is packed into
one int64, so appending a syllable (push, merge into the top, or cancel
it) is a few shifts and masks.  The half-words of ⌈B/2⌉ syllables are never
built: p's last syllable is read off the keys instead.  Write p = p'·(f, x)
with p' at level k = ⌈L/2⌉ - 1.  A reduced word is fixed by its f-peeled
part (the word without a top f-syllable) and its top f-element (0 if
none).  Appending (f, x) keeps the f-peeled part of every deletion,
multiplies the top f-element by x, and leaves del_f alone.  So p and q have
the same deletions exactly when p' and q have the same f-peeled
deletions and ``x = t(p')⁻¹·t(q)`` for both deletions other than f, t
being the top f-element.  The second of these follows from the first:
killing every factor but f maps both deletions of p'·(f, x)·q⁻¹ to the
same element of f, a conjugate of each one's middle f-element, so when
one middle element is the identity, so is the other.

* Odd L: q is at level k too, and the words are a self-join of level k.
* Even L: q = q'·(g, y), and h is the third factor.  del_h(p) ends in f
  unless x cancels in it, and del_h(q) ends in g unless y does, so at
  least one side cancels.  The cancelling p come straight from level k:
  x is the inverse of del_h(p')'s top f-element, at most two per (p', f).
  Each joins level k on its g-peeled deletions, which gives y.  Its
  inverse word q·p⁻¹ comes with it, unless q cancels too and finds p
  itself.

Each level is indexed once over (row, f) for every factor f its row does
not end in, a block of rows per f, on the f-peeled deletions and f: only
the deletions other than del_f peel, as del_f has no f-syllable.  Each
sort key is a 64-bit hash's high bits over the entry, row·3 + f, so one
in-place sort orders the entries; a directory of buckets of equal high
bits serves the probes, and every match is verified on the full key and
the factor.  Growing a level and appending p's last syllable touch only
the deletions they change.  Both joins run in chunks of about ``_CHUNK``
queries and candidates.  Records come out lexicographically in (factor,
element), a word before its extensions.

Level K has 3(n-1)(2(n-1))^(K-1) rows for three factors of order n; a
search over ``MAX_HALF_WORDS`` is refused before anything is allocated,
and one whose words would take more than ``MAX_WORD_BYTES`` as records
is refused once it has found that many.
The search emits its words as rows of syllable codes, (f + 1) << b | x
for b the bits of the largest local element and 0 for the padding, one
column per position.  Packed into as few int64 words as hold them, the
rows sort lexicographically, each word before its extensions.  The
returned buffer also carries the sorted code matrix as ``codes``, so a
caller folds all records at once without walking the buffer.

Two facts spare most searches.  With a trivial factor, deleting it leaves
every word as it is, so only the empty word lies in the kernel: the answer
is one shared empty buffer, given before the size check and never cached.
And permuting the factors only renames the factor ids in the words.  So a
search runs once per multiset of local tables, in ``_search_order``:
sorted by (order, table bytes), and its buffer is cached under (table
bytes, orders, bound) in that order, so a repeated triple is one lookup.
The cache (``core._Cache``) keeps at most ``MAX_CACHE_BYTES`` of records
and codes, dropping the oldest buffer first.  The word oracle asks in the
search's order and renames factor ids on the codes it reads.  A caller in
another order gets the cached codes renamed and sorted again, byte for
byte what a search in its order gives; that buffer is made at each call
and not cached.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Subuniverse, ValidationError, _Cache, _kept, _require_group

__all__ = ["DEFAULT_WORD_BOUND", "ternary_kernel_words"]

# Syllable bound of the word oracle when the caller gives none.
DEFAULT_WORD_BOUND = 12

# Rows allowed in the deepest stored half-word level, of ⌊(B-1)/2⌋
# syllables: about 130 bytes each at the search's peak (the level, its
# index and bucket directory, and its cancelling rows), so about 1 GB at
# the limit, before the records of the words found.
MAX_HALF_WORDS = 8_000_000
# Bytes the records of the words found may take: the flat int64 buffer
# and ``_flatten``'s padded copy, 16(1 + 2B) bytes a word at most, so
# 1,636,801 words at bound 20.
MAX_WORD_BYTES = 1 << 30

_CHUNK = 1 << 16
_MIX = tuple(np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                                     0x165667B19E3779F9, 0xFF51AFD7ED558CCD))


class _Tables(NamedTuple):
    mul: np.ndarray      # (3, nmax, nmax) local multiplication tables
    inv: np.ndarray      # (3, nmax)
    ns: np.ndarray       # factor orders
    xbits: int           # syllable code: (factor + 1) << xbits | element


class _Level(NamedTuple):
    offsets: np.ndarray  # row offsets of the three last-factor blocks
    parents: tuple       # per block: parent rows, one per run of elements
    stacks: np.ndarray   # (3, rows) packed deletions


def _peel(tab: _Tables, stacks, f):
    """Packed deletions without their top syllable if it lies in factor f,
    and that syllable's element (0 if none); broadcasts."""
    width = tab.xbits + 2
    top = stacks & ((1 << width) - 1)
    on = (top >> tab.xbits) == f + 1
    return (np.where(on, stacks >> width, stacks),
            np.where(on, top & ((1 << tab.xbits) - 1), 0))


def _append(tab: _Tables, stacks, f, x):
    """Packed deletions other than del_f after appending syllable (f, x),
    which leaves del_f alone; broadcasts."""
    base, top = _peel(tab, stacks, f)
    y = tab.mul[f, top, x]
    return np.where(y == 0, base,
                    (base << tab.xbits + 2) | ((f + 1) << tab.xbits) | y)


def _hash(stacks, f) -> np.ndarray:
    h = sum(np.asarray(s, dtype=np.uint64) * c for s, c in zip(stacks, _MIX))
    h += np.asarray(f, dtype=np.uint64)
    h ^= h >> np.uint64(31)
    h *= _MIX[3]
    return h ^ (h >> np.uint64(29))


def _grow(tab: _Tables, prev: _Level, parents: tuple) -> _Level:
    """All one-syllable extensions of ``prev``, blocked by the new factor;
    ``parents[f]`` are the rows of ``prev`` that do not end in f."""
    sizes = [len(parents[f]) * int(tab.ns[f] - 1) for f in range(3)]
    offsets = np.cumsum([0] + sizes)
    stacks = np.empty((3, offsets[-1]), dtype=np.int64)
    for f, rows in enumerate(parents):
        w = int(tab.ns[f] - 1)
        xs = np.arange(1, w + 1, dtype=np.int64)
        step = max(1, _CHUNK // max(w, 1))
        others = [(f + 1) % 3, (f + 2) % 3]  # appending leaves del_f alone
        out = stacks[:, offsets[f]:offsets[f + 1]].reshape(3, len(rows), w)
        for lo in range(0, len(rows), step):
            par = prev.stacks.take(rows[lo:lo + step], axis=1)[:, :, None]
            out[f, lo:lo + step] = par[f]
            out[others, lo:lo + step] = _append(tab, par[others], f, xs)
    return _Level(offsets, parents, stacks)


def _last(lev: _Level, rows: np.ndarray) -> np.ndarray:
    return np.searchsorted(lev.offsets, rows, side="right") - 1


def _not_ending_in(lev: _Level) -> tuple:
    """Per factor f, the rows of a level that do not end in f."""
    last = _last(lev, np.arange(lev.stacks.shape[1]))
    return tuple(np.flatnonzero(last != f) for f in range(3))


def _decode(tab: _Tables, lev: _Level, rows: np.ndarray):
    """Parent row, last factor and last element of level rows."""
    f = _last(lev, rows)
    local = rows - lev.offsets[f]
    w = tab.ns[f] - 1
    parent = np.empty_like(rows)
    for g in range(3):
        sel = f == g
        parent[sel] = lev.parents[g][local[sel] // w[sel]]
    return parent, f, local % w + 1


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the pairs (s, c)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1]) \
        if len(counts) else np.zeros(0, dtype=np.int64)


class _Index(NamedTuple):
    hashes: np.ndarray   # sorted high hash bits of the entries, low bits 0
    ids: np.ndarray      # the entries, row·3 + peeled factor, in that order
    bounds: np.ndarray   # where each bucket (hash >> shift) starts, and ends
    shift: np.uint64
    high: np.uint64      # the hash bits an entry keeps


def _index(tab: _Tables, lev: _Level, parents: tuple):
    """The index of a level over every (row, f) whose row does not end in
    f, on the row's f-peeled deletions, and its cancelling rows, as
    (row·3 + f)·3 + h: those where the top f-element of del_h(row) has an
    inverse x, so that del_h(row·(f, x)) does not end in f."""
    # a sort key: the high bits of the entry's hash over its row·3 + f
    low = (3 * lev.stacks.shape[1] - 1).bit_length()
    high = ~np.uint64((1 << low) - 1)
    keys = np.empty(sum(map(len, parents)), dtype=np.uint64)
    cancel, at = [np.zeros(0, dtype=np.int64)], 0
    for f, rows in enumerate(parents):
        # del_f(row) has no f-syllable, so only the other two peel
        others = np.array([(f + 1) % 3, (f + 2) % 3])
        for lo in range(0, len(rows), _CHUNK):
            r = rows[lo:lo + _CHUNK]
            peeled = lev.stacks.take(r, axis=1)
            peeled[others], tops = _peel(tab, peeled[others], f)
            e = r * 3 + f
            keys[at:at + len(e)] = _hash(peeled, f) & high | e.view(np.uint64)
            at += len(e)
            h, i = np.nonzero(tops)
            cancel.append(e[i] * 3 + others[h])
    keys.sort()
    ids = (keys & ~high).view(np.int64)
    keys &= high
    # about one entry per bucket of equal high hash bits
    bits = max(len(ids).bit_length() - 1, 1)
    shift = np.uint64(64 - bits)
    bounds = np.zeros((1 << bits) + 1, dtype=np.intp)
    np.cumsum(np.bincount((keys >> shift).view(np.intp),
                          minlength=1 << bits), out=bounds[1:])
    return _Index(keys, ids, bounds, shift, high), np.concatenate(cancel)


def _join(tab: _Tables, lev: _Level, index: _Index, f, keys, tops, qh):
    """Matches of queries against the index entries: the query's f-peeled
    deletions ``keys``, of high hash bits ``qh``, equal the entry row's, and
    z = t⁻¹·u is not the identity, where t and u are the top f-elements of
    the query and the row in one deletion other than f (the other one
    agrees, as the module docstring shows).  Yields (query, row, z) in
    chunks of about ``_CHUNK`` candidates."""
    bucket = (qh >> index.shift).astype(np.intp)
    lo = index.bounds[bucket]
    cnt = index.bounds[bucket + 1] - lo
    if not len(cnt):
        return
    ends = np.cumsum(cnt)
    cuts = np.searchsorted(ends, np.arange(_CHUNK, ends[-1], _CHUNK), "right")
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(cnt)]):
        q = np.repeat(np.arange(a, b), cnt[a:b])
        pos = _ranges(lo[a:b], cnt[a:b])
        hit = index.hashes[pos] == qh[q]
        q, e = q[hit], index.ids[pos[hit]]
        row, g = e // 3, e % 3
        peeled, u = _peel(tab, lev.stacks.take(row, axis=1), g)
        ok = (g == f[q]) & (peeled == keys[:, q]).all(0)
        q, row, g, u = q[ok], row[ok], g[ok], u[:, ok]
        d = (g + 1) % 3
        z = tab.mul[g, tab.inv[g, tops[d, q]], u[d, np.arange(len(q))]]
        yield q[z != 0], row[z != 0], z[z != 0]


def _syllables(tab: _Tables, levels: list, k: int, rows: np.ndarray):
    fs, xs = np.empty((2, len(rows), k), dtype=np.int64)
    for t in range(k, 0, -1):
        rows, fs[:, t - 1], xs[:, t - 1] = _decode(tab, levels[t], rows)
    return fs, xs


def _records(tab: _Tables, levels: list, k: int, max_len: int,
             left: np.ndarray, middle: list, right: np.ndarray,
             inverse=None) -> np.ndarray:
    """Code rows of the words u·s·v⁻¹: u and v are level-k rows, s the
    syllables in ``middle``, one (factor, element) pair of arrays each;
    then those of the inverse words the mask ``inverse`` selects."""
    fl, xl = _syllables(tab, levels, k, left)
    fr, xr = _syllables(tab, levels, k, right)
    fs = np.hstack([fl] + [f[:, None] for f, _ in middle] + [fr[:, ::-1]])
    xs = np.hstack([xl] + [x[:, None] for _, x in middle]
                   + [tab.inv[fr, xr][:, ::-1]])
    if inverse is not None:
        fi, xi = fs[inverse], xs[inverse]
        fs = np.vstack([fs, fi[:, ::-1]])
        xs = np.vstack([xs, tab.inv[fi, xi][:, ::-1]])
    codes = np.zeros((len(fs), max_len), dtype=_code_dtype(tab.xbits))
    codes[:, :fs.shape[1]] = (fs + 1) << tab.xbits | xs
    return codes


def _odd_words(tab: _Tables, levels: list, k: int, index: _Index,
               max_len: int):
    """Records of the words p'·(f, x)·q⁻¹ of 2k + 1 syllables: pairs of
    level-k entries whose f-peeled deletions agree, so only entries that
    share their hash can match."""
    lev, hs = levels[k], index.hashes
    same = hs[1:] == hs[:-1]
    twins = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
    for a in range(0, len(twins), _CHUNK):
        e = index.ids[twins[a:a + _CHUNK]]
        r, f = e // 3, e % 3
        keys, tops = _peel(tab, lev.stacks.take(r, axis=1), f)
        for q, row, x in _join(tab, lev, index, f, keys, tops,
                               hs[twins[a:a + _CHUNK]]):
            yield _records(tab, levels, k, max_len, r[q], [(f[q], x)], row)


def _even_words(tab: _Tables, levels: list, k: int, index: _Index, cancel,
                max_len: int):
    """Records of the words p·q⁻¹ of 2k + 2 syllables, p = p'·(f, x) and
    q = q'·(g, y) with p' and q' at level k and p a cancelling row: each
    joins the level on its g-peeled deletions, which gives y.  The inverse
    word q·p⁻¹ comes with it unless q cancels too, and so finds p
    itself."""
    lev = levels[k]
    for a in range(0, len(cancel), _CHUNK):
        e, h = np.divmod(cancel[a:a + _CHUNK], 3)
        r, f = np.divmod(e, 3)
        g = 3 - f - h
        # p's deletions: (f, x) cancels in del_h, joins del_g and leaves
        # del_f alone; then the g-peel leaves del_g alone
        keys = lev.stacks.take(r, axis=1)
        tops = np.zeros_like(keys)
        # flat views of both, and the flat places of each query's f, h, g
        kf, tf = keys.reshape(-1), tops.reshape(-1)
        fi, hi, gi = (d * len(e) + np.arange(len(e)) for d in (f, h, g))
        kf[hi], x = _peel(tab, kf[hi], f)
        x = tab.inv[f, x]
        kf[gi] = _append(tab, kf[gi], f, x)
        kf[fi], tf[fi] = _peel(tab, kf[fi], g)
        kf[hi], tf[hi] = _peel(tab, kf[hi], g)
        # q cancels in del_h exactly when del_h(p) does not end in g
        inverse = tf[hi] != 0
        for q, row, z in _join(tab, lev, index, g, keys, tops,
                               _hash(keys, g) & index.high):
            yield _records(tab, levels, k, max_len, r[q],
                           [(f[q], x[q]), (g[q], z)], row, inverse[q])


def _widest_level(ns, half: int) -> int | None:
    """Exact row count of the half-words with ``half`` syllables, or None
    once a shorter level has more than ``MAX_HALF_WORDS``.  The counts
    never fall from one level to the next with two nontrivial factors,
    and with fewer they stay below the order of a factor."""
    ends = [int(n) - 1 for n in ns]     # words of length 1 ending in f
    for _ in range(half - 1):
        if sum(ends) > MAX_HALF_WORDS:
            return None
        ends = [(int(n) - 1) * (sum(ends) - e) for n, e in zip(ns, ends)]
    return sum(ends) if half else 1


def _kernel_records(tab: _Tables, max_len: int):
    """Code rows of every kernel word of 2 to ``max_len`` syllables, in
    batches; the levels and indexes go when the batches are done."""
    top = (max_len - 1) // 2
    # the empty word; all three blocks empty, so its last factor reads as 3
    levels = [_Level(np.zeros(4, dtype=np.int64), (),
                     np.zeros((3, 1), dtype=np.int64))]
    yield np.zeros((0, max_len), dtype=_code_dtype(tab.xbits))
    for k in range(top + 1):
        lev = levels[k]
        parents = _not_ending_in(lev)
        if k < top:
            levels.append(_grow(tab, lev, parents))
        index, cancel = _index(tab, lev, parents)
        if k:
            yield from _odd_words(tab, levels, k, index, max_len)
        if 2 * k + 2 <= max_len:
            yield from _even_words(tab, levels, k, index, cancel, max_len)


def _search(tab: _Tables, max_len: int) -> np.ndarray:
    """Flat record buffer, lexicographically ordered.  Raises
    ``ValidationError`` once the words found would need more than
    ``MAX_WORD_BYTES``: each is charged twice its padded int64 record, for
    ``_flatten``'s padded copy and the flat buffer, which is no larger."""
    batches, words = [], 0
    per_word = 2 * 8 * (1 + 2 * max_len)
    for codes in _kernel_records(tab, max_len):
        words += len(codes)
        if words * per_word > MAX_WORD_BYTES:
            orders = tuple(tab.ns.tolist())
            raise ValidationError(
                f"word oracle at bound {max_len} finds at least {words:,}"
                f" kernel words over factors of orders {orders}, whose"
                f" records need more than the limit of {MAX_WORD_BYTES:,}"
                f" bytes; lower the word bound")
        batches.append(codes)
    return _flatten(np.concatenate(batches), tab.xbits)


class _Records(np.ndarray):
    """A flat record buffer that also carries ``codes``, the same records
    as a code matrix: one row per record and one column per syllable
    position."""

    codes: np.ndarray


def _code_bits(sizes) -> int:
    """Bits of a local element over factors of these orders; syllable (f, x)
    is coded ``(f + 1) << bits | x``, and the padding 0."""
    return (max(sizes) - 1).bit_length()


def _code_dtype(xbits: int) -> np.dtype:
    return np.min_scalar_type((4 << xbits) - 1)


def _lex_order(codes: np.ndarray, xbits: int) -> np.ndarray:
    """The order that sorts code rows lexicographically: each row packed,
    first position highest, into as few int64 words as hold it."""
    width = xbits + 2
    # 63 bits a word keep the words non-negative int64, the integer type
    # the rest of the program runs on
    per = 63 // width
    shifts = width * np.arange(per - 1, -1, -1)
    words = [(codes[:, lo:lo + per] << shifts[:codes.shape[1] - lo]).sum(1)
             for lo in range(0, codes.shape[1], per)]
    return np.lexsort(words[::-1])


def _flatten(codes: np.ndarray, xbits: int) -> _Records:
    """Flat record buffer of code rows, lexicographically ordered, with
    their sorted codes."""
    # the padding 0 sorts below every syllable code, so each word comes
    # before its extensions
    codes = codes[_lex_order(codes, xbits)]
    wide = codes.astype(np.int64)
    lengths = (wide != 0).sum(1)
    recs = np.empty((len(codes), 1 + 2 * codes.shape[1]), dtype=np.int64)
    recs[:, 0] = lengths
    recs[:, 1::2] = (wide >> xbits) - 1
    recs[:, 2::2] = wide & (1 << xbits) - 1
    return _frozen(recs[np.arange(recs.shape[1]) <= 2 * lengths[:, None]],
                   codes)


def _frozen(buf: np.ndarray, codes: np.ndarray) -> _Records:
    """``buf`` as a read-only ``_Records`` with its codes."""
    buf = buf.view(_Records)
    buf.codes = codes
    for a in (buf, codes):
        a.setflags(write=False)
    return buf


def _renaming(perm, xbits: int) -> np.ndarray:
    """The code table that renames factor id c to ``perm[c]`` and keeps the
    padding."""
    table = np.arange(4 << xbits, dtype=_code_dtype(xbits)).reshape(4, -1)
    return table[[0] + [c + 1 for c in perm]].ravel()


def _renamed(buf: _Records, perm, xbits: int) -> _Records:
    """The records of ``buf`` with factor id c renamed ``perm[c]``."""
    return _flatten(_renaming(perm, xbits)[buf.codes], xbits)


# No kernel word but the empty one, which no buffer holds: below bound 2,
# and whenever a factor is trivial, since deleting that factor leaves every
# word as it is.  Built without ``_flatten``, so that importing the module
# runs no cast from the narrow codes: numpy's first such cast costs the
# process about 64 KB of set-up, then on top of the import's peak.
_NO_WORDS = _frozen(np.zeros(0, dtype=np.int64),
                    np.zeros((0, 1), dtype=np.uint8))

# Bytes of records and codes the word cache keeps, oldest dropped first.
# A word-oracle sweep over all subgroup triples of D4 and Q8 plus ten cold
# searches up to factor orders (8, 8, 16), at bound 10, runs 46 searches
# and keeps their 46 buffers, 18.5 MiB.
MAX_CACHE_BYTES = 1 << 26
_WORD_CACHE = _Cache(lambda: MAX_CACHE_BYTES,
                     lambda key, buf: buf.nbytes + buf.codes.nbytes)


def _local_order(sub: Subuniverse) -> np.ndarray:
    """A subgroup's members, the identity first and then the rest in order."""
    m, e = sub.members, sub.parent.basepoint
    return np.asarray(m if m[0] == e else (e,) + tuple(x for x in m if x != e),
                      dtype=np.int64)


def _local_group_tables(sub: Subuniverse) -> tuple[np.ndarray, int]:
    """The multiplication table of ``sub`` on local indices 0..k-1, where
    local index i is ``_local_order(sub)[i]``, and k; kept on ``sub``."""
    return _kept(sub, "_local_tables", _local_tables)


def _local_tables(sub: Subuniverse) -> tuple[np.ndarray, int]:
    mul, _ = _require_group(sub.parent, "the word oracle")
    m = _local_order(sub)
    back = np.zeros(sub.parent.size, dtype=np.int64)
    back[m] = np.arange(len(m))
    table = back[mul[m[:, None], m]]
    table.setflags(write=False)
    return table, len(m)


def ternary_kernel_words(subs: tuple[Subuniverse, Subuniverse, Subuniverse],
                         max_len: int) -> np.ndarray:
    """Flat record buffer of all kernel words up to ``max_len`` over the
    local multiplication tables of three subgroups (``_local_order``).

    Record format: length L followed by L (factor, local element) pairs.
    The buffer's ``codes`` holds the records as a code matrix
    (``_Records``), one row per record.  With a trivial factor the answer
    is the shared empty buffer, found without a search.  Otherwise raises
    ``ValidationError`` when the deepest stored half-word level would
    exceed ``MAX_HALF_WORDS`` rows, a deletion word would not fit a 64-bit
    key, or the words found would take more than ``MAX_WORD_BYTES`` as
    records.  Factors in the order of their search (``_search_order``)
    get the cached buffer; in another order, the search's records renamed,
    made anew at each call.
    """
    tabs, sizes = zip(*(_local_group_tables(s) for s in subs))
    max_len = int(max_len)
    if 1 in sizes or max_len < 2:
        return _NO_WORDS
    # permuting the factors only renames the factor ids of the words, so
    # one search serves every order
    perm = _search_order(tabs, sizes)
    key = (tuple(tabs[i].tobytes() for i in perm),
           tuple(sizes[i] for i in perm), max_len)
    buf = _WORD_CACHE.get(key)
    if buf is None:
        tables = _search_tables([tabs[i] for i in perm], key[1], max_len)
        buf = _WORD_CACHE.put(key, _search(tables, max_len))
    return buf if perm == [0, 1, 2] else _renamed(buf, perm, _code_bits(sizes))


def _search_order(tabs, sizes) -> list:
    """The factor order of the search that serves factors with these local
    tables and orders: sorted by (order, table bytes), ties kept in place.
    Factor c of that search is factor ``_search_order(...)[c]`` here."""
    return sorted(range(3), key=lambda i: (sizes[i], tabs[i].tobytes()))


def _search_tables(tabs, sizes: tuple, max_len: int) -> _Tables:
    """The padded tables of a search, once its size is known to fit."""
    half = (max_len + 1) // 2
    rows = _widest_level(sizes, half - 1)
    if rows is None or rows > MAX_HALF_WORDS:
        many = f"more than {MAX_HALF_WORDS:,}" if rows is None else f"{rows:,}"
        raise ValidationError(
            f"word oracle at bound {max_len} needs {many} half-words of"
            f" {half - 1} syllables over factors of orders {sizes}, above the"
            f" limit of {MAX_HALF_WORDS:,}; lower the word bound")
    nmax = max(sizes)
    xbits = _code_bits(sizes)
    if (xbits + 2) * half > 63:
        raise ValidationError(
            f"word oracle at bound {max_len}: deletion words of {half}"
            f" syllables do not fit a 64-bit key; lower the word bound")
    mul = np.zeros((3, nmax, nmax), dtype=np.int64)
    inv = np.zeros((3, nmax), dtype=np.int64)
    for i, t in enumerate(tabs):
        mul[i, :sizes[i], :sizes[i]] = t
        inv[i, :sizes[i]] = np.argmin(t, axis=1)
    return _Tables(mul, inv, np.asarray(sizes), xbits)
