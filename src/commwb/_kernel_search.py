"""Fast bounded enumeration of ternary co-smash kernel words.

Internal engine behind the word-oracle commutator strategy.  A reduced word
over three group factors is a kernel word when its three factor deletions
``del_i`` all reduce to the empty word.  Each deletion is a homomorphism,
so a word of length L is a kernel word exactly when ``w = p·q⁻¹`` with
``|p| = ⌈L/2⌉``, ``|q| = ⌊L/2⌋``, p and q reduced and ending in different
factors (so the product is reduced as written), and ``del_i(p) = del_i(q)``
for i = 0, 1, 2.  The search builds one table, the reduced half-words of up
to ⌈B/2⌉ syllables, level by level in numpy, and self-joins it on that key.

Each deletion word is packed into one int64, so appending a syllable (push,
merge into the top, or cancel it) is a few shifts and masks.  Each level is
sorted on a 64-bit hash of its three deletions, stored as the hash's high
bits over the row index; the widest level keeps nothing else, and every hash
match is verified on the full key.  Records come out lexicographically in
(factor, element), a word before its extensions.

The widest level has 3(n-1)(2(n-1))^(⌈B/2⌉-1) rows for three factors of
order n; a search over ``MAX_HALF_WORDS`` is refused before anything is
allocated.  Results are cached per (table bytes, bound) key, which
de-duplicates work across subgroup triples with the same local tables; the
cache keeps at most ``MAX_CACHE_BYTES`` of records, dropping the oldest.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Subuniverse, ValidationError

__all__ = ["DEFAULT_WORD_BOUND", "ternary_kernel_words", "iter_word_records"]

# Syllable bound of the word oracle when the caller gives none.
DEFAULT_WORD_BOUND = 12

# Rows allowed in the widest half-word level: 8 bytes each, plus transient
# join buffers of about twice that.
MAX_HALF_WORDS = 50_000_000

_CHUNK = 1 << 20
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
    stacks: np.ndarray | None  # (3, rows) packed deletions, if kept
    keys: np.ndarray     # sorted: hash high bits | row index
    ibits: int           # low bits of ``keys`` holding the row index


def _append(tab: _Tables, stacks, f: int, x):
    """Packed deletions after appending syllable (f, x); broadcasts."""
    width = tab.xbits + 2
    mask = (1 << width) - 1
    out = []
    for d in range(3):
        s = stacks[d]
        if d == f:
            out.append(np.broadcast_to(s, np.broadcast_shapes(s.shape,
                                                              np.shape(x))))
            continue
        top = s & mask
        same = (top >> tab.xbits) == f + 1
        base = np.where(same, s >> width, s)
        elem = np.where(same, tab.mul[f, top & ((1 << tab.xbits) - 1), x], x)
        code = ((f + 1) << tab.xbits) | elem
        out.append(np.where(elem == 0, base, (base << width) | code))
    return out


def _hash(stacks) -> np.ndarray:
    h = sum(np.asarray(s, dtype=np.uint64) * c for s, c in zip(stacks, _MIX))
    h ^= h >> np.uint64(31)
    h *= _MIX[3]
    return h ^ (h >> np.uint64(29))


def _grow(tab: _Tables, prev: _Level, keep: bool) -> _Level:
    """All one-syllable extensions of ``prev``, blocked by the new factor."""
    last = _last(prev, np.arange(prev.stacks.shape[1]))
    parents = tuple(np.flatnonzero(last != f) for f in range(3))
    sizes = [len(parents[f]) * int(tab.ns[f] - 1) for f in range(3)]
    offsets = np.cumsum([0] + sizes)
    ibits = max(1, int(offsets[-1]).bit_length())
    high = ~np.uint64((1 << ibits) - 1)
    keys = np.empty(offsets[-1], dtype=np.uint64)
    stacks = np.empty((3, offsets[-1]), dtype=np.int64) if keep else None
    for f in range(3):
        w = int(tab.ns[f] - 1)
        xs = np.arange(1, w + 1, dtype=np.int64)[None, :]
        step = max(1, _CHUNK // max(w, 1))
        for lo in range(0, len(parents[f]), step):
            par = parents[f][lo:lo + step]
            new = _append(tab, prev.stacks[:, par][:, :, None], f, xs)
            start = int(offsets[f]) + lo * w
            rows = np.arange(start, start + len(par) * w, dtype=np.uint64)
            keys[rows] = (_hash(new).ravel() & high) | rows
            if keep:
                stacks[:, rows] = [d.ravel() for d in new]
    keys.sort()
    return _Level(offsets, parents, stacks, keys, ibits)


def _last(lev: _Level, rows: np.ndarray) -> np.ndarray:
    return np.searchsorted(lev.offsets, rows, side="right") - 1


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


def _stacks(tab: _Tables, levels: list, k: int, rows: np.ndarray):
    if levels[k].stacks is not None:
        return levels[k].stacks[:, rows]
    parent, f, x = _decode(tab, levels[k], rows)
    out = np.empty((3, len(rows)), dtype=np.int64)
    for g in range(3):
        sel = f == g
        out[:, sel] = _append(tab, levels[k - 1].stacks[:, parent[sel]], g,
                              x[sel])
    return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the pairs (s, c)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1]) \
        if len(counts) else np.zeros(0, dtype=np.int64)


def _hash_matches(levels: list, a: int, b: int):
    """Rows (i at level a, j at level b) whose key hashes agree, a >= b."""
    keys, ibits = levels[a].keys, levels[a].ibits
    low = np.uint64((1 << ibits) - 1)
    if a == b:
        # runs of equal hash, found without a full-width index array
        dup = np.flatnonzero((keys[1:] ^ keys[:-1]) <= low)
        first = np.r_[True, np.diff(dup) != 1] if len(dup) else dup > 0
        starts = dup[first]
        counts = np.diff(np.r_[np.flatnonzero(first), len(dup)]) + 1
        pos = _ranges(starts, counts)
        lo, cnt = np.repeat(starts, counts), np.repeat(counts, counts)
        j = (keys[pos] & low).astype(np.int64)
    else:
        top = _hash(levels[b].stacks) & ~low
        j = np.argsort(top)     # sorted queries keep the bisection local
        lo = np.searchsorted(keys, top[j], side="left")
        cnt = np.searchsorted(keys, top[j] | low, side="right") - lo
    i = (keys[_ranges(lo, cnt)] & low).astype(np.int64)
    return i, np.repeat(j, cnt)


def _syllables(tab: _Tables, levels: list, k: int, rows: np.ndarray):
    fs, xs = np.empty((2, len(rows), k), dtype=np.int64)
    for t in range(k, 0, -1):
        rows, fs[:, t - 1], xs[:, t - 1] = _decode(tab, levels[t], rows)
    return fs, xs


def _widest_level(ns, half: int) -> int:
    """Exact row count of the half-words with ``half`` syllables."""
    ends = [int(n) - 1 for n in ns]     # words of length 1 ending in f
    for _ in range(half - 1):
        ends = [(int(n) - 1) * (sum(ends) - e) for n, e in zip(ns, ends)]
    return sum(ends) if half else 1


def _search(tab: _Tables, max_len: int) -> np.ndarray:
    """Flat record buffer, lexicographically ordered."""
    half = (max_len + 1) // 2
    # the empty word; all three blocks empty, so its last factor reads as 3
    levels = [_Level(np.zeros(4, dtype=np.int64), (),
                     np.zeros((3, 1), dtype=np.int64), None, 0)]
    for k in range(1, half + 1):
        levels.append(_grow(tab, levels[-1], keep=k < half))
    found = []
    for length in range(2, max_len + 1):
        a, b = (length + 1) // 2, length // 2
        i, j = _hash_matches(levels, a, b)
        ok = (_stacks(tab, levels, a, i) == _stacks(tab, levels, b, j)).all(0)
        ok &= _last(levels[a], i) != _last(levels[b], j)
        fp, xp = _syllables(tab, levels, a, i[ok])
        fq, xq = _syllables(tab, levels, b, j[ok])
        rec = np.zeros((len(fp), 1 + 2 * max_len), dtype=np.int64)
        rec[:, 0] = length
        rec[:, 1:1 + 2 * length:2] = np.hstack([fp, fq[:, ::-1]])
        rec[:, 2:2 + 2 * length:2] = np.hstack([xp, tab.inv[fq, xq][:, ::-1]])
        found.append(rec)
    # the padding (0, 0) sorts below every syllable (x >= 1), so a lexsort
    # on the syllable columns puts each word before its extensions
    recs = np.concatenate(found)
    recs = recs[np.lexsort(recs[:, :0:-1].T)]
    return recs[np.arange(recs.shape[1]) < 1 + 2 * recs[:, :1]]


# Record bytes the word cache keeps, oldest dropped first.  The 233
# searches of a sweep over all subgroup triples of D4 and Q8 plus cold
# searches up to factor orders (8, 8, 16), at bound 10, keep about 35 MB.
MAX_CACHE_BYTES = 1 << 26
_WORD_CACHE: dict = {}


def _local_group_tables(sub: Subuniverse) -> tuple[np.ndarray, int]:
    alg = sub.as_algebra()
    if alg.basepoint != 0:
        raise ValidationError("word oracle needs the identity at local index 0")
    return np.asarray(alg.tables["mul"], dtype=np.int64), alg.size


def ternary_kernel_words(subs: tuple[Subuniverse, Subuniverse, Subuniverse],
                         max_len: int) -> np.ndarray:
    """Flat record buffer of all kernel words up to ``max_len`` over the
    local multiplication tables of three subgroups (identity at index 0).

    Record format: length L followed by L (factor, local element) pairs.
    Raises ``ValidationError`` when the half-word table would exceed
    ``MAX_HALF_WORDS`` rows.
    """
    tabs, sizes = zip(*(_local_group_tables(s) for s in subs))
    key = (tuple(t.tobytes() for t in tabs), tuple(sizes), int(max_len))
    hit = _WORD_CACHE.get(key)
    if hit is not None:
        return hit

    half = (max(int(max_len), 0) + 1) // 2
    rows = _widest_level(sizes, half)
    if rows > MAX_HALF_WORDS:
        raise ValidationError(
            f"word oracle at bound {max_len} needs {rows:,} half-words over"
            f" factors of orders {sizes}, above the limit of"
            f" {MAX_HALF_WORDS:,}; lower the word bound")
    nmax = max(sizes)
    xbits = (nmax - 1).bit_length()
    if (xbits + 2) * half > 63:
        raise ValidationError(
            f"word oracle at bound {max_len}: deletion words of {half}"
            f" syllables do not fit a 64-bit key; lower the word bound")
    mul = np.zeros((3, nmax, nmax), dtype=np.int64)
    inv = np.zeros((3, nmax), dtype=np.int64)
    for i, t in enumerate(tabs):
        mul[i, :sizes[i], :sizes[i]] = t
        inv[i, :sizes[i]] = np.argmin(t, axis=1)
    result = np.zeros(0, dtype=np.int64) if max_len < 2 else _search(
        _Tables(mul, inv, np.asarray(sizes), xbits), int(max_len))
    result.setflags(write=False)
    _WORD_CACHE[key] = result
    held = sum(buf.nbytes for buf in _WORD_CACHE.values())
    while held > MAX_CACHE_BYTES:
        held -= _WORD_CACHE.pop(next(iter(_WORD_CACHE))).nbytes
    return result


def iter_word_records(buf: np.ndarray):
    """Yield (length, flat (f, x) int array) views over a record buffer."""
    pos = 0
    n = len(buf)
    while pos < n:
        length = int(buf[pos])
        yield length, buf[pos + 1: pos + 1 + 2 * length]
        pos += 1 + 2 * length
