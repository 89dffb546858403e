"""Finite pointed algebras as operation tables.

Everything downstream (commutators, condition checkers) reduces to the
machinery here: subuniverse and congruence generation, products, pullbacks,
kernels.  One closure engine, ``_closure``, computes every generated
subalgebra: subuniverses, power closures in ``D^m`` and, for the fill-in
search, relations in a product of two algebras.  Elements are dense
indices 0..n-1; the basepoint is the value of the signature's designated
nullary operation (identity element for groups, top for Heyting
semilattices) -- explicit data, never a convention.

All values are immutable after construction and freely shareable; each
operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .terms import eval_term  # noqa: F401  (re-exported: part of this API)

__all__ = [
    "ValidationError",
    "Signature",
    "FinAlgebra",
    "Hom",
    "Subuniverse",
    "Congruence",
    "PointObject",
    "SpanWitness",
    "eval_term",
    "generate_subuniverse",
    "generate_congruence",
    "product",
    "check_hom",
    "hom_violations",
    "hom_from_table",
    "identity_hom",
    "zero_hom",
    "kernel_sub",
    "image_sub",
    "pullback",
    "pullback_congruence",
    "power_closure",
]

# Rows allowed in the product a closure runs in: its membership bitmap
# takes one byte per row, before any row is found.
MAX_CLOSURE_KEYS = 1 << 24
_CHUNK = 1 << 18      # candidate rows evaluated at once


class ValidationError(ValueError):
    """A structural invariant failed; ``witness`` locates the violation."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Signature:
    """Operation symbols with arities plus a designated nullary basepoint."""

    ops: tuple[tuple[str, int], ...]
    basepoint_op: str

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple((str(n), int(k)) for n, k in self.ops))
        names = [n for n, _ in self.ops]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate operation names in {names}")
        arities = dict(self.ops)
        if any(k < 0 for k in arities.values()):
            raise ValidationError("negative arity")
        if arities.get(self.basepoint_op) != 0:
            raise ValidationError(
                f"basepoint op {self.basepoint_op!r} must be a nullary operation")


@dataclass(frozen=True, eq=False)
class FinAlgebra:
    """A finite algebra: one numpy table of shape (size,)*arity per op."""

    signature: Signature
    size: int
    tables: dict
    name: str = ""
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError("pointed algebras need at least one element")
        norm = {}
        for op, k in self.signature.ops:
            if op not in self.tables:
                raise ValidationError(f"missing table for {op!r}")
            t = np.asarray(self.tables[op], dtype=np.int64)
            if t.shape != (self.size,) * k:
                raise ValidationError(
                    f"table for {op!r} has shape {t.shape}, "
                    f"expected {(self.size,) * k}")
            if t.size and (t.min() < 0 or t.max() >= self.size):
                raise ValidationError(f"table entry out of range in {op!r}")
            t.setflags(write=False)
            norm[op] = t
        if set(self.tables) - {op for op, _ in self.signature.ops}:
            raise ValidationError("table for symbol not in signature")
        object.__setattr__(self, "tables", norm)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != self.size:
                raise ValidationError("labels length != size")
            object.__setattr__(self, "labels", labels)

    @property
    def basepoint(self) -> int:
        return int(self.tables[self.signature.basepoint_op][()])

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def label_index(self, text: str) -> int:
        if self.labels and text in self.labels:
            return self.labels.index(text)
        try:
            i = int(text)
        except ValueError:
            raise ValidationError(
                f"{text!r} names no element of {self.name or 'algebra'}")
        if not 0 <= i < self.size:
            raise ValidationError(f"element index {i} out of range")
        return i

    def __repr__(self):
        nm = self.name or "FinAlgebra"
        return f"<{nm}: {self.size} elements, {len(self.signature.ops)} ops>"


@dataclass(frozen=True, eq=False)
class Hom:
    """A tabulated map between algebras of the same signature.

    Validated maps have ``violations == ()``.  The only way to hold a Hom
    with a nonempty violation list is ``hom_from_table``, the constructor
    used for replaying recorded tables verbatim; every consumer surfaces
    those violations rather than hiding them.
    """

    dom: FinAlgebra
    cod: FinAlgebra
    map: np.ndarray
    violations: tuple = ()

    def __post_init__(self):
        m = np.asarray(self.map, dtype=np.int64)
        if m.shape != (self.dom.size,):
            raise ValidationError(f"map has shape {m.shape}, expected ({self.dom.size},)")
        if m.size and (m.min() < 0 or m.max() >= self.cod.size):
            raise ValidationError("map value out of range")
        m.setflags(write=False)
        object.__setattr__(self, "map", m)

    def __call__(self, i: int) -> int:
        return int(self.map[i])

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def __repr__(self):
        tag = "" if self.is_valid else f", {len(self.violations)} violations"
        return (f"<Hom {self.dom.name or '?'}->{self.cod.name or '?'} "
                f"{list(self.map)}{tag}>")


@dataclass(frozen=True, eq=False)
class Subuniverse:
    """A subset of a carrier closed under every operation (incl. basepoint)."""

    parent: FinAlgebra
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(set(int(x) for x in self.members)))
        object.__setattr__(self, "members", mem)
        n = self.parent.size
        if mem and (mem[0] < 0 or mem[-1] >= n):
            raise ValidationError("member out of range")
        if self.parent.basepoint not in mem:
            raise ValidationError("subuniverse must contain the basepoint")
        inside = np.zeros(n, dtype=bool)
        arr = np.asarray(mem)
        inside[arr] = True
        for op, k in self.parent.signature.ops:
            # every argument tuple over the members, as a broadcast grid
            vals = self.parent.tables[op][tuple(
                arr.reshape((-1,) + (1,) * (k - 1 - i)) for i in range(k))]
            escaped = vals[~inside[vals]]
            if escaped.size:
                raise ValidationError(
                    f"not closed under {op!r} (escapes to {int(escaped[0])})",
                    witness=(op, int(escaped[0])))

    def __contains__(self, i: int) -> bool:
        return int(i) in set(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def is_zero(self) -> bool:
        return self.members == (self.parent.basepoint,)

    def issubset(self, other: "Subuniverse") -> bool:
        if other.parent is not self.parent:
            raise ValidationError(
                "issubset: subuniverse of a different parent")
        return set(self.members) <= set(other.members)

    def label_set(self) -> tuple[str, ...]:
        return tuple(self.parent.label(i) for i in self.members)

    def as_algebra(self, name: str = "") -> FinAlgebra:
        """Renumber members 0..k-1 and restrict every table; local index i
        is ``members[i]``."""
        arr = np.asarray(self.members)
        back = np.full(self.parent.size, -1, dtype=np.int64)
        back[arr] = np.arange(len(arr))
        tables = {}
        for op, k in self.parent.signature.ops:
            t = self.parent.tables[op]
            tables[op] = back[t[()]] if k == 0 else back[t[np.ix_(*([arr] * k))]]
        labels = (tuple(self.parent.label(i) for i in self.members)
                  if self.parent.labels else None)
        return FinAlgebra(self.parent.signature, len(arr), tables,
                          name=name or f"{self.parent.name}|sub", labels=labels)

    def inclusion_hom(self) -> Hom:
        return check_hom(self.as_algebra(), self.parent, self.members)


@dataclass(frozen=True, eq=False)
class Congruence:
    """Partition of a carrier compatible with every operation.

    Canonical form: ``block_id[i]`` is the least element of i's block.
    """

    parent: FinAlgebra
    block_id: tuple[int, ...]

    def __post_init__(self):
        n = self.parent.size
        bid = tuple(int(x) for x in self.block_id)
        if len(bid) != n:
            raise ValidationError("block_id length != size")
        for i, r in enumerate(bid):
            if not 0 <= r <= i or bid[r] != r:
                raise ValidationError(
                    f"block ids not canonical at element {i}", witness=i)
        object.__setattr__(self, "block_id", bid)
        b = np.asarray(bid)
        for op, k in self.parent.signature.ops:
            if k == 0:
                continue
            t = self.parent.tables[op]
            collapsed = t[np.ix_(*([b] * k))]
            if not np.array_equal(b[collapsed], b[t]):
                bad = np.argwhere(b[collapsed] != b[t])[0]
                raise ValidationError(
                    f"partition not compatible with {op!r}",
                    witness=(op, tuple(int(x) for x in bad)))

    # -- builders ----------------------------------------------------------
    @classmethod
    def delta(cls, algebra: FinAlgebra) -> "Congruence":
        return cls(algebra, tuple(range(algebra.size)))

    @classmethod
    def from_raw_ids(cls, algebra: FinAlgebra, raw: Sequence[int]) -> "Congruence":
        """Canonicalize an arbitrary labelling into least-member block ids."""
        first: dict[int, int] = {}
        bid = []
        for i, r in enumerate(raw):
            bid.append(first.setdefault(int(r), i))
        return cls(algebra, tuple(bid))

    # -- queries -----------------------------------------------------------
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        by_root: dict[int, list[int]] = {}
        for i, r in enumerate(self.block_id):
            by_root.setdefault(r, []).append(i)
        return tuple(tuple(by_root[r]) for r in sorted(by_root))

    @property
    def num_blocks(self) -> int:
        return len(set(self.block_id))

    def is_delta(self) -> bool:
        return self.num_blocks == self.parent.size

    def spanning_pairs(self) -> tuple[tuple[int, int], ...]:
        """One generating pair (root, i) per non-root element."""
        return tuple((r, i) for i, r in enumerate(self.block_id) if r != i)

    def all_pairs(self) -> tuple[tuple[int, int], ...]:
        """Every related ordered pair, diagonal included."""
        b = np.asarray(self.block_id)
        eq = b[:, None] == b[None, :]
        return tuple(map(tuple, np.argwhere(eq)))


@dataclass(frozen=True, eq=False)
class PointObject:
    """A split epimorphism with a chosen section."""

    total: FinAlgebra
    base: FinAlgebra
    proj: Hom
    sect: Hom

    def __post_init__(self):
        if self.proj.dom is not self.total or self.proj.cod is not self.base:
            raise ValidationError("proj must map total -> base")
        if self.sect.dom is not self.base or self.sect.cod is not self.total:
            raise ValidationError("sect must map base -> total")
        if not np.array_equal(self.proj.map[self.sect.map],
                              np.arange(self.base.size)):
            raise ValidationError("proj o sect is not the identity")


@dataclass(frozen=True, eq=False)
class SpanWitness:
    """A constructed carrier plus its projection legs and any induced maps."""

    carrier: FinAlgebra
    legs: tuple[Hom, ...]
    induced: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closure machinery


def generate_subuniverse(algebra: FinAlgebra, gens: Iterable[int]) -> Subuniverse:
    """Least subuniverse containing ``gens`` and the basepoint."""
    gens = [int(g) for g in gens]
    for g in gens:
        if not 0 <= g < algebra.size:
            raise ValidationError(f"generator {g} out of range")
    rows = _closure((algebra,), np.asarray(gens, dtype=np.int64)[:, None])
    return Subuniverse(algebra, tuple(rows[:, 0].tolist()))


def generate_congruence(algebra: FinAlgebra,
                        pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing ``pairs``.

    Worklist closure: merging two classes enqueues, for every operation and
    argument position, the single-coordinate substitution consequences over
    all contexts.  Multi-coordinate compatibility follows by chaining.
    """
    n = algebra.size
    root = np.arange(n, dtype=np.int64)
    queue: list[tuple[int, int]] = []
    for a, b in pairs:
        a, b = int(a), int(b)
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"pair ({a},{b}) out of range")
        queue.append((a, b))

    unary = [(op, algebra.tables[op]) for op, k in algebra.signature.ops if k == 1]
    wider = [(op, k, algebra.tables[op])
             for op, k in algebra.signature.ops if k >= 2]

    while queue:
        a, b = queue.pop()
        ra, rb = int(root[a]), int(root[b])
        if ra == rb:
            continue
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        root[root == hi] = lo
        for _, t in unary:
            queue.append((int(t[lo]), int(t[hi])))
        for _, k, t in wider:
            for pos in range(k):
                idx_lo = [slice(None)] * k
                idx_hi = [slice(None)] * k
                idx_lo[pos] = lo
                idx_hi[pos] = hi
                va = t[tuple(idx_lo)].ravel()
                vb = t[tuple(idx_hi)].ravel()
                diff = root[va] != root[vb]
                if diff.any():
                    queue.extend(zip(va[diff].tolist(), vb[diff].tolist()))
    return Congruence(algebra, tuple(int(x) for x in root))


# ---------------------------------------------------------------------------
# constructions


def _check_same_signature(a: FinAlgebra, b: FinAlgebra) -> None:
    if a.signature.ops != b.signature.ops or \
            a.signature.basepoint_op != b.signature.basepoint_op:
        raise ValidationError("signature mismatch")


def product(a: FinAlgebra, b: FinAlgebra) -> SpanWitness:
    """Componentwise product; element (x, y) is index x*|B| + y."""
    _check_same_signature(a, b)
    na, nb = a.size, b.size
    n = na * nb
    ai = np.arange(n) // nb
    bi = np.arange(n) % nb
    tables = {}
    for op, k in a.signature.ops:
        ta, tb = a.tables[op], b.tables[op]
        if k == 0:
            tables[op] = np.asarray(int(ta[()]) * nb + int(tb[()]))
        else:
            grid_a = ta[np.ix_(*([ai] * k))]
            grid_b = tb[np.ix_(*([bi] * k))]
            tables[op] = grid_a * nb + grid_b
    labels = None
    if a.labels and b.labels:
        labels = tuple(f"({a.label(int(x))},{b.label(int(y))})"
                       for x, y in zip(ai, bi))
    carrier = FinAlgebra(a.signature, n, tables,
                         name=f"{a.name}x{b.name}" if a.name and b.name else "",
                         labels=labels)
    p1 = check_hom(carrier, a, ai)
    p2 = check_hom(carrier, b, bi)
    return SpanWitness(carrier, (p1, p2))


def hom_violations(dom: FinAlgebra, cod: FinAlgebra,
                   mapping: Sequence[int]) -> list[tuple]:
    """All (op, args, mapped-value, expected-value) preservation failures."""
    _check_same_signature(dom, cod)
    m = np.asarray(mapping, dtype=np.int64)
    out: list[tuple] = []
    for op, k in dom.signature.ops:
        td, tc = dom.tables[op], cod.tables[op]
        if k == 0:
            if int(m[td[()]]) != int(tc[()]):
                out.append((op, (), int(m[td[()]]), int(tc[()])))
            continue
        lhs = m[td]
        rhs = tc[np.ix_(*([m] * k))]
        bad = np.argwhere(lhs != rhs)
        for args in bad:
            args = tuple(int(x) for x in args)
            out.append((op, args, int(lhs[args]), int(rhs[args])))
    return out


def check_hom(dom: FinAlgebra, cod: FinAlgebra, mapping: Sequence[int]) -> Hom:
    """Validate a map table; raises with the first violated (op, args)."""
    bad = hom_violations(dom, cod, mapping)
    if bad:
        op, args, got, want = bad[0]
        arg_text = ",".join(dom.label(a) for a in args)
        raise ValidationError(
            f"map does not preserve {op}({arg_text}): got "
            f"{cod.label(got)}, expected {cod.label(want)}", witness=bad[0])
    return Hom(dom, cod, np.asarray(mapping, dtype=np.int64))


def hom_from_table(dom: FinAlgebra, cod: FinAlgebra,
                   mapping: Sequence[int]) -> Hom:
    """Build a Hom from a recorded table without rejecting it: a
    non-preserving table keeps its violations instead of raising."""
    bad = hom_violations(dom, cod, mapping)
    return Hom(dom, cod, np.asarray(mapping, dtype=np.int64),
               violations=tuple(bad))


def identity_hom(algebra: FinAlgebra) -> Hom:
    return Hom(algebra, algebra, np.arange(algebra.size))


def zero_hom(dom: FinAlgebra, cod: FinAlgebra) -> Hom:
    """The constant-to-basepoint map (the zero morphism)."""
    return check_hom(dom, cod, np.full(dom.size, cod.basepoint))


def kernel_sub(f: Hom) -> Subuniverse:
    """Preimage of the codomain basepoint."""
    members = np.nonzero(f.map == f.cod.basepoint)[0]
    return Subuniverse(f.dom, tuple(int(x) for x in members))


def image_sub(f: Hom) -> Subuniverse:
    return Subuniverse(f.cod, tuple(int(v) for v in set(f.map.tolist())))


def pullback(f: Hom, g: Hom,
             r: Optional[Hom] = None, s: Optional[Hom] = None) -> SpanWitness:
    """Fibered product of f: A->B and g: C->B over their common codomain.

    When sections r of f and s of g are supplied, the induced maps
    e1 = <1, s o f> and e2 = <r o g, 1> come back under ``induced``.
    """
    if f.cod is not g.cod:
        raise ValidationError("pullback needs a common codomain")
    a_alg, c_alg = f.dom, g.dom
    _check_same_signature(a_alg, c_alg)
    nc = c_alg.size
    members = [(x, y)
               for x in range(a_alg.size) for y in range(nc)
               if f.map[x] == g.map[y]]
    pos = np.full(a_alg.size * nc, -1, dtype=np.int64)
    for i, (x, y) in enumerate(members):
        pos[x * nc + y] = i
    aarr = np.asarray([x for x, _ in members])
    carr = np.asarray([y for _, y in members])
    tables = {}
    for op, k in a_alg.signature.ops:
        ta, tc = a_alg.tables[op], c_alg.tables[op]
        if k == 0:
            code = int(ta[()]) * nc + int(tc[()])
        else:
            code = ta[np.ix_(*([aarr] * k))] * nc + tc[np.ix_(*([carr] * k))]
        t = pos[code]
        assert np.all(np.asarray(t) >= 0), "pullback carrier not closed"
        tables[op] = t
    labels = None
    if a_alg.labels and c_alg.labels:
        labels = tuple(f"({a_alg.label(x)},{c_alg.label(y)})"
                       for x, y in members)
    carrier = FinAlgebra(a_alg.signature, len(members), tables,
                         name=(f"{a_alg.name}xb{c_alg.name}"
                               if a_alg.name and c_alg.name else ""),
                         labels=labels)
    p1 = check_hom(carrier, a_alg, aarr)
    p2 = check_hom(carrier, c_alg, carr)
    induced = {}
    if r is not None and s is not None:
        e1 = pos[np.arange(a_alg.size) * nc + s.map[f.map]]
        e2 = pos[r.map[g.map] * nc + np.arange(nc)]
        if (e1 < 0).any() or (e2 < 0).any():
            raise ValidationError("sections do not land in the pullback")
        induced["e1"] = check_hom(a_alg, carrier, e1)
        induced["e2"] = check_hom(c_alg, carrier, e2)
    return SpanWitness(carrier, (p1, p2), induced)


def pullback_congruence(f: Hom, theta: Congruence) -> Congruence:
    if theta.parent is not f.cod:
        raise ValidationError("congruence lives on a different algebra")
    raw = [theta.block_id[int(v)] for v in f.map]
    return Congruence.from_raw_ids(f.dom, raw)


# ---------------------------------------------------------------------------
# power-algebra closure (no materialized power tables)


def power_closure(algebra: FinAlgebra, seeds: Iterable[Sequence[int]],
                  width: Optional[int] = None) -> np.ndarray:
    """Subalgebra of algebra^m generated by ``seeds``, as a (count, m) array
    of componentwise tuples in encoded-key order."""
    seeds = [tuple(int(x) for x in t) for t in seeds]
    if width is None:
        if not seeds:
            raise ValidationError("power_closure needs seeds or a width")
        width = len(seeds[0])
    if any(len(t) != width for t in seeds):
        raise ValidationError("seed width mismatch")
    if any(not 0 <= x < algebra.size for t in seeds for x in t):
        raise ValidationError("seed out of range")
    return _closure((algebra,) * width,
                    np.asarray(seeds, dtype=np.int64).reshape(-1, width))


def _closure(factors: Sequence[FinAlgebra], seeds: np.ndarray,
             derivations: bool = False):
    """Subalgebra of A1 x ... x Am generated by the rows ``seeds`` (inside
    the product) and the constants, as a (count, m) array of rows in key
    order; a row's key is its mixed-radix index, first coordinate first.

    Semi-naive: round r applies each k-ary operation only to argument
    tuples holding a row found in round r-1.  For argument position i,
    positions before i take older rows, position i a new row and positions
    after i any row, so every such tuple is evaluated once.  Membership is
    one byte per key, and candidates are marked about ``_CHUNK`` at a time
    (with derivations, all of one operation's in a round at once).

    With ``derivations`` it also returns each row's first derivation in
    the order (round, operation in signature order, argument positions in
    the sorted rows at the round's start), as ``(when, op, args)``: op
    None and the index of a seed row (round 0 holds the seeds, then the
    constants), or an operation name and its argument rows.
    """
    for other in factors[1:]:
        _check_same_signature(factors[0], other)
    sizes = [a.size for a in factors]
    total = math.prod(sizes)
    if total > MAX_CLOSURE_KEYS:
        raise ValidationError(
            f"closure over a product of {total:,} rows (factor orders"
            f" {tuple(sizes)}) is above the limit of {MAX_CLOSURE_KEYS:,}")
    strides = [math.prod(sizes[j + 1:]) for j in range(len(sizes))]
    digits = np.asarray([strides, sizes])
    sig = factors[0].signature.ops
    consts = [(op, sum(st * int(a.tables[op][()])
                       for st, a in zip(strides, factors)))
              for op, k in sig if k == 0]
    start = (seeds @ digits[0]).tolist() + [key for _, key in consts]
    state = np.zeros(total, dtype=np.uint8)   # 0 unseen, 1 new, 2 older
    state[start] = 1
    how: dict = {}
    for j, key in enumerate(start if derivations else ()):
        c = j - len(seeds)
        how.setdefault(key, ((0, j), None, j) if c < 0
                       else ((0, j), consts[c][0], ()))
    # When the factors differ, an operation's tables are stacked along the
    # first argument, which factor j reads at offset lift[j].
    distinct = list({id(a): a for a in factors}.values())
    nmax = max(sizes)
    lift = [nmax * distinct.index(a) for a in factors]
    ops = []
    for oi, (op, k) in enumerate(sig):
        table = distinct[0].tables[op]
        if len(distinct) > 1 and k:
            table = np.zeros((len(distinct) * nmax,) + (nmax,) * (k - 1),
                             dtype=np.int64)
            for d, a in enumerate(distinct):
                table[(slice(d * nmax, d * nmax + a.size),)
                      + (slice(a.size),) * (k - 1)] = a.tables[op]
        if k:
            ops.append((oi, op, k, table))
    rnd, grew = 0, True
    while grew:
        known = state.nonzero()[0]
        older = state[known] == 2
        fresh = len(known) - np.count_nonzero(older)
        state[known] = 2
        rnd += 1
        # the rows, new ones first, so that each argument position ranges
        # over a span of them; ``order`` maps them back to key order
        order = older.argsort(kind="stable")
        rows = known[order, None] // digits[0] % digits[1]
        lifted = rows + lift if len(distinct) > 1 else rows
        found, count, grew = [], 0, 0
        for oi, op, k, table in ops:
            for i in range(k):
                spans = [slice(fresh, None)] * i + [slice(fresh)] \
                    + [slice(None)] * (k - i - 1)
                for vals, at in _apply(table, lifted, rows, spans,
                                       derivations):
                    keys = vals @ digits[0]
                    found.append((keys, at) if derivations else keys.ravel())
                    count += keys.size
                    if count >= _CHUNK and not derivations:
                        grew += _mark(found, state)
                        found, count = [], 0
            if derivations and found:
                grew += _first_derivations(found, order, rows, (rnd, oi), op,
                                           state, how)
                found = []
        grew += _mark(found, state)
    keys = state.nonzero()[0]
    rows = keys[:, None] // digits[0] % digits[1]
    return (rows, [how[key] for key in keys.tolist()]) if derivations \
        else rows


def _apply(table: np.ndarray, lifted: np.ndarray, rows: np.ndarray, spans,
           places: bool):
    """Values of one operation over the grid of the row spans, in chunks
    of shape (c, rows of the last span, factors), each with its argument
    positions (broadcastable to the chunk's grid) if ``places``."""
    *outer, inner = [(rows if p else lifted)[s] for p, s in enumerate(spans)]
    shape = tuple(len(a) for a in outer)
    count = math.prod(shape)
    step = max(1, _CHUNK // max(1, len(inner)))
    for lo in range(0, count if len(inner) else 0, step):
        hi = min(lo + step, count)
        picks = (slice(lo, hi),) * len(shape) if len(shape) < 2 \
            else np.unravel_index(np.arange(lo, hi), shape)
        vals = table[tuple(a[p, None] for a, p in zip(outer, picks))
                     + (inner[None],)]
        at = [(s.start or 0) + np.arange(len(rows))[p][:, None]
              for s, p in zip(spans, picks)] + [
            np.arange(len(rows))[spans[-1]][None]] if places else None
        yield vals, at


def _mark(found, state: np.ndarray) -> int:
    """Mark the keys in ``found`` seen; the number that were not."""
    if not found:
        return 0
    keys = found[0] if len(found) == 1 else np.concatenate(found)
    keys = keys[state[keys] == 0]
    state[keys] = 1
    return len(keys)


def _first_derivations(found, order, rows, when, op, state, how) -> int:
    """Record the first derivation of every unseen key in ``found`` (key
    grids with their argument places), mark them seen; their number."""
    keys = np.concatenate([k.ravel() for k, _ in found])
    pos = [np.concatenate([np.broadcast_to(order[at[p]], k.shape).ravel()
                           for k, at in found])
           for p in range(len(found[0][1]))]
    unseen = state[keys] == 0
    keys, pos = keys[unseen], [p[unseen] for p in pos]
    srt = np.lexsort(pos[::-1] + [keys])
    first = srt[np.unique(keys[srt], return_index=True)[1]]
    by_key = rows[order.argsort()]
    for key, *at in zip(keys[first].tolist(),
                        *(p[first].tolist() for p in pos)):
        how[key] = (when + (tuple(at),), op,
                    tuple(map(tuple, by_key[at].tolist())))
    state[keys[first]] = 1
    return len(first)
