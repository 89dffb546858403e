"""Finite pointed algebras as operation tables.

Everything downstream (commutators, condition checkers) reduces to the
machinery here: subuniverse and congruence generation, products, pullbacks,
kernels.  One closure engine, ``_closure``, computes every generated
subalgebra, in a power ``D^m`` of one algebra: subuniverses at m = 1 and
power closures.  It has two routes with the same rows.  In a power of a
group (one binary, one unary and the basepoint operation, with a
group's tables: ``_group_tables``, once per algebra), the group route
closes the identity under right multiplication by the seeds, adding one
generator at a time as Dimino's algorithm does; otherwise the semi-naive
route applies every operation.  On a group, congruences need no closure
in a power at all: ``generate_congruence`` takes the cosets of a normal
closure (``_normal_cosets``).  ``_heyting_tables`` decides the same way,
from the tables and once per algebra, whether an algebra is a Heyting
semilattice, for ``smith``'s meet route.  ``_kept`` keeps these results
on their object; one whose computation raises, as ``image_sub``'s check
of an image as a subuniverse may, is not kept.  A ``_Cache``, the memo,
sits in front of the engine: a closure asked again in the same algebra
(the same object), at the same width and with the same set of seed rows
returns the rows of the first call, read-only, within ``MAX_MEMO_BYTES``
(oldest out first), the bound of ``commutators``' memo of group
commutators too.

Inputs are checked where they come in: the public constructors, files
and the CLI.  Results the engine builds closed by construction (generated
subuniverses and congruences, and on algebras whose operations all fix
the basepoint, commutator traces and basepoint blocks) are made with
``_trusted``, which skips the re-check.  Elements are dense
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
# Bytes each memo keeps (closures here, group commutators in commutators),
# and what it charges an entry beyond its contents (dict slot, key tuple).
MAX_MEMO_BYTES = 1 << 24
_MEMO_ENTRY_BYTES = 512


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
    """A finite algebra: one numpy table of shape (size,)*arity per op.

    ``fixes_basepoint`` is set on construction: whether f(bp, ..., bp) = bp
    for every operation f, so that the elements in the basepoint's place
    of any subalgebra of a power form a subuniverse.
    """

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
            if len(set(labels)) != self.size:
                dup = next(x for x in labels if labels.count(x) > 1)
                raise ValidationError(f"label {dup!r} names more than one"
                                      f" element of {self.name or 'algebra'}")
            object.__setattr__(self, "labels", labels)
        bp = (int(norm[self.signature.basepoint_op][()]),)
        object.__setattr__(self, "fixes_basepoint", all(
            int(t[bp * t.ndim]) == bp[0] for t in norm.values()))

    @property
    def basepoint(self) -> int:
        return int(self.tables[self.signature.basepoint_op][()])

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def label_index(self, text: str, what: str = "") -> int:
        """The element a label or an index names; an error is headed by
        ``what``, the name of the argument that gave ``text``."""
        if self.labels and text in self.labels:
            return self.labels.index(text)
        head = f"{what}: " if what else ""
        try:
            i = int(text)
        except ValueError:
            raise ValidationError(f"{head}{text!r} names no element of"
                                  f" {self.name or 'algebra'}") from None
        if not 0 <= i < self.size:
            raise ValidationError(f"{head}element index {i} out of range")
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
        m = _map_array(self.dom, self.cod, self.map)
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

    @classmethod
    def _trusted(cls, parent: FinAlgebra,
                 members: tuple[int, ...]) -> "Subuniverse":
        """A subuniverse from members known sorted, distinct, pointed and
        closed, without the re-check."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "members", members)
        return sub

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

    @classmethod
    def _trusted(cls, parent: FinAlgebra,
                 block_id: tuple[int, ...]) -> "Congruence":
        """A congruence from block ids known canonical and compatible,
        without the re-check."""
        theta = object.__new__(cls)
        object.__setattr__(theta, "parent", parent)
        object.__setattr__(theta, "block_id", block_id)
        return theta

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
    gens = np.fromiter(gens, dtype=np.int64)
    if (bad := _out_of_range(gens, algebra.size)) is not None:
        raise ValidationError(f"generator {bad} out of range")
    rows = _closure(algebra, gens[:, None])
    # key order: sorted and distinct, with the constants
    return Subuniverse._trusted(algebra, tuple(rows[:, 0].tolist()))


def generate_congruence(algebra: FinAlgebra,
                        pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing ``pairs``.

    On a group (``_group_tables``), the cosets of the normal subgroup
    generated by a⁻¹b over the pairs (``_normal_cosets``): a group's
    congruences are the coset partitions of its normal subgroups, x ~ y
    exactly when x⁻¹y lies in the basepoint block (Burris–Sankappanavar,
    *A Course in Universal Algebra*, ch. II), so the least one holding
    every a ~ b is that of the least normal subgroup holding every a⁻¹b.
    Otherwise ``_congruence_worklist``.
    """
    n = algebra.size
    queue: list[tuple[int, int]] = []
    for a, b in pairs:
        a, b = int(a), int(b)
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"pair ({a},{b}) out of range")
        queue.append((a, b))
    group = _group_tables(algebra)
    if group is None:
        return _congruence_worklist(algebra, queue)
    mul, inv = group
    ends = np.asarray(queue, dtype=np.int64).reshape(-1, 2)
    return _normal_cosets(algebra, mul, inv, mul[inv[ends[:, 0]], ends[:, 1]])


def _normal_cosets(algebra: FinAlgebra, mul: np.ndarray, inv: np.ndarray,
                   gens: np.ndarray) -> Congruence:
    """The ``_cosets`` of the normal closure <g s g⁻¹ : s in ``gens``>."""
    g = np.arange(algebra.size)
    s = _sorted_distinct(gens.ravel())
    return _cosets(algebra, mul, generate_subuniverse(
        algebra, mul[mul[g[:, None], s[None, :]], inv[g][:, None]].ravel()))


def _cosets(algebra: FinAlgebra, mul: np.ndarray, N: Subuniverse):
    """The congruence of a group with the cosets x·N of a normal subgroup
    N as blocks, ``block_id[x]`` = min(x·N): canonical and compatible."""
    block = mul[:, np.asarray(N.members)].min(axis=1)
    return Congruence._trusted(algebra, tuple(block.tolist()))


def _congruence_worklist(algebra: FinAlgebra,
                         queue: list[tuple[int, int]]) -> Congruence:
    """``generate_congruence`` for any signature, from in-range pairs, and
    the tests' reference for ``_normal_cosets``.

    Worklist closure: merging two classes enqueues, for every operation and
    argument position, the single-coordinate substitution consequences over
    all contexts.  Multi-coordinate compatibility follows by chaining.
    """
    root = np.arange(algebra.size, dtype=np.int64)
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
    # every class merges into its least root, so the ids are canonical
    return Congruence._trusted(algebra, tuple(root.tolist()))


# ---------------------------------------------------------------------------
# constructions


def _check_same_signature(a: FinAlgebra, b: FinAlgebra) -> None:
    if a.signature.ops != b.signature.ops or \
            a.signature.basepoint_op != b.signature.basepoint_op:
        raise ValidationError("signature mismatch")


def _fibre_product(a: FinAlgebra, c: FinAlgebra, aarr: np.ndarray,
                   carr: np.ndarray, name: str
                   ) -> tuple[SpanWitness, np.ndarray]:
    """Subalgebra of A x C on the pairs (aarr[i], carr[i]), listed in key
    order (key x*|C| + y), with its two projections; also returns the map
    from each key to its pair's index, -1 off the pairs."""
    _check_same_signature(a, c)
    nc = c.size
    pos = np.full(a.size * nc, -1, dtype=np.int64)
    pos[aarr * nc + carr] = np.arange(len(aarr))
    tables = {}
    for op, k in a.signature.ops:
        ta, tc = a.tables[op], c.tables[op]
        if k == 0:
            code = int(ta[()]) * nc + int(tc[()])
        else:
            code = ta[np.ix_(*([aarr] * k))] * nc + tc[np.ix_(*([carr] * k))]
        tables[op] = pos[code]
        if np.any(tables[op] < 0):
            raise ValidationError(f"fibre product is not closed under "
                                  f"{op!r}: a map does not preserve it")
    labels = None
    if a.labels and c.labels:
        labels = tuple(f"({a.label(int(x))},{c.label(int(y))})"
                       for x, y in zip(aarr, carr))
    carrier = FinAlgebra(a.signature, len(aarr), tables,
                         name=name if a.name and c.name else "",
                         labels=labels)
    legs = (check_hom(carrier, a, aarr), check_hom(carrier, c, carr))
    return SpanWitness(carrier, legs), pos


def product(a: FinAlgebra, b: FinAlgebra) -> SpanWitness:
    """Componentwise product; element (x, y) is index x*|B| + y."""
    keys = np.arange(a.size * b.size)
    return _fibre_product(a, b, keys // b.size, keys % b.size,
                          f"{a.name}x{b.name}")[0]


def hom_violations(dom: FinAlgebra, cod: FinAlgebra,
                   mapping: Sequence[int]) -> list[tuple]:
    """All (op, args, mapped-value, expected-value) preservation failures."""
    _check_same_signature(dom, cod)
    m = _map_array(dom, cod, mapping)
    out: list[tuple] = []
    for op, k in dom.signature.ops:
        td, tc = dom.tables[op], cod.tables[op]
        lhs = m[td]
        rhs = tc[np.ix_(*([m] * k))]
        bad = np.argwhere(lhs != rhs)
        for args in bad:
            args = tuple(int(x) for x in args)
            out.append((op, args, int(lhs[args]), int(rhs[args])))
    return out


def _map_array(dom: FinAlgebra, cod: FinAlgebra, mapping, what="map"):
    """``mapping`` as int64, checked to send each element of dom to one of
    cod before anything reads it; ``what`` names it in the error."""
    m = np.asarray(mapping, dtype=np.int64)
    if m.shape != (dom.size,):
        got = len(m) if m.ndim == 1 else f"shape {m.shape}"
        raise ValidationError(f"{what}: expected {dom.size} entries, got {got}")
    if (bad := _out_of_range(m, cod.size)) is not None:
        raise ValidationError(f"{what}: value {bad} out of range for a"
                              f" codomain of {cod.size} elements")
    return m


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
    """The image of f, checked as a subuniverse on the first call (a map
    need not preserve the operations) and kept on f after that."""
    return _kept(f, "_image",
                 lambda f: Subuniverse(f.cod, tuple(set(f.map.tolist()))))


def pullback(f: Hom, g: Hom,
             r: Optional[Hom] = None, s: Optional[Hom] = None) -> SpanWitness:
    """Fibered product of f: A->B and g: C->B over their common codomain.

    When sections r of f and s of g are supplied, the induced maps
    e1 = <1, s o f> and e2 = <r o g, 1> come back under ``induced``.
    """
    if f.cod is not g.cod:
        raise ValidationError("pullback needs a common codomain")
    a_alg, c_alg = f.dom, g.dom
    nc = c_alg.size
    aarr, carr = np.nonzero(f.map[:, None] == g.map[None, :])
    span, pos = _fibre_product(a_alg, c_alg, aarr, carr,
                               f"{a_alg.name}xb{c_alg.name}")
    if r is not None and s is not None:
        e1 = pos[np.arange(a_alg.size) * nc + s.map[f.map]]
        e2 = pos[r.map[g.map] * nc + np.arange(nc)]
        if (e1 < 0).any() or (e2 < 0).any():
            raise ValidationError("sections do not land in the pullback")
        span.induced["e1"] = check_hom(a_alg, span.carrier, e1)
        span.induced["e2"] = check_hom(c_alg, span.carrier, e2)
    return span


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
    seeds = list(seeds)
    if width is None:
        if not seeds:
            raise ValidationError("power_closure needs seeds or a width")
        width = len(seeds[0])
    if width < 1:
        raise ValidationError(
            f"power_closure needs a width of at least 1, not {width}")
    if set(map(len, seeds)) - {width}:
        raise ValidationError("seed width mismatch")
    rows = np.asarray(seeds, dtype=np.int64).reshape(-1, width)
    if _out_of_range(rows, algebra.size) is not None:
        raise ValidationError("seed out of range")
    return _closure(algebra, rows)


def _out_of_range(values: np.ndarray, size: int) -> Optional[int]:
    """The first int64 value outside 0..size-1, or None (read unsigned, a
    negative value is above every size)."""
    bad = values[values.view(np.uint64) >= size]
    return int(bad.flat[0]) if bad.size else None


def _closure(algebra: FinAlgebra, seeds: np.ndarray):
    """Subalgebra of algebra^m generated by the rows ``seeds`` (m columns)
    and the constants, as a read-only (count, m) array of rows in key
    order; a row's key is its base-n index, first coordinate first.  The
    array may be the memo's, from an earlier call with the same algebra,
    width and seed set.  ``_right_closure`` makes it when the algebra has
    ``_group_tables``, and ``_semi_naive`` otherwise.
    """
    n, m = algebra.size, seeds.shape[1]
    if n ** m > MAX_CLOSURE_KEYS:
        raise ValidationError(
            f"closure over a product of {n ** m:,} rows (factor orders"
            f" {(n,) * m}) is above the limit of {MAX_CLOSURE_KEYS:,}")
    strides = n ** np.arange(m - 1, -1, -1)
    seed_keys = seeds @ strides
    # formed only now: out-of-range rows could alias in-range keys
    memo_key = (id(algebra), m, _sorted_distinct(seed_keys).tobytes())
    # an entry holds its algebra, so no id in a live key is reused
    hit = _MEMO.get(memo_key)
    if hit is not None and hit[0] is algebra:
        return hit[1]
    route = _right_closure if _group_tables(algebra) else _semi_naive
    rows = route(algebra, strides, seed_keys)
    rows.setflags(write=False)
    return _MEMO.put(memo_key, (algebra, rows))[1]


def _group_tables(algebra: FinAlgebra):
    """``(mul, inv)`` of a group, else None: the signature is one binary,
    one unary and the basepoint operation, whatever their names, and mul
    is associative with the basepoint as two-sided identity and inv as
    two-sided inverse.  Checked once and kept on the algebra; with n^3
    above ``MAX_CLOSURE_KEYS``, not checked and None."""
    return _kept(algebra, "_group", _group_check)


def _require_group(algebra: FinAlgebra, what: str):
    """``_group_tables`` of a group, else a ValidationError naming ``what``."""
    tables = _group_tables(algebra)
    if tables is None:
        raise ValidationError(f"{what} needs a group, checked on its tables"
                              f" when n^3 <= {MAX_CLOSURE_KEYS:,}")
    return tables


def _group_check(algebra: FinAlgebra):
    n, by_arity = algebra.size, {k: op for op, k in algebra.signature.ops}
    if sorted(k for _, k in algebra.signature.ops) != [0, 1, 2] \
            or n ** 3 > MAX_CLOSURE_KEYS:
        return None
    mul, inv = algebra.tables[by_arity[2]], algebra.tables[by_arity[1]]
    e, x = algebra.basepoint, np.arange(n)
    step = max(1, _CHUNK // (n * n))  # (xy)z = x(yz), in slices over x
    group = (np.array_equal(mul[e], x) and np.array_equal(mul[:, e], x)
             and (mul[x, inv] == e).all() and (mul[inv, x] == e).all()
             and all(np.array_equal(mul[mul[i:i + step]],
                                    mul[i:i + step][:, mul])
                     for i in range(0, n, step)))
    return (mul, inv) if group else None


def _heyting_tables(algebra: FinAlgebra):
    """``(meet, imp)`` of a Heyting semilattice, else None: the signature
    is two binary operations and the basepoint, whatever their names; meet
    is idempotent, commutative and associative with the basepoint as its
    top, and imp is its relative pseudocomplement, z <= imp(x, y) exactly
    when meet(z, x) <= y.  Checked once and kept on the algebra; with n^3
    above ``MAX_CLOSURE_KEYS``, not checked and None."""
    return _kept(algebra, "_heyting", _heyting_check)


def _heyting_check(algebra: FinAlgebra):
    n, ops = algebra.size, algebra.signature.ops
    if sorted(k for _, k in ops) != [0, 2, 2] or n ** 3 > MAX_CLOSURE_KEYS:
        return None
    a, b = (algebra.tables[op] for op, k in ops if k == 2)
    # imp(x, x) is the top, so imp is idempotent only on one element: with
    # more, at most one order of the two tables passes
    for meet, imp in ((a, b), (b, a)):
        if _is_heyting(meet, imp, algebra.basepoint):
            return meet, imp
    return None


def _is_heyting(meet: np.ndarray, imp: np.ndarray, top: int) -> bool:
    n, x = len(meet), np.arange(len(meet))
    if not (np.array_equal(meet[x, x], x) and np.array_equal(meet, meet.T)
            and np.array_equal(meet[top], x)):
        return False
    leq = meet == x[:, None]            # leq[z, y]: z <= y
    step = max(1, _CHUNK // (n * n))    # in slices over the first argument
    for i in range(0, n, step):
        part = meet[i:i + step]
        # (xy)z = x(yz), and z <= imp(x, y) exactly when meet(z, x) <= y,
        # with x the sliced argument
        if not (np.array_equal(meet[part], part[:, meet])
                and np.array_equal(leq[:, imp[i:i + step]], leq[part.T])):
            return False
    return True


def _right_closure(algebra: FinAlgebra, strides: np.ndarray,
                   seed_keys: np.ndarray) -> np.ndarray:
    """Subgroup of a power of a group generated by the rows of
    ``seed_keys``: the identity closed under right multiplication by the
    seeds alone (a generator's inverse is one of its powers).  As in
    Dimino's algorithm, the next seed not yet found joins the generators
    and is multiplied onto every row so far, the new rows by every
    generator until none is new; each generator at least doubles them."""
    mul, _ = _group_tables(algebra)
    n = algebra.size
    state = np.zeros(n ** len(strides), np.uint8)

    def times(keys, gens):
        """Mark the products of the rows of ``keys`` and each of ``gens``
        not yet seen, about ``_CHUNK`` at a time; return them, distinct."""
        step = max(1, _CHUNK // gens.size)
        if len(keys) > step:
            return np.concatenate([times(keys[i:i + step], gens)
                                   for i in range(0, len(keys), step)])
        rows = keys[:, None] // strides % n
        prods = mul[rows[:, None], gens] @ strides
        prods = prods[state[prods] == 0]
        if len(gens) > 1 and len(prods) > 1:  # one right factor is injective
            prods = _sorted_distinct(prods)
        state[prods] = 1
        return prods

    found = [algebra.basepoint * strides.sum(keepdims=True)]
    state[found[0]] = 1
    gens = np.empty((0, len(strides)), dtype=np.int64)
    todo = seed_keys[state[seed_keys] == 0]
    while todo.size:
        gens = np.concatenate([gens, todo[:1, None] // strides % n])
        new = times(np.concatenate(found), gens[-1:])
        while new.size:
            found.append(new)
            new = times(new, gens)
        todo = todo[1:]  # a group's rows hold it; a bad table cannot loop
        todo = todo[state[todo] == 0]
    keys = np.sort(np.concatenate(found))
    return keys[:, None] // strides % n


def _semi_naive(algebra: FinAlgebra, strides: np.ndarray,
                seed_keys: np.ndarray) -> np.ndarray:
    """The closure for any signature, and the tests' reference for
    ``_right_closure``.  Semi-naive: round r applies each k-ary operation
    only to argument tuples holding a row found in round r-1.  For
    argument position i, positions before i take older rows, position i a
    new row and positions after i any row, so every such tuple is
    evaluated once.  A candidate's key is the sum of one lookup per
    coordinate (``_key_parts``), with no grid of its rows: in coordinate
    j, the argument at position p of a k-ary op adds its value times
    n^(k-1-p) to the index into op's lookup, and position 0 also j n^k,
    where coordinate j's part begins.
    Membership is one byte per key, and candidates are marked about
    ``_CHUNK`` at a time.  Once every key of the power is seen, checked at
    the start of each argument position and after each mark, nothing new
    can be found, and the closure stops.
    """
    n, m, sig = algebra.size, len(strides), algebra.signature.ops
    total = n ** m
    state = np.zeros(total, np.uint8)  # 0 unseen, 1 new, 2 older
    state[seed_keys] = 1
    state[np.asarray([int(algebra.tables[op][()]) for op, k in sig if k == 0])
          * strides.sum()] = 1
    lookups = _key_parts(algebra, strides)
    coord = np.arange(m)[:, None]
    grew = True
    while grew:
        known = state.nonzero()[0]
        older = state[known] == 2
        fresh = len(known) - np.count_nonzero(older)
        state[known] = 2
        # the rows, new ones first, so that each argument position ranges
        # over a span of them
        cols = known[older.argsort(kind="stable")] // strides[:, None] % n
        offsets = {}
        for k in {k for _, k in sig if k}:
            offsets[k] = [cols * n ** (k - 1 - p) for p in range(k - 1)] \
                + [cols]
            offsets[k][0] = offsets[k][0] + coord * n ** k
        found, count, grew = [], 0, 0
        for op, k in sig:
            for i in range(k):
                # the power is full (grew counts a repeated key once per
                # repeat, so it can only be full when this holds)
                if len(known) + grew >= total and state.all():
                    break
                spans = [slice(fresh, None)] * i + [slice(fresh)] \
                    + [slice(None)] * (k - i - 1)
                for keys in _apply(lookups[op], offsets[k], spans):
                    found.append(keys.ravel())
                    count += keys.size
                    if count >= _CHUNK:
                        grew += _mark(found, state)
                        found, count = [], 0
                        if len(known) + grew >= total and state.all():
                            break
        grew += _mark(found, state)
    keys = state.nonzero()[0]
    return keys[:, None] // strides % n


def _key_parts(algebra: FinAlgebra, strides: np.ndarray):
    """What ``_semi_naive`` reads keys from in the power with ``strides``:
    ``lookups[op]`` holds, for each coordinate j in turn, op's table
    flattened and times the stride of coordinate j, so that a key is the
    sum of one lookup per coordinate.  Kept on the algebra, one set per
    width."""
    kept = _kept(algebra, "_key_parts", lambda _: {})
    if len(strides) not in kept:
        kept[len(strides)] = {op: np.outer(strides, algebra.tables[op]).ravel()
                              for op, k in algebra.signature.ops if k}
    return kept[len(strides)]


class _Cache:
    """Values by key, each charged ``cost(key, value)`` bytes, with
    ``held`` the running total.  Past ``limit()``, read at each ``put``,
    the oldest entries go first; a value charged above it on its own is
    returned but not kept, and the other entries stay."""

    def __init__(self, limit, cost):
        self.limit, self.cost = limit, cost
        self.clear()

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, value):
        cost, limit = self.cost(key, value), self.limit()
        if cost <= limit:
            if key in self.entries:
                self.held -= self.cost(key, self.entries.pop(key))
            self.entries[key] = value
            self.held += cost
            while self.held > limit:
                old = next(iter(self.entries))
                self.held -= self.cost(old, self.entries.pop(old))
        return value

    def clear(self) -> None:
        self.entries, self.held = {}, 0


def _kept(obj, name: str, make):
    """The value kept on ``obj`` under ``name``, made by ``make(obj)`` and
    set on the (frozen) object the first time; a ``make`` that raises
    keeps nothing."""
    kept = obj.__dict__
    if name not in kept:
        object.__setattr__(obj, name, make(obj))
    return kept[name]


# (algebra, closure rows) by (id of the algebra, width, sorted seed keys)
_MEMO = _Cache(lambda: MAX_MEMO_BYTES, lambda key, entry:
               entry[1].nbytes + len(key[2]) + _MEMO_ENTRY_BYTES)


def _sorted_distinct(values: np.ndarray, first: bool = False):
    """The sorted distinct entries of a 1-d array, and with ``first`` the
    index of each one's first occurrence.  Not np.unique: that imports
    numpy.ma on its first call, 20 ms of every CLI start."""
    if first:
        order = values.argsort(kind="stable")
        ordered = values[order]
    else:
        ordered = np.sort(values)
    head = np.ones(len(ordered), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    return (ordered[head], order[head]) if first else ordered[head]


def _apply(lookup: np.ndarray, offsets, spans):
    """Keys of one operation over the grid of the row spans, in chunks of
    shape (c, rows of the last span).  ``offsets[p]`` holds, per coordinate
    and row, what argument position p adds to the index into ``lookup``; a
    key is the sum of its coordinates' lookups."""
    *outer, inner = [o[:, s] for o, s in zip(offsets, spans)]
    shape = tuple(a.shape[1] for a in outer)
    count = math.prod(shape)
    step = max(1, _CHUNK // max(1, inner.shape[1]))
    for lo in range(0, count if inner.shape[1] else 0, step):
        hi = min(lo + step, count)
        picks = (slice(lo, hi),) * len(shape) if len(shape) < 2 \
            else np.unravel_index(np.arange(lo, hi), shape)
        index = inner[:, None]
        for a, p in zip(outer, picks):
            index = index + a[:, p, None]
        yield np.add.reduce(lookup[index])


def _mark(found, state: np.ndarray) -> int:
    """Mark the keys in ``found`` seen; the number that were not."""
    if not found:
        return 0
    keys = found[0] if len(found) == 1 else np.concatenate(found)
    keys = keys[state[keys] == 0]
    state[keys] = 1
    return len(keys)

