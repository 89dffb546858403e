"""Commutator calculus over finite pointed algebras.

Everything here is driven by one construction: for subuniverses K, L of an
algebra D, the joint-generation subalgebra

    S  =  < (k, 0, k) : k in K >  ∪  < (0, l, l) : l in L >    inside  K x L x D.

Its elements are exactly the triples (t(k,0), t(0,l), t(k,l)) for terms t,
so S answers both central questions at once:

* the cooperator: K and L commute precisely when S is the graph of a
  (total, single-valued) function K x L -> D, and then that function is the
  cooperating morphism phi with phi(k,0) = k and phi(0,l) = l;
* the binary commutator [K, L]: the trace {d : (0, 0, d) in S}, i.e. the
  image in D of the kernel of K+L -> KxL, which vanishes exactly when the
  cooperator exists.

On top of the binary case the module provides ternary commutators (three
strategies of different strength), the Smith commutator of congruences via
the standard fourfold-matrix fixpoint, normalisation, w-normal closures,
and verdicts for when two morphisms commute over a weight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    Congruence,
    FinAlgebra,
    Hom,
    Subuniverse,
    ValidationError,
    check_hom,
    generate_congruence,
    generate_subuniverse,
    image_sub,
    power_closure,
    product,
)
from . import terms
from ._kernel_search import (DEFAULT_WORD_BOUND, iter_word_records,
                             ternary_kernel_words)

__all__ = [
    "WeightedCospan",
    "CommutatorReport",
    "CooperatorOutcome",
    "cooperator",
    "higgins_binary",
    "higgins_ternary",
    "smith",
    "normalise",
    "is_w_normal",
    "w_normal_closure",
    "commute_over",
    "TERNARY_STRATEGIES",
    "WEIGHTED_STRATEGIES",
]

TERNARY_STRATEGIES = ("group-fast", "word-oracle", "term-depth")
WEIGHTED_STRATEGIES = ("proper-commutators", "ssh-kernel")
DEFAULT_TERM_DEPTH = 2
_WITNESS_CAP = 12


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True, eq=False)
class WeightedCospan:
    """Two morphisms x, y into a common codomain, weighted by a third, w.

    All three homs must land in the same algebra (the same object, not
    merely an isomorphic one).
    """

    x: Hom
    y: Hom
    w: Hom
    name: str = ""

    def __post_init__(self):
        if self.x.cod is not self.y.cod or self.x.cod is not self.w.cod:
            raise ValidationError("cospan legs must share one codomain")

    @property
    def codomain(self) -> FinAlgebra:
        return self.x.cod


@dataclass(frozen=True, eq=False)
class CommutatorReport:
    """A computed commutator plus how it was computed.

    ``complete`` is False whenever the strategy is a bounded oracle, in
    which case ``result`` is a sound lower bound only.  Witnesses are
    machine-checkable certificates whose last entry is the element they
    produce; formats by leading tag:

    * ``("bracket", shape, (a, b, c), value)`` — an iterated group
      commutator of the given shape at the given carrier elements;
    * ``("word", ((factor, element), ...), value)`` — a syllable sequence
      whose fold in the carrier yields ``value``;
    * ``("term", text, (a, b, c), value)`` — a term with vanishing
      one-sided substitutions, evaluated at the given elements;
    * ``("trace", k, l, value)`` — a joint-generation triple (k, l, value).
    """

    result: Subuniverse | Congruence
    strategy: str
    complete: bool
    witnesses: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        if isinstance(self.result, Subuniverse):
            inside = set(self.result.members)
            for wit in self.witnesses:
                if int(wit[-1]) not in inside:
                    raise ValidationError(
                        f"witness {wit!r} lands outside the result")


@dataclass(frozen=True, eq=False)
class CooperatorOutcome:
    """Existence answer for a cooperator, with evidence.

    ``hom`` is the cooperating morphism K x L -> D when one exists, else
    None together with a ``conflict``: two generated triples (k, l, d) and
    (k, l, d') witnessing that joint generation is not single-valued.
    ``commutator`` is [K, L], read off the same joint generation; it is
    trivial exactly when ``hom`` exists.
    """

    hom: Hom | None
    commutator: Subuniverse
    conflict: tuple | None = None

    @property
    def exists(self) -> bool:
        return self.hom is not None

    def __bool__(self) -> bool:
        return self.exists


# ---------------------------------------------------------------------------
# joint generation: cooperator and binary commutator


def _require_sub_of(D: FinAlgebra, sub: Subuniverse, role: str) -> None:
    if sub.parent is not D:
        raise ValidationError(f"{role} is not a subuniverse of the carrier")


def _triple_trace(D: FinAlgebra, K: Subuniverse, L: Subuniverse) -> np.ndarray:
    """Joint-generation subalgebra of D^3 as a (count, 3) row array.

    Rows are the triples (t(k,0), t(0,l), t(k,l)); closure stays inside
    K x L x D because K and L are closed componentwise.
    """
    bp = D.basepoint
    seeds = [(int(k), bp, int(k)) for k in K.members]
    seeds += [(bp, int(l), int(l)) for l in L.members]
    return power_closure(D, seeds, width=3)


def _binary_commutator(D: FinAlgebra, pts: np.ndarray) -> Subuniverse:
    """[K, L] from the joint-generation rows: {d : (0, 0, d)}."""
    bp = D.basepoint
    mask = (pts[:, 0] == bp) & (pts[:, 1] == bp)
    return Subuniverse(D, tuple(int(d) for d in pts[mask, 2]))


def cooperator(D: FinAlgebra, K: Subuniverse, L: Subuniverse
               ) -> CooperatorOutcome:
    """The cooperating morphism K x L -> D, if K and L commute.

    Decides whether the joint-generation subalgebra is the graph of a
    total function on K x L.  Graph + total: returns the function as a
    validated hom on the product algebra (local product indexing, row k
    times |L| plus l).  Single-valued but not total: the carrier is not
    congruence-permutable at this instance, reported as an error.
    """
    _require_sub_of(D, K, "K")
    _require_sub_of(D, L, "L")
    pts = _triple_trace(D, K, L)
    commutator = _binary_commutator(D, pts)
    n = D.size
    keys = pts[:, 0] * n + pts[:, 1]
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], pts[order, 2]
    same = keys[1:] == keys[:-1]
    clash = same & (vals[1:] != vals[:-1])
    if np.any(clash):
        i = int(np.nonzero(clash)[0][0])
        k, l = int(keys[i] // n), int(keys[i] % n)
        conflict = ((k, l, int(vals[i])), (k, l, int(vals[i + 1])))
        return CooperatorOutcome(hom=None, commutator=commutator,
                                 conflict=conflict)
    uniq_keys = keys[np.concatenate(([True], ~same))] if len(keys) else keys
    if len(uniq_keys) != len(K) * len(L):
        raise ValidationError(
            "joint generation failed — input not Mal'tsev at this instance",
            witness=(len(uniq_keys), len(K) * len(L)))

    karr = np.asarray(K.members, dtype=np.int64)
    larr = np.asarray(L.members, dtype=np.int64)
    dom = product(K.as_algebra(), L.as_algebra()).carrier
    mapping = np.empty(dom.size, dtype=np.int64)
    kpos = np.searchsorted(karr, pts[:, 0])
    lpos = np.searchsorted(larr, pts[:, 1])
    mapping[kpos * len(larr) + lpos] = pts[:, 2]
    return CooperatorOutcome(hom=check_hom(dom, D, mapping),
                             commutator=commutator)


def higgins_binary(D: FinAlgebra, K: Subuniverse, L: Subuniverse
                   ) -> Subuniverse:
    """Binary commutator [K, L]: trace {d : (0, 0, d)} of joint generation.

    Trivial exactly when the cooperator of K and L exists.
    """
    _require_sub_of(D, K, "K")
    _require_sub_of(D, L, "L")
    return _binary_commutator(D, _triple_trace(D, K, L))


# ---------------------------------------------------------------------------
# group helpers for the fast ternary path


def _is_group_signature(D: FinAlgebra) -> bool:
    ops = dict(D.signature.ops)
    return ops.get("mul") == 2 and ops.get("inv") == 1


def _resolve_ternary_strategy(D: FinAlgebra, strategy: str | None) -> str:
    """``strategy`` if given, else group-fast on group signatures and
    term-depth elsewhere."""
    if strategy is not None:
        return strategy
    return "group-fast" if _is_group_signature(D) else "term-depth"


def _require_group_signature(D: FinAlgebra, what: str) -> None:
    if not _is_group_signature(D):
        raise ValidationError(
            f"{what} needs a group-shaped signature (mul/2, inv/1)")


def _double_bracket_grid(D: FinAlgebra, A: np.ndarray, B: np.ndarray,
                         C: np.ndarray) -> np.ndarray:
    """Grid of [[a, b], c] over A x B x C (group commutator twice)."""
    mul, inv = D.tables["mul"], D.tables["inv"]
    ab = mul[mul[mul[A[:, None], B[None, :]], inv[A][:, None]],
             inv[B][None, :]]
    return mul[mul[mul[ab[:, :, None], C[None, None, :]],
                   inv[ab][:, :, None]], inv[C][None, None, :]]


# ---------------------------------------------------------------------------
# ternary commutator


def _ternary_group_fast(D, K, L, M) -> CommutatorReport:
    Km = np.asarray(K.members, dtype=np.int64)
    Lm = np.asarray(L.members, dtype=np.int64)
    Mm = np.asarray(M.members, dtype=np.int64)
    bp = D.basepoint
    join = generate_subuniverse(
        D, set(K.members) | set(L.members) | set(M.members))
    seeds: set[int] = {bp}
    witnesses = []
    shapes = ((Km, Lm, Mm, "[[K,L],M]"), (Lm, Mm, Km, "[[L,M],K]"),
              (Mm, Km, Lm, "[[M,K],L]"))
    for A, B, C, shape in shapes:
        grid = _double_bracket_grid(D, A, B, C)
        seeds.update(int(v) for v in np.unique(grid))
        if len(witnesses) < _WITNESS_CAP:
            for ia, ib, ic in np.argwhere(grid != bp)[:_WITNESS_CAP]:
                if len(witnesses) >= _WITNESS_CAP:
                    break
                witnesses.append(
                    ("bracket", shape,
                     (int(A[ia]), int(B[ib]), int(C[ic])),
                     int(grid[ia, ib, ic])))
    # the normal closure of the seeds in the join: the subgroup generated
    # by their conjugates j·s·j⁻¹ over every j in the join
    mul, inv = D.tables["mul"], D.tables["inv"]
    j, s = np.asarray(join.members), np.asarray(sorted(seeds))
    result = generate_subuniverse(
        D, np.unique(mul[mul[j[:, None], s[None, :]], inv[j][:, None]]))
    return CommutatorReport(result, "group-fast", complete=True,
                            witnesses=tuple(witnesses))


def _ternary_word_oracle(D, K, L, M, bound: int) -> CommutatorReport:
    buf = ternary_kernel_words((K, L, M), bound)
    to_parent = [np.asarray(s.members, dtype=np.int64) for s in (K, L, M)]
    mul = D.tables["mul"]
    bp = D.basepoint
    found = {bp}
    witnesses = []
    for length, rec in iter_word_records(buf):
        val = bp
        sylls = []
        for i in range(length):
            f = int(rec[2 * i])
            x = int(to_parent[f][rec[2 * i + 1]])
            val = int(mul[val, x])
            sylls.append((f, x))
        found.add(val)
        if val != bp and len(witnesses) < _WITNESS_CAP:
            witnesses.append(("word", tuple(sylls), val))
    result = generate_subuniverse(D, found)
    return CommutatorReport(result, f"word-oracle({bound})", complete=False,
                            witnesses=tuple(witnesses))


def _enumerate_term_classes(D: FinAlgebra, depth: int):
    """Semantically distinct 3-variable terms up to ``depth``, as pairs
    (term, value grid over D^3)."""
    n = D.size
    grids = np.indices((n, n, n))
    env = {"x": grids[0], "y": grids[1], "z": grids[2]}
    pool: dict[bytes, tuple] = {}

    def admit(term, vals) -> bool:
        key = np.ascontiguousarray(vals).tobytes()
        if key in pool:
            return False
        pool[key] = (term, vals)
        return True

    flat = []
    for name in ("x", "y", "z"):
        t = ("var", name)
        vals = np.broadcast_to(env[name], (n, n, n))
        if admit(t, vals):
            flat.append((t, vals))
    for op, k in D.signature.ops:
        if k == 0:
            t = ("op", op, ())
            vals = np.broadcast_to(D.tables[op][()], (n, n, n))
            if admit(t, vals):
                flat.append((t, vals))

    for _ in range(depth):
        fresh = []
        for op, k in D.signature.ops:
            if k == 0:
                continue
            table = D.tables[op]
            for combo in itertools.product(flat, repeat=k):
                combo_terms, combo_vals = zip(*combo)
                vals = table[combo_vals]
                t = ("op", op, combo_terms)
                if admit(t, vals):
                    fresh.append((t, vals))
        if not fresh:
            break
        flat.extend(fresh)
    return [(t, v) for t, v in pool.values()]


def _ternary_term_depth(D, K, L, M, depth: int) -> CommutatorReport:
    Km = np.asarray(K.members, dtype=np.int64)
    Lm = np.asarray(L.members, dtype=np.int64)
    Mm = np.asarray(M.members, dtype=np.int64)
    bp = D.basepoint
    bparr = np.asarray([bp])
    found: set[int] = {bp}
    witnesses = []
    for term, vals in _enumerate_term_classes(D, depth):
        if not (np.all(vals[np.ix_(Km, Lm, bparr)] == bp)
                and np.all(vals[np.ix_(Km, bparr, Mm)] == bp)
                and np.all(vals[np.ix_(bparr, Lm, Mm)] == bp)):
            continue
        sub = vals[np.ix_(Km, Lm, Mm)]
        found.update(int(v) for v in np.unique(sub))
        if len(witnesses) < _WITNESS_CAP:
            for ik, il, im in np.argwhere(sub != bp)[:1]:
                witnesses.append(
                    ("term", terms.format_term(term),
                     (int(Km[ik]), int(Lm[il]), int(Mm[im])),
                     int(sub[ik, il, im])))
    result = generate_subuniverse(D, found)
    return CommutatorReport(result, f"term-depth({depth})", complete=False,
                            witnesses=tuple(witnesses))


def higgins_ternary(D: FinAlgebra, K: Subuniverse, L: Subuniverse,
                    M: Subuniverse, strategy: str = "group-fast", *,
                    word_bound: int | None = None,
                    term_depth: int | None = None) -> CommutatorReport:
    """Ternary commutator [K, L, M] under one of three strategies.

    * ``group-fast`` (groups only): normal closure, inside the join
      subgroup of K, L, M, of all iterated commutators [[k,l],m],
      [[l,m],k], [[m,k],l].  Exact on every instance cross-checked so far
      and reported as complete; the word oracle re-validates it in the
      test suites.
    * ``word-oracle`` (groups only): evaluates every co-smash kernel word
      up to ``word_bound`` syllables and generates a subuniverse from the
      values.  A sound lower bound; ``complete`` is False.
    * ``term-depth`` (any signature): evaluates all 3-variable terms to
      nesting depth ``term_depth`` whose three one-sided basepoint
      substitutions vanish on the instance, then generates a subuniverse
      from their values.  A sound lower bound; ``complete`` is False.
    """
    for sub, role in ((K, "K"), (L, "L"), (M, "M")):
        _require_sub_of(D, sub, role)
    if strategy not in TERNARY_STRATEGIES:
        raise ValidationError(
            f"unknown ternary strategy {strategy!r}; "
            f"expected one of {TERNARY_STRATEGIES}")
    if strategy == "group-fast":
        _require_group_signature(D, "strategy 'group-fast'")
        return _ternary_group_fast(D, K, L, M)
    if strategy == "word-oracle":
        _require_group_signature(D, "strategy 'word-oracle'")
        bound = DEFAULT_WORD_BOUND if word_bound is None else int(word_bound)
        if bound < 0:
            raise ValidationError("word bound must be non-negative")
        return _ternary_word_oracle(D, K, L, M, bound)
    depth = DEFAULT_TERM_DEPTH if term_depth is None else int(term_depth)
    if depth < 0:
        raise ValidationError("term depth must be non-negative")
    return _ternary_term_depth(D, K, L, M, depth)


# ---------------------------------------------------------------------------
# Smith commutator of congruences


def smith(D: FinAlgebra, R: Congruence, S: Congruence) -> Congruence:
    """Smith commutator [R, S] via the fourfold-matrix fixpoint.

    Builds the subalgebra of D^4 generated by all rows (a, a, b, b) with
    a R b and (u, v, u, v) with u S v, then grows a congruence from the
    diagonal by forcing: whenever (x, y, z, w) is in the matrix algebra
    and x ~ y already holds, z ~ w is added; repeat to fixpoint.  The
    direction is fixed as (x, y | z, w): related first column forces the
    second.  R and S centralise each other exactly when the result is the
    diagonal.
    """
    if R.parent is not D or S.parent is not D:
        raise ValidationError("congruences must live on the carrier")
    seeds = [(a, a, b, b) for a, b in R.all_pairs()]
    seeds += [(u, v, u, v) for u, v in S.all_pairs()]
    pts = power_closure(D, seeds, width=4)
    x, y, z, w = (pts[:, i] for i in range(4))
    theta = Congruence.delta(D)
    while True:
        bid = np.asarray(theta.block_id)
        mask = bid[x] == bid[y]
        forced = np.unique(z[mask] * D.size + w[mask])
        pairs = [(int(p // D.size), int(p % D.size)) for p in forced]
        nxt = generate_congruence(
            D, tuple(theta.spanning_pairs()) + tuple(pairs))
        if nxt.block_id == theta.block_id:
            return theta
        theta = nxt


def normalise(theta: Congruence) -> Subuniverse:
    """The basepoint block of a congruence, as a subuniverse."""
    bp = theta.parent.basepoint
    root = theta.block_id[bp]
    members = tuple(i for i, r in enumerate(theta.block_id) if r == root)
    return Subuniverse(theta.parent, members)


# ---------------------------------------------------------------------------
# w-normality and weighted commutation


def _require_into(D: FinAlgebra, h: Hom, role: str) -> None:
    if h.cod is not D:
        raise ValidationError(f"{role} must land in the carrier")


def is_w_normal(D: FinAlgebra, X: Subuniverse, w: Hom) -> bool:
    """Whether the image of w normalises X: [Im w, X] contained in X."""
    _require_sub_of(D, X, "X")
    _require_into(D, w, "w")
    return higgins_binary(D, image_sub(w), X).issubset(X)


def w_normal_closure(D: FinAlgebra, X: Subuniverse, w: Hom) -> Subuniverse:
    """Least subuniverse above X that the image of w normalises:
    the join of [Im w, X] and X.  Verified w-normal before returning;
    when [Im w, X] already lies in X, the closure is X and that inclusion
    is the verification."""
    _require_sub_of(D, X, "X")
    _require_into(D, w, "w")
    comm = higgins_binary(D, image_sub(w), X)
    if comm.issubset(X):
        return X
    closed = generate_subuniverse(D, set(comm.members) | set(X.members))
    if not is_w_normal(D, closed, w):
        raise ValidationError(
            "closure is not w-normal — instance outside the supported "
            "class", witness=closed.members)
    return closed


def _trace_witnesses(result: Subuniverse) -> tuple:
    bp = result.parent.basepoint
    out = []
    for d in result.members:
        if d != bp:
            out.append(("trace", bp, bp, int(d)))
        if len(out) >= _WITNESS_CAP:
            break
    return tuple(out)


def commute_over(c: WeightedCospan, strategy: str = "proper-commutators", *,
                 profile=None, term_depth: int | None = None
                 ) -> tuple[bool, CommutatorReport]:
    """Do the legs of a weighted cospan commute over its weight?

    * ``proper-commutators``: requires the cospan to be w-proper (each
      leg's image normalised by the weight's image); verdict is the
      simultaneous vanishing of [Im x, Im y] and [Im x, Im y, Im w].  The
      ternary strategy is group-fast on group signatures and term-depth
      (to ``term_depth``) elsewhere; completeness is inherited from it.
    * ``ssh-kernel``: requires a variety profile whose kernel functor is
      certified to reflect commutation (``profile.ssh_certified``);
      verdict is the existence of the cooperator of the two w-normal
      closures of the leg images.

    Returns (verdict, report); the report's result is the obstruction
    subuniverse, trivial exactly when the verdict is True (up to the
    completeness caveat of bounded strategies).
    """
    if strategy not in WEIGHTED_STRATEGIES:
        raise ValidationError(
            f"unknown weighted strategy {strategy!r}; "
            f"expected one of {WEIGHTED_STRATEGIES}")
    D = c.codomain
    X = image_sub(c.x)
    Y = image_sub(c.y)

    if strategy == "proper-commutators":
        for sub, role in ((X, "x"), (Y, "y")):
            if not is_w_normal(D, sub, c.w):
                raise ValidationError(
                    f"cospan is not w-proper: the image of {role} is not "
                    "normalised by the weight image",
                    witness=tuple(sub.members))
        tern = _resolve_ternary_strategy(D, None)
        binary = higgins_binary(D, X, Y)
        ternary = higgins_ternary(D, X, Y, image_sub(c.w), tern,
                                  term_depth=term_depth)
        total = generate_subuniverse(
            D, set(binary.members) | set(ternary.result.members))
        inside = set(total.members)
        witnesses = _trace_witnesses(binary)
        witnesses += tuple(w for w in ternary.witnesses
                           if int(w[-1]) in inside)[:_WITNESS_CAP]
        report = CommutatorReport(
            total, f"proper-commutators[{ternary.strategy}]",
            complete=ternary.complete, witnesses=witnesses)
        return total.is_zero(), report

    if profile is None or not getattr(profile, "ssh_certified", False):
        raise ValidationError(
            "strategy 'ssh-kernel' needs a variety profile certified for "
            "kernel-reflected commutation")
    Xc = w_normal_closure(D, X, c.w)
    Yc = w_normal_closure(D, Y, c.w)
    outcome = cooperator(D, Xc, Yc)
    obstruction = outcome.commutator
    report = CommutatorReport(obstruction, "ssh-kernel", complete=True,
                              witnesses=_trace_witnesses(obstruction))
    return outcome.exists, report
