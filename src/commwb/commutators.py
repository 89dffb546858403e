"""Commutator calculus over finite pointed algebras.

For any signature, everything here is driven by one construction: for
subuniverses K, L of an algebra D, the joint-generation subalgebra

    S  =  < (k, 0, k) : k in K >  ∪  < (0, l, l) : l in L >    inside  K x L x D.

Its elements are exactly the triples (t(k,0), t(0,l), t(k,l)) for terms t,
so S answers both central questions at once:

* the cooperator: K and L commute precisely when S is the graph of a
  (total, single-valued) function K x L -> D, the cooperating morphism
  phi with phi(k,0) = k and phi(0,l) = l.  ``cooperator`` decides this
  existence without building phi; a "no" comes with two triples of S
  that agree on (k, l) and differ on d;
* the binary commutator [K, L]: the trace {d : (0, 0, d) in S}, i.e. the
  image in D of the kernel of K+L -> KxL, which vanishes exactly when the
  cooperator exists.

On a group (``core._group_tables``) both are read off commutators
instead, and S is never built: there the trace is the subgroup
[K, L] = <[k, l]> (Mantovani–Metere, *Normalities and commutators*,
J. Algebra 324, 2010), and S, a subgroup over all of K x L whose kernel
over K x L is that trace, has the coset k·l·[K, L] above each (k, l).
The cooperator, w-normality ([Im w, X] ⊆ X) and Smith's group route all
ask ``_group_commutator``, kept in one bounded memo, ``_COMMUTATORS``;
``group-fast`` asks it too, for [[K, L], M] and its two rotations, and
answers a trivial ternary commutator from them without a bracket grid.
On a Heyting semilattice (``core._heyting_tables``) the commutator of
two filters is their intersection (``higgins_binary``), and S is not
built either.  The trace stays the route for every other signature, for
subalgebras of a Heyting semilattice that are not filters, for the
cooperator's certificate, and as the tests' reference for both routes.

On top of the binary case the module provides ternary commutators (three
strategies of different strength), the Smith commutator of congruences,
normalisation, w-normal closures, and verdicts for when two morphisms
commute over a weight.  Smith has two exact routes beside the standard
fourfold-matrix fixpoint, which stays for every other signature and as
the tests' reference: on a group, the cosets of the commutator of the
normal subgroups, itself normal (J.D.H. Smith, *Mal'cev Varieties*,
1976); on a Heyting semilattice (``core._heyting_tables``), the meet of
the two congruences, since Heyting semilattices form a
congruence-distributive variety, where [R, S] = R ∧ S (Freese–McKenzie,
*Commutator Theory for Congruence Modular Varieties*, 1987).
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
    _Cache,
    generate_congruence,
    generate_subuniverse,
    image_sub,
    power_closure,
    _group_tables,
    _heyting_tables,
    _require_group,
    _sorted_distinct,
)
from . import core, terms
from ._kernel_search import (DEFAULT_WORD_BOUND, _code_bits, _lex_order,
                             _local_group_tables, _local_order, _renaming,
                             _search_order, ternary_kernel_words)

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

    The cooperator exists exactly when ``conflict`` is None.  Otherwise
    ``conflict`` holds two generated triples (k, l, d) and (k, l, d')
    witnessing that joint generation is not single-valued.
    ``commutator`` is [K, L], read off the same joint generation; it is
    trivial exactly when the cooperator exists.
    """

    commutator: Subuniverse
    conflict: tuple | None = None

    @property
    def exists(self) -> bool:
        return self.conflict is None

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
    K x L x D because K and L are closed componentwise.  Not built on a
    group, nor by ``higgins_binary`` for two filters of a Heyting
    semilattice; the tests keep it as the reference there.
    """
    bp = D.basepoint
    seeds = [(int(k), bp, int(k)) for k in K.members]
    seeds += [(bp, int(l), int(l)) for l in L.members]
    return power_closure(D, seeds, width=3)


def _basepoint_part(D: FinAlgebra, members: tuple[int, ...]) -> Subuniverse:
    """The sorted distinct elements in the basepoint's place of a
    subalgebra (a trace of joint generation, the basepoint block of a
    congruence).  They are closed when every operation of D fixes the
    basepoint; otherwise they are checked."""
    if D.fixes_basepoint:
        return Subuniverse._trusted(D, members)
    return Subuniverse(D, members)


def _binary_commutator(D: FinAlgebra, pts: np.ndarray) -> Subuniverse:
    """[K, L] from the joint-generation rows: {d : (0, 0, d)}, in key
    order."""
    bp = D.basepoint
    mask = (pts[:, 0] == bp) & (pts[:, 1] == bp)
    return _basepoint_part(D, tuple(pts[mask, 2].tolist()))


def cooperator(D: FinAlgebra, K: Subuniverse, L: Subuniverse
               ) -> CooperatorOutcome:
    """Whether K and L commute: does a cooperating morphism K x L -> D exist?

    Decides whether the joint-generation subalgebra is the graph of a
    total function on K x L, without building that function.  Not
    single-valued: no cooperator, and ``conflict`` holds two clashing
    triples.  Single-valued but not total: the carrier is not
    congruence-permutable at this instance, reported as an error.

    On a group, the cooperator exists exactly when [K, L] is trivial.
    Otherwise the conflict is the trace's first clash, read off the
    cosets: the rows above (k, l) are k·l·[K, L], each of at least two
    elements, so in key order it lies above the least k and l, between
    the two least members of their coset.
    """
    _require_sub_of(D, K, "K")
    _require_sub_of(D, L, "L")
    group = _group_tables(D)
    if group is not None:
        mul, inv = group
        commutator = _group_commutator(D, mul, inv, K, L)
        if commutator.is_zero():
            return CooperatorOutcome(commutator)
        k, l = K.members[0], L.members[0]
        v = np.sort(mul[mul[k, l], np.asarray(commutator.members)])
        return CooperatorOutcome(
            commutator, ((k, l, int(v[0])), (k, l, int(v[1]))))
    pts = _triple_trace(D, K, L)
    commutator = _binary_commutator(D, pts)
    n = D.size
    # power_closure returns rows in key order: rows sharing (k, l) are adjacent
    keys, vals = pts[:, 0] * n + pts[:, 1], pts[:, 2]
    same = keys[1:] == keys[:-1]
    clash = same & (vals[1:] != vals[:-1])
    if np.any(clash):
        i = int(np.nonzero(clash)[0][0])
        k, l = int(keys[i] // n), int(keys[i] % n)
        conflict = ((k, l, int(vals[i])), (k, l, int(vals[i + 1])))
        return CooperatorOutcome(commutator, conflict)
    distinct = len(keys) - int(np.count_nonzero(same))
    if distinct != len(K) * len(L):
        raise ValidationError(
            "joint generation failed — input not Mal'tsev at this instance",
            witness=(distinct, len(K) * len(L)))
    return CooperatorOutcome(commutator)


def _is_filter(meet: np.ndarray, K: Subuniverse) -> bool:
    """Whether K is up-closed in the order of ``meet``: every x above a
    member k, meet(k, x) = k, is a member."""
    k = np.asarray(K.members)
    inside = np.zeros(len(meet), dtype=bool)
    inside[k] = True
    return bool(inside[(meet[k] == k[:, None]).any(axis=0)].all())


def higgins_binary(D: FinAlgebra, K: Subuniverse, L: Subuniverse
                   ) -> Subuniverse:
    """Binary commutator [K, L]: trace {d : (0, 0, d)} of joint generation.

    On a group, the subgroup generated by the commutators [k, l], which
    is that trace (Mantovani–Metere 2010).  On a Heyting semilattice
    (``core._heyting_tables``) with K and L both filters, K ∩ L: filters
    are the normal subalgebras (Nemitz 1965), Heyting semilattices are
    semi-abelian (Johnstone 2004), and there Higgins is Huq for normal
    subobjects (Mantovani–Metere 2010), so [K, L] lies in K ∩ L; in a
    congruence-distributive variety an abelian object is trivial, so
    K ∩ L, which commutes with itself modulo [K, L], lies in [K, L].
    For subalgebras that are not filters the intersection is wrong, and
    the trace runs.  Trivial exactly when the cooperator of K and L
    exists.
    """
    _require_sub_of(D, K, "K")
    _require_sub_of(D, L, "L")
    group = _group_tables(D)
    if group is not None:
        return _group_commutator(D, *group, K, L)
    heyting = _heyting_tables(D)
    if heyting is not None and _is_filter(heyting[0], K) \
            and _is_filter(heyting[0], L):
        inside = set(L.members)
        return Subuniverse._trusted(
            D, tuple(m for m in K.members if m in inside))
    return _binary_commutator(D, _triple_trace(D, K, L))


# ---------------------------------------------------------------------------
# group helpers for the fast ternary path


def _resolve_ternary_strategy(D: FinAlgebra, strategy: str | None) -> str:
    """``strategy`` if given, else group-fast on groups (``_group_tables``)
    and term-depth elsewhere."""
    if strategy is not None:
        return strategy
    return "group-fast" if _group_tables(D) is not None else "term-depth"


def _bracket(mul: np.ndarray, inv: np.ndarray, a: np.ndarray,
             b: np.ndarray) -> np.ndarray:
    """The group commutators [a, b] = a·b·a⁻¹·b⁻¹, broadcast over a and b."""
    return mul[mul[mul[a, b], inv[a]], inv[b]]


def _group_commutator(D: FinAlgebra, mul: np.ndarray, inv: np.ndarray,
                      K: Subuniverse, L: Subuniverse) -> Subuniverse:
    """[K, L] of two subgroups: the subgroup generated by every [k, l].
    Kept in ``_COMMUTATORS`` under the unordered pair, as [K, L] = [L, K];
    an entry holds its carrier, so no id in a live key is reused."""
    key = (id(D),) + tuple(sorted((K.members, L.members)))
    hit = _COMMUTATORS.get(key)
    if hit is not None and hit[0] is D:
        return hit[1]
    grid = _bracket(mul, inv, np.asarray(K.members)[:, None],
                    np.asarray(L.members)[None, :])
    comm = generate_subuniverse(D, _sorted_distinct(grid.ravel()))
    return _COMMUTATORS.put(key, (D, comm))[1]


# (carrier, [K, L]) by (id of the carrier, the members of K and of L in
# sorted order), charged 8 bytes a member of K, L and [K, L] and the
# closure memo's per-entry bytes, within the closure memo's limit
_COMMUTATORS = _Cache(lambda: core.MAX_MEMO_BYTES, lambda key, entry: 8 * (
    len(key[1]) + len(key[2]) + len(entry[1])) + core._MEMO_ENTRY_BYTES)


def _double_bracket_grid(mul: np.ndarray, inv: np.ndarray, A: np.ndarray,
                         B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Grid of [[a, b], c] over A x B x C (group commutator twice)."""
    ab = _bracket(mul, inv, A[:, None], B[None, :])
    return _bracket(mul, inv, ab[:, :, None], C[None, None, :])


# ---------------------------------------------------------------------------
# ternary commutator


def _ternary_group_fast(D, mul, inv, K, L, M) -> CommutatorReport:
    """The normal closure, in the join of K, L and M, of the three
    double-bracket grids.

    Whether every double bracket is the identity is read off the memo of
    ``_group_commutator`` first, with no grid built: [[k, l], m] = 1 for
    all k, l, m exactly when every [k, l] lies in the centraliser C(M),
    and C(M) is a subgroup, so exactly when [K, L] ⊆ C(M), that is when
    [[K, L], M] is trivial.  When that holds for all three rotations the
    closure is trivial and is answered at once; otherwise the grids give
    the seeds and the witnesses."""
    bp = D.basepoint
    if all(_group_commutator(D, mul, inv,
                             _group_commutator(D, mul, inv, A, B), C).is_zero()
           for A, B, C in ((K, L, M), (L, M, K), (M, K, L))):
        return CommutatorReport(Subuniverse._trusted(D, (bp,)), "group-fast",
                                complete=True)
    Km = np.asarray(K.members, dtype=np.int64)
    Lm = np.asarray(L.members, dtype=np.int64)
    Mm = np.asarray(M.members, dtype=np.int64)
    shapes = ((Km, Lm, Mm, "[[K,L],M]"), (Lm, Mm, Km, "[[L,M],K]"),
              (Mm, Km, Lm, "[[M,K],L]"))
    grids = [_double_bracket_grid(mul, inv, A, B, C) for A, B, C, _ in shapes]
    join = generate_subuniverse(
        D, set(K.members) | set(L.members) | set(M.members))
    seeds: set[int] = {bp}
    witnesses = []
    for (A, B, C, shape), grid in zip(shapes, grids):
        seeds.update(_sorted_distinct(grid.ravel()).tolist())
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
    j, s = np.asarray(join.members), np.asarray(sorted(seeds))
    result = generate_subuniverse(D, _sorted_distinct(
        mul[mul[j[:, None], s[None, :]], inv[j][:, None]].ravel()))
    return CommutatorReport(result, "group-fast", complete=True,
                            witnesses=tuple(witnesses))


def _ternary_word_oracle(D, mul, K, L, M, bound: int) -> CommutatorReport:
    """The subgroup generated by the values in D of the kernel words of up
    to ``bound`` syllables over K, L and M, a lower bound of [K, L, M].

    The words are asked for in the factor order of the search that serves
    the triple (``_search_order``), so a cached buffer is read as it is and
    never renamed.  The fold maps each code of the buffer's matrix to the
    parent element of its syllable (the padding to the identity) in one
    gather, then multiplies the columns in.  The witnesses are the first
    ``_WITNESS_CAP`` words with a nontrivial value in the order of the
    buffer for K, L, M as given: their codes renamed back and sorted again.
    """
    subs = (K, L, M)
    tabs, sizes = zip(*(_local_group_tables(s) for s in subs))
    perm = _search_order(tabs, sizes)
    words = ternary_kernel_words(tuple(subs[i] for i in perm), bound)
    xbits = _code_bits(sizes)
    rename = _renaming(perm, xbits)
    # the parent element of each syllable code (f + 1) << xbits | x in the
    # order given, row f + 1 and column x; the padding 0 is the identity
    to_parent = np.full((4, 1 << xbits), D.basepoint, dtype=np.int64)
    for f, sub in enumerate(subs):
        to_parent[f + 1, :len(sub)] = _local_order(sub)
    to_parent = to_parent.ravel()
    vals = np.full(len(words.codes), D.basepoint, dtype=np.int64)
    for col in to_parent[rename][words.codes.T]:
        vals = mul[vals, col]
    hit = np.flatnonzero(vals != D.basepoint)
    codes = rename[words.codes[hit]]
    first = _lex_order(codes, xbits)[:_WITNESS_CAP]
    witnesses = tuple(
        ("word", tuple(((int(c) >> xbits) - 1, int(to_parent[c]))
                       for c in row if c), int(v))
        for row, v in zip(codes[first], vals[hit[first]]))
    result = generate_subuniverse(D, _sorted_distinct(vals))
    return CommutatorReport(result, f"word-oracle({bound})", complete=False,
                            witnesses=witnesses)


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
        found.update(_sorted_distinct(sub.ravel()).tolist())
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

    * ``group-fast`` (groups only, by ``core._group_tables``): normal
      closure, inside the join subgroup of K, L, M, of all iterated
      commutators [[k,l],m], [[l,m],k], [[m,k],l].  Exact on every
      instance cross-checked so far and reported as complete; the word
      oracle re-validates it in the test suites.
    * ``word-oracle`` (groups only, as above): evaluates every co-smash
      kernel word up to ``word_bound`` syllables and generates a
      subuniverse from the values.  A sound lower bound; ``complete`` is
      False.
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
        mul, inv = _require_group(D, "strategy 'group-fast'")
        return _ternary_group_fast(D, mul, inv, K, L, M)
    if strategy == "word-oracle":
        mul, _ = _require_group(D, "strategy 'word-oracle'")
        bound = DEFAULT_WORD_BOUND if word_bound is None else int(word_bound)
        if bound < 0:
            raise ValidationError("word bound must be non-negative")
        return _ternary_word_oracle(D, mul, K, L, M, bound)
    depth = DEFAULT_TERM_DEPTH if term_depth is None else int(term_depth)
    if depth < 0:
        raise ValidationError("term depth must be non-negative")
    return _ternary_term_depth(D, K, L, M, depth)


# ---------------------------------------------------------------------------
# Smith commutator of congruences


def smith(D: FinAlgebra, R: Congruence, S: Congruence) -> Congruence:
    """Smith commutator [R, S].

    On a group (``_group_tables``), the cosets of [N_R, N_S], the subgroup
    generated by the commutators [m, n] of the basepoint blocks N_R and
    N_S (the memoised ``_group_commutator``), normal because N_R and N_S
    are: for groups the Smith commutator of two congruences is the
    congruence of the group commutator of their normal subgroups (J.D.H.
    Smith, *Mal'cev Varieties*, LNM 554, 1976; Freese–McKenzie, *Commutator
    Theory for Congruence Modular Varieties*, 1987).  On a Heyting
    semilattice (``_heyting_tables``), the meet R ∧ S: Heyting
    semilattices form an arithmetical, hence congruence-distributive,
    variety, and there [R, S] = R ∧ S (Freese–McKenzie).  Otherwise the fourfold-matrix fixpoint of
    ``_smith_fixpoint``.  R and S centralise each other exactly when the
    result is the diagonal.
    """
    if R.parent is not D or S.parent is not D:
        raise ValidationError("congruences must live on the carrier")
    group = _group_tables(D)
    if group is not None:
        mul, inv = group
        return core._cosets(
            D, mul, _group_commutator(D, mul, inv, normalise(R), normalise(S)))
    if _heyting_tables(D) is not None:
        # the block of i is the least element with i's pair of blocks
        first: dict = {}
        return Congruence._trusted(D, tuple(
            first.setdefault(pair, i)
            for i, pair in enumerate(zip(R.block_id, S.block_id))))
    return _smith_fixpoint(D, R, S)


def _smith_fixpoint(D: FinAlgebra, R: Congruence, S: Congruence
                    ) -> Congruence:
    """[R, S] for any signature, and the tests' reference for the group
    and Heyting routes of ``smith``.

    Builds the subalgebra of D^4 generated by all rows (a, a, b, b) with
    a R b and (u, v, u, v) with u S v, then grows a congruence from the
    diagonal by forcing: whenever (x, y, z, w) is in the matrix algebra
    and x ~ y already holds, z ~ w is added; repeat to fixpoint.  The
    direction is fixed as (x, y | z, w): related first column forces the
    second.
    """
    seeds = [(a, a, b, b) for a, b in R.all_pairs()]
    seeds += [(u, v, u, v) for u, v in S.all_pairs()]
    pts = power_closure(D, seeds, width=4)
    x, y, z, w = (pts[:, i] for i in range(4))
    theta = Congruence.delta(D)
    while True:
        bid = np.asarray(theta.block_id)
        mask = bid[x] == bid[y]
        forced = _sorted_distinct(z[mask] * D.size + w[mask])
        pairs = [(int(p // D.size), int(p % D.size)) for p in forced]
        nxt = generate_congruence(
            D, tuple(theta.spanning_pairs()) + tuple(pairs))
        if nxt.block_id == theta.block_id:
            return theta
        theta = nxt


def normalise(theta: Congruence) -> Subuniverse:
    """The basepoint block of a congruence, as a subuniverse, kept on it."""
    return core._kept(theta, "_normal", lambda t: _basepoint_part(
        t.parent, tuple(i for i, r in enumerate(t.block_id)
                        if r == t.block_id[t.parent.basepoint])))


# ---------------------------------------------------------------------------
# w-normality and weighted commutation


def _require_into(D: FinAlgebra, h: Hom, role: str) -> None:
    if h.cod is not D:
        raise ValidationError(f"{role} must land in the carrier")


def is_w_normal(D: FinAlgebra, X: Subuniverse, w: Hom) -> bool:
    """Whether the image of w normalises X: [Im w, X] contained in X.
    On a group, [Im w, X] is the memoised ``_group_commutator``."""
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
      ternary strategy is group-fast on groups and term-depth
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
        W = image_sub(c.w)
        for sub, role in ((X, "x"), (Y, "y")):
            if not is_w_normal(D, sub, c.w):
                raise ValidationError(
                    f"cospan is not w-proper: the image of {role} is not "
                    "normalised by the weight image",
                    witness=tuple(sub.members))
        tern = _resolve_ternary_strategy(D, None)
        binary = higgins_binary(D, X, Y)
        ternary = higgins_ternary(D, X, Y, W, tern, term_depth=term_depth)
        # a subuniverse joined with a subset of itself is itself
        total = binary
        if not ternary.result.issubset(binary):
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
