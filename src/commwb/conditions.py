"""Instance checkers for commutator-exchange conditions.

Each checker evaluates one implication of the form "if this commutation
hypothesis holds on the given data, that conclusion follows", and reports
hypothesis and conclusion separately so counterexamples describe
themselves.  The conditions covered:

* binary-implies-Smith: congruences centralise as soon as their
  normalisations commute (``check_sh_instance``);
* split-square admissibility from commuting kernel images
  (``check_ssh_instance``), together with the closure-based ``admissible``
  fill-in search and the explicit group formula ``groups_phi``;
* binary-implies-ternary for weighted cospans (``check_w_instance``);
* reflection of congruence centralisation along change of base, both for
  split-epi points and for plain slices (``check_reflection_instance``).

A checker is lazy: when the hypothesis fails the implication is vacuously
true and the conclusion side is never computed (``conclusion_holds`` is
None).  ``run_paper_examples`` replays the bundled counterexample and
formula fixtures and raises on any deviation from their recorded outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Congruence,
    FinAlgebra,
    Hom,
    PointObject,
    SpanWitness,
    Subuniverse,
    ValidationError,
    _closure,
    check_hom,
    image_sub,
    kernel_sub,
    pullback,
    pullback_congruence,
)
from .commutators import (
    _WITNESS_CAP,
    WeightedCospan,
    _is_group_signature,
    _resolve_ternary_strategy,
    cooperator,
    higgins_binary,
    higgins_ternary,
    normalise,
    smith,
    w_normal_closure,
)

__all__ = [
    "AdmissibleDiagram",
    "AdmissibilityConflict",
    "AdmissibleOutcome",
    "ConditionVerdict",
    "admissible",
    "groups_phi",
    "check_sh_instance",
    "check_ssh_instance",
    "check_w_instance",
    "check_reflection_instance",
    "run_paper_examples",
    "REFLECTION_MODES",
    "kernel_images",
]

REFLECTION_MODES = ("points", "basic")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, eq=False)
class AdmissibleDiagram:
    """A double split epimorphism with a comparison cospan.

    f: A -> B and g: C -> B are retractions with sections r and s;
    alpha: A -> D, beta: B -> D, gamma: C -> D compare into a common
    target.  Required laws, checked on the tabulated maps: f∘r = 1_B =
    g∘s and alpha∘r = beta = gamma∘s.  The maps are used as recorded
    tables, so a comparison leg carrying violation records is accepted
    and its violations travel with it.
    """

    f: Hom
    r: Hom
    g: Hom
    s: Hom
    alpha: Hom
    beta: Hom
    gamma: Hom
    name: str = ""

    def __post_init__(self):
        f, r, g, s = self.f, self.r, self.g, self.s
        if r.dom is not f.cod or r.cod is not f.dom:
            raise ValidationError("r must be a section candidate for f")
        if g.cod is not f.cod:
            raise ValidationError("f and g must share their codomain")
        if s.dom is not g.cod or s.cod is not g.dom:
            raise ValidationError("s must be a section candidate for g")
        if self.alpha.dom is not f.dom or self.beta.dom is not f.cod \
                or self.gamma.dom is not g.dom:
            raise ValidationError("comparison legs attached to wrong objects")
        if self.alpha.cod is not self.beta.cod \
                or self.alpha.cod is not self.gamma.cod:
            raise ValidationError("comparison legs must share one target")
        ident = np.arange(f.cod.size)
        if not np.array_equal(f.map[r.map], ident):
            raise ValidationError("f∘r is not the identity")
        if not np.array_equal(g.map[s.map], ident):
            raise ValidationError("g∘s is not the identity")
        if not np.array_equal(self.alpha.map[r.map], self.beta.map):
            raise ValidationError("alpha∘r differs from beta")
        if not np.array_equal(self.gamma.map[s.map], self.beta.map):
            raise ValidationError("gamma∘s differs from beta")

    @property
    def target(self) -> FinAlgebra:
        return self.alpha.cod


@dataclass(frozen=True, eq=False)
class AdmissibilityConflict:
    """Two incompatible values forced on one pullback element.

    ``derivations`` explains how each value was first reached: a seed
    record ("seed-e1", a) or ("seed-e2", c), or a one-step record
    (op_name, ((q, d), ...)) combining already-derived pairs (no pairs
    for the basepoint operation).
    ``involved`` lists every pullback element appearing in the two
    derivations, the conflicting element included.
    """

    element: int
    values: tuple[int, int]
    derivations: tuple
    involved: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class AdmissibleOutcome:
    """Result of the fill-in search: the morphism, or why there is none."""

    phi: Hom | None
    conflict: AdmissibilityConflict | None
    square: SpanWitness

    @property
    def exists(self) -> bool:
        return self.phi is not None

    def __bool__(self) -> bool:
        return self.exists


@dataclass(frozen=True, eq=False)
class ConditionVerdict:
    """Outcome of one instance check of an implication-shaped condition.

    ``conclusion_holds`` is None when the hypothesis failed and the
    conclusion was therefore never computed.  ``complete`` is False only
    when a reported value depends on a bounded oracle that could not be
    conclusive (a trivial commutator below a word or depth bound).
    """

    condition: str
    hypothesis_holds: bool
    conclusion_holds: bool | None
    instance_satisfies: bool
    witnesses: tuple = ()
    complete: bool = True

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        expected = (not self.hypothesis_holds) or bool(self.conclusion_holds)
        if self.instance_satisfies != expected:
            raise ValidationError(
                "verdict is not the implication of its own parts")


# ---------------------------------------------------------------------------
# admissibility


def kernel_images(d: AdmissibleDiagram) -> tuple[Subuniverse, Subuniverse]:
    """Images in the target of alpha∘ker(f) and gamma∘ker(g)."""
    D = d.target
    kf = kernel_sub(d.f)
    kg = kernel_sub(d.g)
    X = Subuniverse(D, tuple(int(d.alpha.map[i]) for i in kf.members))
    Y = Subuniverse(D, tuple(int(d.gamma.map[i]) for i in kg.members))
    return X, Y


def admissible(d: AdmissibleDiagram) -> AdmissibleOutcome:
    """Search for the unique fill-in phi on the pullback of f and g.

    Closes the relation {(e1(a), alpha(a))} ∪ {(e2(c), gamma(c))} inside
    (A ×_B C) × D under all operations.  A total functional closure is
    returned as a validated hom with phi∘e1 = alpha and phi∘e2 = gamma;
    a multi-valued closure yields the conflict that a pair-by-pair replay
    of the closure meets first, with the first derivation of both values.
    A single-valued but partial closure means the instance is not
    congruence-permutable and raises.
    """
    square = pullback(d.f, d.g, d.r, d.s)
    P = square.carrier
    D = d.target
    e1, e2 = square.induced["e1"], square.induced["e2"]
    seeds = np.concatenate([np.stack([e1.map, d.alpha.map], axis=1),
                            np.stack([e2.map, d.gamma.map], axis=1)])
    rows, how = _closure((P, D), seeds, derivations=True)
    ps, ds = rows[:, 0], rows[:, 1]

    if (ps[1:] == ps[:-1]).any():
        # the replay meets the element whose second value is derived first
        values: dict[int, list[int]] = {}
        for i in sorted(range(len(ps)), key=lambda i: how[i][0]):
            values.setdefault(int(ps[i]), []).append(i)
            if len(values[int(ps[i])]) == 2:
                break
        element = int(ps[i])
        first, second = values[element]
        na = d.f.dom.size
        ders = tuple((op, args) if op is not None else ("seed-e1", args)
                     if args < na else ("seed-e2", args - na)
                     for _, op, args in (how[first], how[second]))
        involved = {element}.union(*((q for q, _ in args) for op, args in ders
                                     if op not in ("seed-e1", "seed-e2")))
        conflict = AdmissibilityConflict(
            element=element, values=(int(ds[first]), int(ds[second])),
            derivations=ders, involved=tuple(sorted(involved)))
        return AdmissibleOutcome(phi=None, conflict=conflict, square=square)

    if len(ps) < P.size:
        raise ValidationError(
            "fill-in closure is partial — input not Mal'tsev at this "
            "instance", witness=(len(ps), P.size))
    mapping = np.empty(P.size, dtype=np.int64)
    mapping[ps] = ds
    phi = check_hom(P, D, mapping)
    if not np.array_equal(phi.map[e1.map], d.alpha.map) or \
            not np.array_equal(phi.map[e2.map], d.gamma.map):
        raise ValidationError("fill-in does not restrict to the comparison "
                              "legs")  # unreachable if seeds were honoured
    return AdmissibleOutcome(phi=phi, conflict=None, square=square)


def groups_phi(d: AdmissibleDiagram) -> Hom:
    """The explicit group-theoretic fill-in phi(a, c) = alpha(a·(rf a)⁻¹)·gamma(c).

    Requires a group-shaped signature and the hypothesis that the images
    of alpha∘ker(f) and gamma∘ker(g) commute.  The formula is validated
    as a hom restricting to alpha and gamma; a validation failure is a
    fatal error, never a silent fallback.
    """
    A = d.f.dom
    D = d.target
    if not _is_group_signature(D):
        raise ValidationError(
            "the explicit fill-in formula needs a group-shaped signature")
    X, Y = kernel_images(d)
    obstruction = higgins_binary(D, X, Y)
    if not obstruction.is_zero():
        raise ValidationError(
            "kernel images do not commute — formula hypothesis fails",
            witness=tuple(obstruction.members))
    square = pullback(d.f, d.g, d.r, d.s)
    P = square.carrier
    aleg = square.legs[0].map
    cleg = square.legs[1].map
    mulA, invA = A.tables["mul"], A.tables["inv"]
    rf = d.r.map[d.f.map]
    adj = mulA[np.arange(A.size), invA[rf]]
    mapping = D.tables["mul"][d.alpha.map[adj[aleg]], d.gamma.map[cleg]]
    try:
        phi = check_hom(P, D, mapping)
    except ValidationError as err:
        raise ValidationError(
            f"explicit fill-in formula failed to validate: {err}") from err
    e1, e2 = square.induced["e1"], square.induced["e2"]
    if not np.array_equal(phi.map[e1.map], d.alpha.map) or \
            not np.array_equal(phi.map[e2.map], d.gamma.map):
        raise ValidationError(
            "explicit fill-in does not restrict to the comparison legs")
    return phi


# ---------------------------------------------------------------------------
# condition checkers


def _binary_witnesses(sub: Subuniverse) -> tuple:
    bp = sub.parent.basepoint
    return tuple(("binary", int(x)) for x in sub.members
                 if int(x) != bp)[:_WITNESS_CAP]


def _smith_witnesses(theta: Congruence) -> tuple:
    return tuple(("smith-pair", int(a), int(b))
                 for a, b in theta.spanning_pairs())[:_WITNESS_CAP]


def check_sh_instance(D: FinAlgebra, R: Congruence, S: Congruence
                      ) -> ConditionVerdict:
    """Hypothesis: the normalisations of R and S commute.
    Conclusion: R and S centralise each other."""
    binary = higgins_binary(D, normalise(R), normalise(S))
    if not binary.is_zero():
        return ConditionVerdict("sh", False, None, True,
                                witnesses=_binary_witnesses(binary))
    theta = smith(D, R, S)
    concl = theta.is_delta()
    return ConditionVerdict("sh", True, concl, concl,
                            witnesses=() if concl else _smith_witnesses(theta))


def check_ssh_instance(d: AdmissibleDiagram) -> ConditionVerdict:
    """Hypothesis: the kernel images commute in the target.
    Conclusion: the diagram admits a fill-in.

    Lazy: a failed hypothesis short-circuits before any fill-in search,
    so vacuous verdicts carry only the cooperator conflict.
    """
    D = d.target
    X, Y = kernel_images(d)
    outcome = cooperator(D, X, Y)
    if not outcome.exists:
        wit = (("cooperator-conflict",) + outcome.conflict,)
        return ConditionVerdict("ssh", False, None, True, witnesses=wit)
    adm = admissible(d)
    if adm.exists:
        return ConditionVerdict("ssh", True, True, True)
    c = adm.conflict
    wit = (("fill-in-conflict", c.element, c.values, c.involved),)
    return ConditionVerdict("ssh", True, False, False, witnesses=wit)


def check_w_instance(c: WeightedCospan, *, ternary_strategy: str | None = None,
                     word_bound: int | None = None,
                     term_depth: int | None = None) -> ConditionVerdict:
    """Hypothesis: the leg images commute.  Conclusion: the ternary
    commutator of the leg images with the weight image is trivial.

    An incomplete ternary strategy taints only a trivial conclusion: a
    nontrivial commutator found below a bound is conclusive.
    """
    D = c.codomain
    X = image_sub(c.x)
    Y = image_sub(c.y)
    binary = higgins_binary(D, X, Y)
    if not binary.is_zero():
        return ConditionVerdict("w", False, None, True,
                                witnesses=_binary_witnesses(binary))
    report = higgins_ternary(D, X, Y, image_sub(c.w),
                             _resolve_ternary_strategy(D, ternary_strategy),
                             word_bound=word_bound, term_depth=term_depth)
    concl = report.result.is_zero()
    return ConditionVerdict(
        "w", True, concl, concl,
        witnesses=() if concl else report.witnesses,
        complete=report.complete or not concl)


def check_reflection_instance(mode: str, p: Hom, carrier, R: Congruence,
                              S: Congruence) -> ConditionVerdict:
    """Does pulling back along p reflect centralisation of R and S?

    Hypothesis: the congruences pulled back along the change of base
    centralise each other downstairs.  Conclusion: R and S centralise
    each other upstairs.  ``carrier`` is a split-epi PointObject over
    p's codomain in "points" mode, or a plain hom into p's codomain in
    "basic" mode; R and S live on its total (resp. domain).
    """
    if mode not in REFLECTION_MODES:
        raise ValidationError(
            f"unknown reflection mode {mode!r}; expected one of "
            f"{REFLECTION_MODES}")
    if mode == "points":
        if not isinstance(carrier, PointObject):
            raise ValidationError("points mode needs a split-epi point")
        if carrier.base is not p.cod:
            raise ValidationError("point lives over a different base")
        upstairs = carrier.total
        compare = pullback(carrier.proj, p).legs[0]
    else:
        if not isinstance(carrier, Hom):
            raise ValidationError("basic mode needs a hom into the base")
        if carrier.cod is not p.cod:
            raise ValidationError("carrier lands in a different base")
        upstairs = carrier.dom
        compare = pullback(p, carrier).legs[1]
    if R.parent is not upstairs or S.parent is not upstairs:
        raise ValidationError("congruences must live on the carrier total")
    tag = f"reflection-{mode}"
    Rd = pullback_congruence(compare, R)
    Sd = pullback_congruence(compare, S)
    downstairs = smith(compare.dom, Rd, Sd)
    if not downstairs.is_delta():
        return ConditionVerdict(tag, False, None, True,
                                witnesses=_smith_witnesses(downstairs))
    theta = smith(upstairs, R, S)
    concl = theta.is_delta()
    return ConditionVerdict(tag, True, concl, concl,
                            witnesses=() if concl else _smith_witnesses(theta))


# ---------------------------------------------------------------------------
# bundled fixtures


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise ValidationError(f"fixture deviation: {what}")


def _run_hslat_fixture(lib) -> dict:
    d = lib.diagrams["paper/hslat-adm"]
    D = d.target
    X, Y = kernel_images(d)
    _expect(set(X.members) == {1, 2}, "first kernel image should be {1/2, 1}")
    _expect(set(Y.members) == {2}, "second kernel image should be {1}")
    _expect(cooperator(D, X, Y).exists, "kernel images should commute")
    verdict = check_ssh_instance(d)
    _expect(verdict.hypothesis_holds, "hypothesis should hold")
    _expect(verdict.conclusion_holds is False, "fill-in should not exist")
    _expect(not verdict.instance_satisfies, "instance should fail")
    adm = admissible(d)
    _expect(not adm.exists and adm.conflict is not None,
            "fill-in search should end in a conflict")
    P = adm.square.carrier
    want = {"(0,a)", "(1/2,1)"}
    got = {P.label(i) for i in adm.conflict.involved}
    _expect(want <= got,
            f"conflict should involve (0,a) and (1/2,1), got {sorted(got)}")
    return {
        "diagram": d.name,
        "kernel_images": [sorted(X.label_set()), sorted(Y.label_set())],
        "kernel_images_commute": True,
        "hypothesis_holds": verdict.hypothesis_holds,
        "conclusion_holds": verdict.conclusion_holds,
        "fill_in_exists": False,
        "conflict_element": P.label(adm.conflict.element),
        "conflict_values": [D.label(v) for v in adm.conflict.values],
        "conflict_involved": sorted(got),
        "verdict_satisfies": verdict.instance_satisfies,
    }


def _run_s3_fixture(lib) -> dict:
    c = lib.cospans["paper/s3-w"]
    c_zero = lib.cospans["paper/s3-w-zero"]
    D = c.codomain
    X = image_sub(c.x)
    Y = image_sub(c.y)
    binary = higgins_binary(D, X, Y)
    _expect(binary.is_zero(), "leg images should commute")
    fast = higgins_ternary(D, X, Y, image_sub(c.w), "group-fast")
    _expect(not fast.result.is_zero(),
            "weighted ternary commutator should be nontrivial")
    oracle = higgins_ternary(D, X, Y, image_sub(c.w), "word-oracle")
    _expect(not oracle.result.is_zero(),
            "word oracle should confirm nontriviality at the default bound")
    _expect(oracle.result.issubset(fast.result),
            "word oracle must stay inside the fast-path commutator")
    closure = w_normal_closure(D, X, c.w)
    _expect(len(closure) == D.size,
            "weighted normal closure of the leg image should be everything")
    verdict = check_w_instance(c)
    _expect(verdict.hypothesis_holds and verdict.conclusion_holds is False
            and not verdict.instance_satisfies,
            "weighted condition should fail at this instance")
    verdict_zero = check_w_instance(c_zero)
    _expect(verdict_zero.instance_satisfies and verdict_zero.conclusion_holds,
            "zero weight should commute")
    return {
        "cospan": c.name,
        "binary_trivial": True,
        "ternary_nontrivial": True,
        "ternary": sorted(fast.result.label_set()),
        "word_oracle_strategy": oracle.strategy,
        "normal_closure_size": len(closure),
        "hypothesis_holds": verdict.hypothesis_holds,
        "conclusion_holds": verdict.conclusion_holds,
        "verdict_satisfies": verdict.instance_satisfies,
        "zero_weight_satisfies": verdict_zero.instance_satisfies,
    }


def _run_groups_phi_fixture(lib) -> dict:
    checked = []
    skipped = []
    for key in sorted(lib.diagrams):
        if not key.startswith("groups/"):
            continue
        d = lib.diagrams[key]
        X, Y = kernel_images(d)
        if not higgins_binary(d.target, X, Y).is_zero():
            skipped.append(key)
            continue
        phi = groups_phi(d)
        adm = admissible(d)
        _expect(adm.exists, f"{key}: fill-in should exist")
        _expect(np.array_equal(phi.map, adm.phi.map),
                f"{key}: formula and closure fill-ins should agree")
        checked.append(key)
    _expect(len(checked) >= 5, "at least five formula diagrams expected")
    return {"agreeing_diagrams": checked, "hypothesis_failures": skipped}


EXAMPLE_NAMES = ("hslat-ssh", "s3-w", "groups-phi")


def run_paper_examples(which: str = "all") -> dict:
    """Replay bundled fixture computations; raise on any deviation.

    ``which`` selects one fixture by name or ``"all"``.  Each entry of the
    returned dict summarises one recorded instance; fixtures that exhibit
    a condition failure report ``verdict_satisfies: False``.
    """
    from .varieties import builtin_library

    runners = {
        "hslat-ssh": _run_hslat_fixture,
        "s3-w": _run_s3_fixture,
        "groups-phi": _run_groups_phi_fixture,
    }
    if which != "all" and which not in runners:
        raise ValidationError(
            f"unknown example {which!r}; expected one of"
            f" {EXAMPLE_NAMES + ('all',)}")
    lib = builtin_library()
    picked = EXAMPLE_NAMES if which == "all" else (which,)
    return {name: runners[name](lib) for name in picked}
