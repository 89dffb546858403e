"""Variety profiles and the curated library of finite pointed algebras.

A profile pins down the equational class an input claims to live in: the
signature, defining identities, an optional Mal'tsev witness term, and a
flag saying whether pullback functors of the variety are certified to
reflect commutation of arbitrary subobject cospans.  That flag records a
theorem about the whole variety (true for groups, false for Heyting
semilattices); it is declared, never computed from a finite sample.

The library ships the algebras and maps the rest of the package treats as
ground truth: small groups, Heyting semilattices (meet semilattices where
each ``meet(x,-)`` has a right adjoint ``imp(x,-)``), the specific
lattice-map tables whose admissibility failure the condition checkers must
reproduce, a family of split group diagrams, and the weighted cospans
built on C2 inside S3.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    FinAlgebra,
    Hom,
    Signature,
    ValidationError,
    check_hom,
    generate_subuniverse,
    hom_from_table,
    identity_hom,
    product,
    zero_hom,
)
from .terms import (TermError, eval_term, identity_vars, parse_identity,
                    parse_term, term_vars)

__all__ = [
    "VarietyProfile",
    "IdentityReport",
    "verify_identities",
    "Library",
    "builtin_profiles",
    "builtin_library",
    "GROUP_SIGNATURE",
    "HSLAT_SIGNATURE",
    "LOOP_SIGNATURE",
    "cyclic_group",
    "perm_group",
    "symmetric_group",
    "alternating_group",
    "dihedral_group",
    "dicyclic_group",
    "chain_hslat",
    "diamond_hslat",
]


GROUP_SIGNATURE = Signature(ops=(("mul", 2), ("inv", 1), ("e", 0)),
                            basepoint_op="e")
HSLAT_SIGNATURE = Signature(ops=(("meet", 2), ("imp", 2), ("top", 0)),
                            basepoint_op="top")
LOOP_SIGNATURE = Signature(ops=(("mul", 2), ("ldiv", 2), ("rdiv", 2), ("e", 0)),
                           basepoint_op="e")


@dataclass(frozen=True)
class VarietyProfile:
    """An equational class, given by identities over a pointed signature."""

    name: str
    signature: Signature
    identities: tuple[str, ...]
    malcev_witness: Optional[str] = None
    ssh_certified: bool = False
    notes: str = ""

    def __post_init__(self):
        object.__setattr__(self, "identities",
                           tuple(str(t) for t in self.identities))
        try:
            for text in self.identities:
                parse_identity(text, self.signature)
            malcev = (None if self.malcev_witness is None
                      else parse_term(self.malcev_witness, self.signature))
        except TermError as exc:
            raise ValidationError(f"profile {self.name!r}: {exc}") from None
        if malcev is not None and len(term_vars(malcev)) != 3:
            raise ValidationError(
                "Mal'tsev witness must be a term in three variables")


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking a profile's identities on one algebra.

    ``failures`` holds, per violated identity, the first assignment
    (variable -> element index) on which the two sides differ.
    """

    algebra: str
    profile: str
    ok: bool
    failures: tuple = ()


def _identity_mismatch(algebra: FinAlgebra, text: str) -> Optional[dict]:
    """First assignment violating ``text`` on ``algebra``, or None."""
    lhs, rhs = parse_identity(text, algebra.signature)
    names = identity_vars((lhs, rhs))
    grids = np.indices((algebra.size,) * len(names))
    env = dict(zip(names, grids))
    lv = np.broadcast_to(eval_term(algebra, lhs, env), grids.shape[1:])
    rv = np.broadcast_to(eval_term(algebra, rhs, env), grids.shape[1:])
    bad = np.argwhere(lv != rv)
    if len(bad) == 0:
        return None
    return {v: int(i) for v, i in zip(names, bad[0])}


def verify_identities(algebra: FinAlgebra,
                      profile: VarietyProfile) -> IdentityReport:
    """Exhaustively evaluate every profile identity on ``algebra``."""
    if algebra.signature.ops != profile.signature.ops or \
            algebra.signature.basepoint_op != profile.signature.basepoint_op:
        raise ValidationError(
            f"algebra signature does not match profile {profile.name!r}")
    failures = []
    for text in profile.identities:
        witness = _identity_mismatch(algebra, text)
        if witness is not None:
            failures.append((text, witness))
    return IdentityReport(algebra.name or "<unnamed>", profile.name,
                          not failures, tuple(failures))


# ---------------------------------------------------------------------------
# profiles


@functools.lru_cache(maxsize=1)
def builtin_profiles() -> dict:
    groups = VarietyProfile(
        name="groups",
        signature=GROUP_SIGNATURE,
        identities=(
            "mul(mul(x0, x1), x2) = mul(x0, mul(x1, x2))",
            "mul(e, x0) = x0",
            "mul(x0, e) = x0",
            "mul(inv(x0), x0) = e",
            "mul(x0, inv(x0)) = e",
        ),
        malcev_witness="mul(mul(x0, inv(x1)), x2)",
        ssh_certified=True,
        notes="pullback functors reflect commutation of arbitrary cospans",
    )
    hslat = VarietyProfile(
        name="hslat",
        signature=HSLAT_SIGNATURE,
        identities=(
            "meet(x0, x0) = x0",
            "meet(x0, x1) = meet(x1, x0)",
            "meet(meet(x0, x1), x2) = meet(x0, meet(x1, x2))",
            "meet(x0, top) = x0",
            "imp(x0, x0) = top",
            "meet(x0, imp(x0, x1)) = meet(x0, x1)",
            "meet(x1, imp(x0, x1)) = x1",
            "imp(x0, meet(x1, x2)) = meet(imp(x0, x1), imp(x0, x2))",
        ),
        malcev_witness="meet(imp(imp(x0, x1), x2), imp(imp(x2, x1), x0))",
        ssh_certified=False,
        notes="arithmetical; commutation of cospans is not reflected",
    )
    loops = VarietyProfile(
        name="loops",
        signature=LOOP_SIGNATURE,
        identities=(
            "mul(e, x0) = x0",
            "mul(x0, e) = x0",
            "mul(x0, ldiv(x0, x1)) = x1",
            "ldiv(x0, mul(x0, x1)) = x1",
            "mul(rdiv(x0, x1), x1) = x0",
            "rdiv(mul(x0, x1), x1) = x0",
        ),
        ssh_certified=False,
        notes="divisions make every translation bijective; no witness shipped",
    )
    return {p.name: p for p in (groups, hslat, loops)}


# ---------------------------------------------------------------------------
# group constructors


def cyclic_group(n: int, name: str = "") -> FinAlgebra:
    i, j = np.indices((n, n))
    tables = {
        "mul": (i + j) % n,
        "inv": (-np.arange(n)) % n,
        "e": np.asarray(0),
    }
    return FinAlgebra(GROUP_SIGNATURE, n, tables, name=name or f"Z{n}",
                      labels=tuple(str(k) for k in range(n)))


def _perm_cycle_label(p: Sequence[int]) -> str:
    """Cycle notation on 1-based points; identity prints as ``e``."""
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + "".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) or "e"


def perm_group(perms, name: str) -> FinAlgebra:
    """Group of permutation tuples under composition (p*q)(i) = p[q[i]].

    Elements are sorted lexicographically, so the identity is element 0.
    """
    elems = sorted(set(tuple(int(x) for x in p) for p in perms))
    deg = len(elems[0])
    if elems[0] != tuple(range(deg)):
        raise ValidationError(f"{name}: identity permutation missing")
    index = {p: k for k, p in enumerate(elems)}
    n = len(elems)
    mul = np.zeros((n, n), dtype=np.int64)
    inv = np.zeros(n, dtype=np.int64)
    for a, p in enumerate(elems):
        q_inv = [0] * deg
        for i, v in enumerate(p):
            q_inv[v] = i
        inv[a] = index[tuple(q_inv)]
        for b, q in enumerate(elems):
            mul[a, b] = index[tuple(p[q[i]] for i in range(deg))]
    tables = {"mul": mul, "inv": inv, "e": np.asarray(0)}
    labels = tuple(_perm_cycle_label(p) for p in elems)
    return FinAlgebra(GROUP_SIGNATURE, n, tables, name=name, labels=labels)


def symmetric_group(degree: int, name: str = "") -> FinAlgebra:
    return perm_group(itertools.permutations(range(degree)),
                      name or f"S{degree}")


def alternating_group(degree: int, name: str = "") -> FinAlgebra:
    evens = []
    for p in itertools.permutations(range(degree)):
        inversions = sum(1 for i in range(degree) for j in range(i + 1, degree)
                         if p[i] > p[j])
        if inversions % 2 == 0:
            evens.append(p)
    return perm_group(evens, name or f"A{degree}")


def dihedral_group(n: int, name: str = "") -> FinAlgebra:
    """Order 2n: rotations r^k and reflections r^k s, index k + t*n."""
    size = 2 * n
    mul = np.zeros((size, size), dtype=np.int64)
    inv = np.zeros(size, dtype=np.int64)
    for k1, t1 in itertools.product(range(n), range(2)):
        i = k1 + t1 * n
        inv[i] = ((-k1) % n) if t1 == 0 else i
        for k2, t2 in itertools.product(range(n), range(2)):
            j = k2 + t2 * n
            k = (k1 + (k2 if t1 == 0 else -k2)) % n
            mul[i, j] = k + (t1 ^ t2) * n
    labels = []
    for t in range(2):
        for k in range(n):
            rot = "e" if k == 0 else ("r" if k == 1 else f"r{k}")
            labels.append(rot if t == 0 else ("s" if k == 0 else rot + "s"))
    tables = {"mul": mul, "inv": inv, "e": np.asarray(0)}
    return FinAlgebra(GROUP_SIGNATURE, size, tables, name=name or f"D{n}",
                      labels=tuple(labels))


def dicyclic_group(n: int, name: str = "") -> FinAlgebra:
    """Order 4n: a of order 2n, b with b*b = a^n and b*a = inv(a)*b."""
    m = 2 * n
    size = 2 * m
    mul = np.zeros((size, size), dtype=np.int64)
    inv = np.zeros(size, dtype=np.int64)
    for k1, t1 in itertools.product(range(m), range(2)):
        i = k1 + t1 * m
        inv[i] = ((-k1) % m) if t1 == 0 else ((k1 + n) % m) + m
        for k2, t2 in itertools.product(range(m), range(2)):
            j = k2 + t2 * m
            k = (k1 + (k2 if t1 == 0 else -k2) + (n if t1 and t2 else 0)) % m
            mul[i, j] = k + (t1 ^ t2) * m
    labels = []
    for t in range(2):
        for k in range(m):
            pw = "" if k == 0 else ("a" if k == 1 else f"a{k}")
            if t == 0:
                labels.append(pw or "e")
            else:
                labels.append(pw + "b")
    tables = {"mul": mul, "inv": inv, "e": np.asarray(0)}
    return FinAlgebra(GROUP_SIGNATURE, size, tables, name=name or f"Dic{n}",
                      labels=tuple(labels))


# ---------------------------------------------------------------------------
# Heyting semilattice constructors


def chain_hslat(n: int, name: str = "",
                labels: Optional[tuple[str, ...]] = None) -> FinAlgebra:
    """Linear order 0 < 1 < ... < n-1 with relative pseudocomplement
    ``imp(p,q) = top if p <= q else q``; basepoint is the top."""
    i, j = np.indices((n, n))
    tables = {
        "meet": np.minimum(i, j),
        "imp": np.where(i <= j, n - 1, j),
        "top": np.asarray(n - 1),
    }
    return FinAlgebra(HSLAT_SIGNATURE, n, tables, name=name or f"chain{n}",
                      labels=labels)


def diamond_hslat(name: str = "diamond") -> FinAlgebra:
    """The four-element boolean lattice 0 < a, b < 1 with imp(x,y) = -x v y."""
    meet = np.array([
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 2, 2],
        [0, 1, 2, 3],
    ])
    join = np.array([
        [0, 1, 2, 3],
        [1, 1, 3, 3],
        [2, 3, 2, 3],
        [3, 3, 3, 3],
    ])
    neg = np.array([3, 2, 1, 0])
    imp = join[neg]
    tables = {"meet": meet, "imp": imp, "top": np.asarray(3)}
    return FinAlgebra(HSLAT_SIGNATURE, 4, tables, name=name,
                      labels=("0", "a", "b", "1"))


def _hslat_product(a: FinAlgebra, b: FinAlgebra, name: str) -> FinAlgebra:
    carrier = product(a, b).carrier
    return dataclasses.replace(carrier, name=name)


# ---------------------------------------------------------------------------
# the library


@dataclass(frozen=True, eq=False)
class Library:
    """Named immutable catalogue: algebras, diagrams, cospans."""

    profiles: dict
    algebras: dict
    algebra_profile: dict
    diagrams: dict
    cospans: dict

    def algebra(self, key: str) -> FinAlgebra:
        if key not in self.algebras:
            raise ValidationError(
                f"unknown algebra {key!r}; known: {sorted(self.algebras)}")
        return self.algebras[key]


def _klein_four() -> FinAlgebra:
    z2 = cyclic_group(2)
    v4 = product(z2, z2).carrier
    return dataclasses.replace(v4, name="V4", labels=("e", "b", "a", "ab"))


def _quaternion_group() -> FinAlgebra:
    q8 = dicyclic_group(2, name="Q8")
    labels = ("1", "i", "-1", "-i", "j", "k", "-j", "-k")
    return dataclasses.replace(q8, labels=labels)


def _build_algebras() -> tuple[dict, dict]:
    algebras: dict[str, FinAlgebra] = {}
    profile_of: dict[str, str] = {}

    def add(key: str, alg: FinAlgebra, profile: str) -> FinAlgebra:
        algebras[key] = alg
        profile_of[key] = profile
        return alg

    for n in range(1, 13):
        add(f"Z{n}", cyclic_group(n), "groups")
    add("Z16", cyclic_group(16), "groups")
    add("V4", _klein_four(), "groups")
    add("S3", symmetric_group(3), "groups")
    add("A3", alternating_group(3), "groups")
    add("A4", alternating_group(4), "groups")
    add("D4", dihedral_group(4), "groups")
    add("D5", dihedral_group(5), "groups")
    add("D6", dihedral_group(6), "groups")
    add("D8", dihedral_group(8), "groups")
    add("Q8", _quaternion_group(), "groups")
    add("Dic3", dicyclic_group(3), "groups")

    chain2 = add("chain2", chain_hslat(2, labels=("0", "1")), "hslat")
    chain3 = add("chain3", chain_hslat(3, labels=("0", "1/2", "1")), "hslat")
    add("chain4", chain_hslat(4, labels=("0", "1/3", "2/3", "1")), "hslat")
    diamond = add("diamond", diamond_hslat(), "hslat")
    add("chain2xchain3", _hslat_product(chain2, chain3, "chain2xchain3"),
        "hslat")
    add("chain3xchain3", _hslat_product(chain3, chain3, "chain3xchain3"),
        "hslat")

    # the recorded lattice instance: A = D = chain3, B = chain2, C = diamond
    algebras["paper/hslat-A"] = chain3
    algebras["paper/hslat-B"] = chain2
    algebras["paper/hslat-C"] = diamond
    algebras["paper/hslat-D"] = chain3
    for key in ("paper/hslat-A", "paper/hslat-B", "paper/hslat-C",
                "paper/hslat-D"):
        profile_of[key] = "hslat"
    return algebras, profile_of


def _scaling_hom(dom: FinAlgebra, cod: FinAlgebra, factor: int) -> Hom:
    return check_hom(dom, cod,
                     [(factor * x) % cod.size for x in range(dom.size)])


def _build_group_diagrams(algs: dict) -> dict:
    from .conditions import AdmissibleDiagram

    out: dict[str, AdmissibleDiagram] = {}
    z1 = algs["Z1"]

    def full_over_zero(a, c, d, alpha, gamma, key):
        f = zero_hom(a, z1)
        g = zero_hom(c, z1)
        out[key] = AdmissibleDiagram(
            f=f, r=zero_hom(z1, a), g=g, s=zero_hom(z1, c),
            alpha=alpha, beta=zero_hom(z1, d), gamma=gamma, name=key)

    # abelian target, both kernels full
    z4, z6, z12 = algs["Z4"], algs["Z6"], algs["Z12"]
    full_over_zero(z4, z6, z12,
                   _scaling_hom(z4, z12, 3), _scaling_hom(z6, z12, 2),
                   "groups/z4-z6-z12")

    # the whole nonabelian group against itself; hypothesis fails
    s3 = algs["S3"]
    full_over_zero(s3, s3, s3, identity_hom(s3), identity_hom(s3),
                   "groups/s3-s3-full-nonabelian")

    z2 = algs["Z2"]
    sign = check_hom(s3, z2, [0, 1, 1, 0, 0, 1])
    transp = check_hom(z2, s3, [0, 2])  # section picking the transposition (12)
    out["groups/s3-sign-split"] = AdmissibleDiagram(
        f=sign, r=transp, g=identity_hom(z2), s=identity_hom(z2),
        alpha=identity_hom(s3), beta=transp, gamma=transp,
        name="groups/s3-sign-split")
    out["groups/s3-s3-pullback18"] = AdmissibleDiagram(
        f=sign, r=transp, g=sign, s=transp,
        alpha=identity_hom(s3), beta=transp, gamma=identity_hom(s3),
        name="groups/s3-s3-pullback18")

    v4, d4 = algs["V4"], algs["D4"]
    proj1 = check_hom(v4, z2, [0, 0, 1, 1])
    lift1 = check_hom(z2, v4, [0, 2])
    central = check_hom(v4, d4, [0, 2, 4, 6])  # (u,v) |-> s^u (r^2)^v
    beta4 = check_hom(z2, d4, [0, 4])
    out["groups/v4-v4-d4-central"] = AdmissibleDiagram(
        f=proj1, r=lift1, g=proj1, s=lift1,
        alpha=central, beta=beta4, gamma=central,
        name="groups/v4-v4-d4-central")

    parity = check_hom(d4, z2, [0, 0, 0, 0, 1, 1, 1, 1])
    refl = check_hom(z2, d4, [0, 4])
    out["groups/d4-sign-split"] = AdmissibleDiagram(
        f=parity, r=refl, g=identity_hom(z2), s=identity_hom(z2),
        alpha=identity_hom(d4), beta=refl, gamma=refl,
        name="groups/d4-sign-split")

    z3 = algs["Z3"]
    mod3 = check_hom(z12, z3, [x % 3 for x in range(12)])
    times4 = _scaling_hom(z3, z12, 4)
    out["groups/z12-mod3-split"] = AdmissibleDiagram(
        f=mod3, r=times4, g=identity_hom(z3), s=identity_hom(z3),
        alpha=identity_hom(z12), beta=times4, gamma=times4,
        name="groups/z12-mod3-split")
    return out


def _build_hslat_diagram(algs: dict) -> dict:
    from .conditions import AdmissibleDiagram

    a, b = algs["paper/hslat-A"], algs["paper/hslat-B"]
    c, d = algs["paper/hslat-C"], algs["paper/hslat-D"]
    return {
        "paper/hslat-adm": AdmissibleDiagram(
            f=check_hom(a, b, [0, 1, 1]), r=check_hom(b, a, [0, 2]),
            g=check_hom(c, b, [0, 0, 1, 1]), s=check_hom(b, c, [0, 3]),
            alpha=check_hom(a, d, [0, 1, 2]), beta=check_hom(b, d, [0, 2]),
            # the recorded gamma table is kept verbatim; it does not
            # preserve meet(a,b), so it travels with its violation list
            gamma=hom_from_table(c, d, [0, 2, 2, 2]), name="paper/hslat-adm"),
    }


def _build_cospans(algs: dict) -> dict:
    from .commutators import WeightedCospan

    s3, z1 = algs["S3"], algs["Z1"]
    c2 = generate_subuniverse(s3, [2])  # subgroup {e, (12)}
    x = c2.inclusion_hom()
    return {
        "paper/s3-w": WeightedCospan(x=x, y=x, w=identity_hom(s3),
                                     name="paper/s3-w"),
        "paper/s3-w-zero": WeightedCospan(x=x, y=x, w=zero_hom(z1, s3),
                                          name="paper/s3-w-zero"),
    }


@functools.lru_cache(maxsize=1)
def builtin_library() -> Library:
    profiles = builtin_profiles()
    algebras, profile_of = _build_algebras()
    diagrams = _build_hslat_diagram(algebras)
    diagrams.update(_build_group_diagrams(algebras))
    cospans = _build_cospans(algebras)
    return Library(profiles=profiles, algebras=algebras,
                   algebra_profile=profile_of, diagrams=diagrams,
                   cospans=cospans)
