"""JSON file formats and the name/file registry used by the command line.

Every kind of input the workbench consumes has a JSON form:

* algebra  — ``{name, signature: [{op, arity}], basepoint_op, size,
  tables: {op: row-major flattened array}, labels?}``
* profile  — ``{name, signature, basepoint_op, identities, malcev_witness?,
  ssh_certified}`` with identities as prefix-notation term equations
* admissible diagram — ``{kind: "admissible-diagram", algebras: {A,B,C,D},
  homs: {f,r,g,s,alpha,beta,gamma}}`` with hom values as flat maps whose
  endpoints are implied by the role (f: A->B, r: B->A, g: C->B, s: B->C,
  alpha: A->D, beta: B->D, gamma: C->D)
* weighted cospan — ``{kind: "weighted-cospan", algebras: {X,Y,W,D},
  homs: {x,y,w}}`` (x: X->D, y: Y->D, w: W->D)
* reflection instance — ``{kind: "reflection-instance", mode, algebras:
  {E,B,T}, p: [E->B], carrier, R, S}`` where carrier is
  ``{proj: [T->B], sect: [B->T]}`` in points mode or a flat map ``[T->B]``
  in basic mode, and R/S are lists of generating pairs (labels or indices)
  on T.

In the last three, each entry of ``algebras`` is a catalogue key (string)
or an inline algebra object.

One loading rule is deliberate: in a diagram file the comparison leg
``gamma`` is restored without rejecting operation-table violations, so a
recorded counterexample whose comparison map fails to be a homomorphism
travels intact, violations attached.  Every other hom is checked strictly.

The :class:`Registry` resolves a command-line token to an object: catalogue
keys hit the built-in library, anything else is treated as a path.  Each
resolution also yields an input record ``{name, sha256}`` — file inputs are
hashed over their raw bytes, built-ins over their canonical serialization —
so run reports can state exactly which inputs produced them.  A catalogue
profile is recorded as ``profile:<key>``, and the catalogue algebras a file
names are recorded before the file.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .commutators import WeightedCospan
from .conditions import AdmissibleDiagram
from .core import (FinAlgebra, Hom, PointObject, Signature, ValidationError,
                   check_hom, generate_congruence, hom_from_table)
from .varieties import VarietyProfile, builtin_library

__all__ = [
    "algebra_to_json", "algebra_from_json",
    "profile_to_json", "profile_from_json",
    "diagram_to_json", "diagram_from_json",
    "cospan_to_json", "cospan_from_json",
    "reflection_from_json",
    "canonical_dumps", "sha256_bytes", "sha256_obj",
    "load_json_file", "Registry",
]

DIAGRAM_ROLES = (("f", "A", "B"), ("r", "B", "A"), ("g", "C", "B"),
                 ("s", "B", "C"), ("alpha", "A", "D"), ("beta", "B", "D"),
                 ("gamma", "C", "D"))
COSPAN_ROLES = (("x", "X", "D"), ("y", "Y", "D"), ("w", "W", "D"))


# ---------------------------------------------------------------------------
# canonical text and hashing


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_obj(obj) -> str:
    return sha256_bytes(canonical_dumps(obj).encode("utf-8"))


def load_json_file(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file ({exc})") from exc
    try:
        return json.loads(raw), raw
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno}:"
            f" {exc.msg})") from exc


# ---------------------------------------------------------------------------
# field plumbing


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got "
                              f"{type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return obj[key]


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ValidationError(f"{where}: expected an array of integers")
    return value


def _signature_from_json(ops_json, basepoint_op, where: str) -> Signature:
    if not isinstance(ops_json, list):
        raise ValidationError(f"{where}.signature: expected an array")
    ops = []
    for i, entry in enumerate(ops_json):
        op = _need(entry, "op", f"{where}.signature[{i}]")
        arity = _need(entry, "arity", f"{where}.signature[{i}]")
        if not isinstance(op, str) or not isinstance(arity, int):
            raise ValidationError(
                f"{where}.signature[{i}]: need string 'op' and integer"
                " 'arity'")
        ops.append((op, arity))
    return Signature(ops=tuple(ops), basepoint_op=str(basepoint_op))


def _signature_to_json(sig: Signature) -> list[dict]:
    return [{"op": op, "arity": k} for op, k in sig.ops]


# ---------------------------------------------------------------------------
# algebras


def algebra_to_json(alg: FinAlgebra) -> dict:
    tables = {}
    for op, k in alg.signature.ops:
        tables[op] = np.asarray(alg.tables[op]).reshape(-1).tolist()
    out = {
        "name": alg.name,
        "signature": _signature_to_json(alg.signature),
        "basepoint_op": alg.signature.basepoint_op,
        "size": alg.size,
        "tables": tables,
    }
    if alg.labels:
        out["labels"] = list(alg.labels)
    return out


def algebra_from_json(obj: dict, where: str = "algebra") -> FinAlgebra:
    sig = _signature_from_json(_need(obj, "signature", where),
                               _need(obj, "basepoint_op", where), where)
    size = _need(obj, "size", where)
    if not isinstance(size, int) or size < 1:
        raise ValidationError(f"{where}.size: expected a positive integer")
    tables_json = _need(obj, "tables", where)
    tables = {}
    for op, k in sig.ops:
        flat = _int_list(_need(tables_json, op, f"{where}.tables"),
                         f"{where}.tables.{op}")
        want = size ** k
        if len(flat) != want:
            raise ValidationError(
                f"{where}.tables.{op}: expected {want} entries for arity"
                f" {k} over {size} elements, got {len(flat)}")
        tables[op] = np.asarray(flat, dtype=np.int64).reshape((size,) * k)
    labels = obj.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != size
                or not all(isinstance(x, str) for x in labels)):
            raise ValidationError(
                f"{where}.labels: expected {size} strings")
        labels = tuple(labels)
    return FinAlgebra(sig, size, tables,
                      name=str(obj.get("name", "")), labels=labels)


# ---------------------------------------------------------------------------
# profiles


def profile_to_json(p: VarietyProfile) -> dict:
    out = {
        "name": p.name,
        "signature": _signature_to_json(p.signature),
        "basepoint_op": p.signature.basepoint_op,
        "identities": list(p.identities),
        "ssh_certified": p.ssh_certified,
    }
    if p.malcev_witness is not None:
        out["malcev_witness"] = p.malcev_witness
    return out


def profile_from_json(obj: dict, where: str = "profile") -> VarietyProfile:
    sig = _signature_from_json(_need(obj, "signature", where),
                               _need(obj, "basepoint_op", where), where)
    identities = _need(obj, "identities", where)
    if not isinstance(identities, list) or not all(
            isinstance(t, str) for t in identities):
        raise ValidationError(f"{where}.identities: expected an array of"
                              " term-equation strings")
    return VarietyProfile(
        name=str(_need(obj, "name", where)),
        signature=sig,
        identities=tuple(identities),
        malcev_witness=obj.get("malcev_witness"),
        ssh_certified=bool(obj.get("ssh_certified", False)),
    )


# ---------------------------------------------------------------------------
# diagrams and cospans


def _roles_to_json(algebras: dict, homs: dict, kind: str,
                   name: str) -> dict:
    out = {"kind": kind, "name": name,
           "algebras": {k: algebra_to_json(a) for k, a in algebras.items()},
           "homs": {k: np.asarray(h.map).tolist()
                    for k, h in homs.items()}}
    return out


def diagram_to_json(d: AdmissibleDiagram) -> dict:
    algebras = {"A": d.f.dom, "B": d.f.cod, "C": d.g.dom, "D": d.alpha.cod}
    homs = {"f": d.f, "r": d.r, "g": d.g, "s": d.s,
            "alpha": d.alpha, "beta": d.beta, "gamma": d.gamma}
    return _roles_to_json(algebras, homs, "admissible-diagram", d.name)


def cospan_to_json(c: WeightedCospan) -> dict:
    algebras = {"X": c.x.dom, "Y": c.y.dom, "W": c.w.dom, "D": c.x.cod}
    homs = {"x": c.x, "y": c.y, "w": c.w}
    return _roles_to_json(algebras, homs, "weighted-cospan", c.name)


def _role_algebras(obj: dict, names: tuple[str, ...], resolve,
                   where: str) -> dict:
    table = _need(obj, "algebras", where)
    out = {}
    for nm in names:
        val = _need(table, nm, f"{where}.algebras")
        if isinstance(val, str):
            out[nm] = resolve(val)
        else:
            out[nm] = algebra_from_json(val, f"{where}.algebras.{nm}")
    return out


def _role_hom(obj: dict, role: str, dom: FinAlgebra, cod: FinAlgebra,
              where: str, strict: bool = True) -> Hom:
    flat = _int_list(_need(_need(obj, "homs", where), role,
                           f"{where}.homs"), f"{where}.homs.{role}")
    if len(flat) != dom.size:
        raise ValidationError(
            f"{where}.homs.{role}: expected {dom.size} entries, got"
            f" {len(flat)}")
    if strict:
        return check_hom(dom, cod, flat)
    return hom_from_table(dom, cod, flat)


def diagram_from_json(obj: dict, resolve,
                      where: str = "diagram") -> AdmissibleDiagram:
    algs = _role_algebras(obj, ("A", "B", "C", "D"), resolve, where)
    homs = {}
    for role, dn, cn in DIAGRAM_ROLES:
        # the comparison leg gamma may legitimately carry violations
        homs[role] = _role_hom(obj, role, algs[dn], algs[cn], where,
                               strict=role != "gamma")
    return AdmissibleDiagram(name=str(obj.get("name", "")), **homs)


def cospan_from_json(obj: dict, resolve,
                     where: str = "cospan") -> WeightedCospan:
    algs = _role_algebras(obj, ("X", "Y", "W", "D"), resolve, where)
    homs = {role: _role_hom(obj, role, algs[dn], algs[cn], where)
            for role, dn, cn in COSPAN_ROLES}
    return WeightedCospan(name=str(obj.get("name", "")), **homs)


# ---------------------------------------------------------------------------
# reflection instances


def _pairs_to_congruence(alg: FinAlgebra, pairs, where: str):
    if not isinstance(pairs, list):
        raise ValidationError(f"{where}: expected an array of pairs")
    resolved = []
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{where}[{i}]: expected a two-element"
                                  " pair")
        try:
            resolved.append((alg.label_index(str(pair[0])),
                             alg.label_index(str(pair[1]))))
        except ValidationError as exc:
            raise ValidationError(f"{where}[{i}]: {exc}") from exc
    return generate_congruence(alg, resolved)


def reflection_from_json(obj: dict, resolve, where: str = "reflection"):
    """Returns ``(mode, p, carrier, R, S)`` ready for the instance checker."""
    mode = str(_need(obj, "mode", where))
    algs = _role_algebras(obj, ("E", "B", "T"), resolve, where)
    p_flat = _int_list(_need(obj, "p", where), f"{where}.p")
    if len(p_flat) != algs["E"].size:
        raise ValidationError(f"{where}.p: expected {algs['E'].size}"
                              f" entries, got {len(p_flat)}")
    p = check_hom(algs["E"], algs["B"], p_flat)
    carrier_json = _need(obj, "carrier", where)
    if mode == "points":
        proj_flat = _int_list(_need(carrier_json, "proj",
                                    f"{where}.carrier"),
                              f"{where}.carrier.proj")
        sect_flat = _int_list(_need(carrier_json, "sect",
                                    f"{where}.carrier"),
                              f"{where}.carrier.sect")
        proj = check_hom(algs["T"], algs["B"], proj_flat)
        sect = check_hom(algs["B"], algs["T"], sect_flat)
        carrier = PointObject(total=algs["T"], base=algs["B"],
                              proj=proj, sect=sect)
    else:
        flat = _int_list(carrier_json, f"{where}.carrier")
        carrier = check_hom(algs["T"], algs["B"], flat)
    r = _pairs_to_congruence(algs["T"], _need(obj, "R", where),
                             f"{where}.R")
    s = _pairs_to_congruence(algs["T"], _need(obj, "S", where),
                             f"{where}.S")
    return mode, p, carrier, r, s


# ---------------------------------------------------------------------------
# the registry


class Registry:
    """Resolves command-line tokens to objects plus input records.

    A token naming a catalogue entry resolves there; otherwise it is
    treated as a filesystem path.  ``inputs`` accumulates
    ``{name, sha256}`` records, one per distinct resolution, in first-use
    order — run reports embed them so results are traceable to exact
    input content.
    """

    def __init__(self, library=None):
        self.library = library if library is not None else builtin_library()
        self.inputs: list[dict] = []
        self._seen: set[str] = set()

    # -- record keeping

    def _record(self, name: str, digest: str) -> None:
        if name not in self._seen:
            self._seen.add(name)
            self.inputs.append({"name": name, "sha256": digest})

    def _resolve_library_algebra(self, key: str) -> FinAlgebra:
        alg = self.library.algebra(key)
        self._record(key, sha256_obj(algebra_to_json(alg)))
        return alg

    def _load(self, path: str, parse):
        """Parse a JSON file with ``parse(obj, where)``; the catalogue
        algebras it names are recorded before the file itself."""
        obj, raw = load_json_file(path)
        out = parse(obj, path)
        self._record(path, sha256_bytes(raw))
        return out

    def _resolve(self, token: str, kind: str, catalogue: dict, to_json,
                 parse, unknown: str, prefix: str = ""):
        """Catalogue key, else file path, else an "unknown" error."""
        if token in catalogue:
            obj = catalogue[token]
            self._record(prefix + token, sha256_obj(to_json(obj)))
            return obj
        if os.path.exists(token):
            return self._load(token, parse)
        raise ValidationError(f"unknown {kind} {token!r}{unknown}")

    def _with_library(self, from_json):
        return lambda obj, where: from_json(
            obj, self._resolve_library_algebra, where)

    # -- public resolution

    def algebra(self, token: str) -> FinAlgebra:
        return self._resolve(
            token, "algebra", self.library.algebras, algebra_to_json,
            algebra_from_json, ": not a catalogue key and not a file; known"
            f" keys include {sorted(self.library.algebras)[:8]}")

    def algebra_file(self, path: str) -> FinAlgebra:
        return self._load(path, algebra_from_json)

    def profile(self, token: str) -> VarietyProfile:
        return self._resolve(
            token, "profile", self.library.profiles, profile_to_json,
            profile_from_json, "; catalogue profiles:"
            f" {sorted(self.library.profiles)}", prefix="profile:")

    def diagram(self, token: str) -> AdmissibleDiagram:
        return self._resolve(
            token, "diagram", self.library.diagrams, diagram_to_json,
            self._with_library(diagram_from_json), "; catalogue diagrams:"
            f" {sorted(self.library.diagrams)}")

    def cospan(self, token: str) -> WeightedCospan:
        return self._resolve(
            token, "cospan", self.library.cospans, cospan_to_json,
            self._with_library(cospan_from_json), "; catalogue cospans:"
            f" {sorted(self.library.cospans)}")

    def reflection(self, path: str):
        return self._load(path, self._with_library(reflection_from_json))
