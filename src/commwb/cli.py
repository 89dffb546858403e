"""Command-line surface: load inputs, dispatch computations, emit reports.

Subcommands::

    algebra verify                 well-formedness (+ optional profile identities)
    commutator huq|higgins|ternary|smith|weighted
    closure sub|cong|wnormal
    check sh|ssh|w|reflect
    examples run hslat-ssh|s3-w|groups-phi|all

Every run produces one report, as JSON (``--format json``) or prose
(``--format text``, the default), written to ``--out FILE`` or stdout.  A
JSON report carries ``schema: 1``, the echoed command line, one
``{name, sha256}`` record per input, the result payload, a completeness
flag aggregated from every strategy involved, and the wall time.  Repeat
runs over identical inputs produce byte-identical JSON apart from the
wall-time field.

Exit codes separate three situations.  ``0``: the computation ran and the
instance satisfied what it was asked, or a plain result was produced.
``1``: the computation ran fine and found a mathematically meaningful
violation — a failed condition, a non-commuting pair, a reproduced
counterexample; the report documents it.  ``2``: the inputs were
malformed or inconsistent; diagnostics name the offending location.
Pipelines can therefore distinguish "found a counterexample" from "could
not run".

Element arguments are given by label: ``--sub "(12),(123)"`` generates a
subuniverse from listed elements, ``--cong "a~b;c~d"`` generates a
congruence from listed pairs.  ``--word-bound`` is read only by the
word-oracle strategy of ``commutator ternary`` and ``check w``; without it
the built-in bound applies.  No environment variable changes a report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .commutators import (TERNARY_STRATEGIES, WEIGHTED_STRATEGIES,
                          _resolve_ternary_strategy, commute_over,
                          cooperator, higgins_binary, higgins_ternary, smith,
                          w_normal_closure)
from .conditions import (EXAMPLE_NAMES, check_reflection_instance,
                         check_sh_instance, check_ssh_instance,
                         check_w_instance, run_paper_examples)
from .core import (FinAlgebra, Subuniverse, ValidationError,
                   generate_congruence, generate_subuniverse, identity_hom)
from .fileio import Registry, canonical_dumps
from .varieties import verify_identities

__all__ = ["main"]

EXIT_OK, EXIT_VIOLATION, EXIT_ERROR = 0, 1, 2


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_elements(alg: FinAlgebra, text: str, what: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(alg.label_index(piece))
        except ValidationError as exc:
            raise ValidationError(f"{what}: {exc}") from exc
    return out


def _sub_from_spec(alg: FinAlgebra, text: str, what: str) -> Subuniverse:
    return generate_subuniverse(alg, _parse_elements(alg, text, what))


def _cong_from_spec(alg: FinAlgebra, text: str, what: str):
    pairs = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        sides = piece.split("~")
        if len(sides) != 2:
            raise ValidationError(
                f"{what}: expected label~label, got {piece!r}")
        pairs.append((alg.label_index(sides[0].strip()),
                      alg.label_index(sides[1].strip())))
    return generate_congruence(alg, pairs)


def _jsonable(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def _members(sub: Subuniverse) -> list[str]:
    return [sub.parent.label(i) for i in sub.members]


def _blocks(theta) -> list[list[str]]:
    return [[theta.parent.label(i) for i in block]
            for block in theta.blocks()]


def _verdict_payload(v) -> dict:
    return {
        "condition": v.condition,
        "hypothesis_holds": v.hypothesis_holds,
        "conclusion_holds": v.conclusion_holds,
        "instance_satisfies": v.instance_satisfies,
        "witnesses": _jsonable(v.witnesses),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, complete, violated)


def _cmd_algebra_verify(args, reg: Registry):
    if bool(args.file) == bool(args.algebra):
        raise ValidationError(
            "algebra verify: give exactly one of --file or --algebra")
    alg = (reg.algebra_file(args.file) if args.file
           else reg.algebra(args.algebra))
    payload = {
        "name": alg.name,
        "size": alg.size,
        "operations": [{"op": op, "arity": k}
                       for op, k in alg.signature.ops],
        "valid": True,
    }
    violated = False
    if args.profile:
        prof = reg.profile(args.profile)
        rep = verify_identities(alg, prof)
        payload["profile"] = {
            "name": prof.name,
            "identities_hold": rep.ok,
            "failures": [{"identity": text,
                          "assignment": {v: alg.label(i)
                                         for v, i in env.items()}}
                         for text, env in rep.failures],
        }
        violated = not rep.ok
    return payload, True, violated


def _subs_from_args(args, alg: FinAlgebra, want: int) -> list[Subuniverse]:
    specs = args.sub or []
    if len(specs) != want:
        raise ValidationError(
            f"expected exactly {want} --sub arguments, got {len(specs)}")
    return [_sub_from_spec(alg, s, f"--sub #{i + 1}")
            for i, s in enumerate(specs)]


def _cmd_commutator_huq(args, reg: Registry):
    alg = reg.algebra(args.algebra)
    k, l = _subs_from_args(args, alg, 2)
    outcome = cooperator(alg, k, l)
    payload = {
        "cooperator_exists": outcome.exists,
        "commutator": _members(outcome.commutator),
    }
    if outcome.conflict is not None:
        (a, b, d1), (_, _, d2) = outcome.conflict
        payload["conflict"] = {
            "pair": [alg.label(a), alg.label(b)],
            "values": [alg.label(d1), alg.label(d2)],
        }
    return payload, True, not outcome.exists


def _cmd_commutator_higgins(args, reg: Registry):
    alg = reg.algebra(args.algebra)
    k, l = _subs_from_args(args, alg, 2)
    payload = {"commutator": _members(higgins_binary(alg, k, l))}
    return payload, True, False


def _cmd_commutator_ternary(args, reg: Registry):
    alg = reg.algebra(args.algebra)
    k, l, m = _subs_from_args(args, alg, 3)
    rep = higgins_ternary(alg, k, l, m,
                          _resolve_ternary_strategy(alg, args.strategy),
                          word_bound=args.word_bound,
                          term_depth=args.term_depth)
    payload = {
        "commutator": _members(rep.result),
        "strategy": rep.strategy,
        "witnesses": _jsonable(rep.witnesses),
    }
    return payload, rep.complete, False


def _cmd_commutator_smith(args, reg: Registry):
    alg = reg.algebra(args.algebra)
    specs = args.cong or []
    if len(specs) != 2:
        raise ValidationError(
            f"expected exactly 2 --cong arguments, got {len(specs)}")
    r = _cong_from_spec(alg, specs[0], "--cong #1")
    s = _cong_from_spec(alg, specs[1], "--cong #2")
    theta = smith(alg, r, s)
    payload = {
        "blocks": _blocks(theta),
        "is_diagonal": len(set(theta.block_id)) == alg.size,
    }
    return payload, True, False


def _cmd_commutator_weighted(args, reg: Registry):
    if bool(args.file) == bool(args.cospan):
        raise ValidationError(
            "commutator weighted: give exactly one of --cospan or --file")
    c = reg.cospan(args.file if args.file else args.cospan)
    profile = reg.profile(args.profile) if args.profile else None
    strategy = args.strategy or "proper-commutators"
    verdict, rep = commute_over(c, strategy, profile=profile,
                                term_depth=args.term_depth)
    payload = {
        "commute": verdict,
        "strategy": rep.strategy,
        "commutator": _members(rep.result),
    }
    return payload, rep.complete, not verdict


def _cmd_closure_sub(args, reg: Registry):
    alg = reg.algebra(args.algebra)
    sub = _sub_from_spec(alg, args.gens, "--gens")
    return {"closure": _members(sub)}, True, False


def _cmd_closure_cong(args, reg: Registry):
    alg = reg.algebra(args.algebra)
    theta = _cong_from_spec(alg, args.pairs, "--pairs")
    return {"blocks": _blocks(theta)}, True, False


def _cmd_closure_wnormal(args, reg: Registry):
    alg = reg.algebra(args.algebra)
    x = _sub_from_spec(alg, args.sub, "--sub")
    if args.weight is not None:
        w = _sub_from_spec(alg, args.weight, "--weight").inclusion_hom()
    else:
        w = identity_hom(alg)
    closed = w_normal_closure(alg, x, w)
    return {"closure": _members(closed)}, True, False


def _cmd_check_sh(args, reg: Registry):
    alg = reg.algebra(args.algebra)
    specs = args.cong or []
    if len(specs) != 2:
        raise ValidationError(
            f"expected exactly 2 --cong arguments, got {len(specs)}")
    v = check_sh_instance(alg,
                          _cong_from_spec(alg, specs[0], "--cong #1"),
                          _cong_from_spec(alg, specs[1], "--cong #2"))
    return _verdict_payload(v), v.complete, not v.instance_satisfies


def _cmd_check_ssh(args, reg: Registry):
    if bool(args.file) == bool(args.diagram):
        raise ValidationError(
            "check ssh: give exactly one of --diagram or --file")
    d = reg.diagram(args.file if args.file else args.diagram)
    v = check_ssh_instance(d)
    return _verdict_payload(v), v.complete, not v.instance_satisfies


def _cmd_check_w(args, reg: Registry):
    if bool(args.file) == bool(args.cospan):
        raise ValidationError(
            "check w: give exactly one of --cospan or --file")
    c = reg.cospan(args.file if args.file else args.cospan)
    v = check_w_instance(c, ternary_strategy=args.strategy,
                         word_bound=args.word_bound,
                         term_depth=args.term_depth)
    return _verdict_payload(v), v.complete, not v.instance_satisfies


def _cmd_check_reflect(args, reg: Registry):
    mode, p, carrier, r, s = reg.reflection(args.file)
    v = check_reflection_instance(mode, p, carrier, r, s)
    return _verdict_payload(v), v.complete, not v.instance_satisfies


def _cmd_examples_run(args, reg: Registry):
    summaries = run_paper_examples(args.name)
    payload = _jsonable(summaries)
    violated = any(entry.get("verdict_satisfies") is False
                   for entry in summaries.values())
    return payload, True, violated


# ---------------------------------------------------------------------------
# report rendering


def _text_value(value) -> str:
    if isinstance(value, list) and all(
            isinstance(v, (str, int, float, bool)) for v in value):
        return "{" + ", ".join(str(v) for v in value) + "}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "skipped"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _text_report(report: dict) -> str:
    lines = ["commwb " + " ".join(report["command"])]
    for rec in report["inputs"]:
        lines.append(f"input {rec['name']} sha256={rec['sha256'][:12]}")
    result = report["result"]

    def emit(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            hyp = obj.get("hypothesis_holds")
            con = obj.get("conclusion_holds", "absent")
            if isinstance(hyp, bool) and con != "absent":
                word = "skipped" if con is None else _text_value(con)
                lines.append(f"{prefix}hypothesis {_text_value(hyp)},"
                             f" conclusion {word}")
            for key, value in obj.items():
                if key in ("hypothesis_holds", "conclusion_holds"):
                    continue
                if isinstance(value, dict):
                    lines.append(f"{prefix}{key}:")
                    emit(prefix + "  ", value)
                else:
                    lines.append(f"{prefix}{key}: {_text_value(value)}")
        else:
            lines.append(f"{prefix}{_text_value(obj)}")

    emit("", result)
    lines.append(f"complete: {_text_value(report['complete'])}")
    lines.append(f"wall time: {report['wall_time_ms']} ms")
    return "\n".join(lines) + "\n"


def _write_report(report: dict, fmt: str, out: str | None) -> None:
    text = (canonical_dumps(report) if fmt == "json"
            else _text_report(report))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "text"), default="text",
                   help="report format (default: text)")
    p.add_argument("--out", metavar="FILE",
                   help="write the report here instead of stdout")


def _add_ternary_flags(p: argparse.ArgumentParser,
                       strategies=TERNARY_STRATEGIES) -> None:
    p.add_argument("--strategy", choices=strategies, default=None)
    p.add_argument("--word-bound", type=int, default=None, metavar="N",
                   help="syllable budget for the word-oracle strategy"
                        " (default: built-in)")
    p.add_argument("--term-depth", type=int, default=None, metavar="N",
                   help="nesting budget for the term strategy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commwb",
        description="Commutator workbench over finite pointed algebras")
    top = parser.add_subparsers(dest="group", required=True)

    algebra = top.add_parser("algebra", help="algebra file utilities")
    asub = algebra.add_subparsers(dest="sub_command", required=True)
    verify = asub.add_parser("verify",
                             help="validate a file, optionally against a"
                                  " variety profile")
    verify.add_argument("--file", metavar="PATH")
    verify.add_argument("--algebra", metavar="NAME")
    verify.add_argument("--profile", metavar="NAME")
    _add_common(verify)
    verify.set_defaults(handler=_cmd_algebra_verify)

    comm = top.add_parser("commutator", help="commutator computations")
    csub = comm.add_subparsers(dest="sub_command", required=True)

    huq = csub.add_parser("huq", help="cooperator existence for two"
                                      " subalgebras")
    huq.add_argument("--algebra", required=True)
    huq.add_argument("--sub", action="append", metavar="GENS")
    _add_common(huq)
    huq.set_defaults(handler=_cmd_commutator_huq)

    higgins = csub.add_parser("higgins", help="binary commutator"
                                              " subuniverse")
    higgins.add_argument("--algebra", required=True)
    higgins.add_argument("--sub", action="append", metavar="GENS")
    _add_common(higgins)
    higgins.set_defaults(handler=_cmd_commutator_higgins)

    ternary = csub.add_parser("ternary", help="ternary commutator"
                                              " subuniverse")
    ternary.add_argument("--algebra", required=True)
    ternary.add_argument("--sub", action="append", metavar="GENS")
    _add_ternary_flags(ternary)
    _add_common(ternary)
    ternary.set_defaults(handler=_cmd_commutator_ternary)

    smith_p = csub.add_parser("smith", help="centralising congruence of"
                                            " two congruences")
    smith_p.add_argument("--algebra", required=True)
    smith_p.add_argument("--cong", action="append", metavar="PAIRS")
    _add_common(smith_p)
    smith_p.set_defaults(handler=_cmd_commutator_smith)

    weighted = csub.add_parser("weighted", help="do two legs commute over"
                                                " a weight")
    weighted.add_argument("--cospan", metavar="NAME")
    weighted.add_argument("--file", metavar="PATH")
    weighted.add_argument("--profile", metavar="NAME",
                          help="variety profile (needed by ssh-kernel)")
    weighted.add_argument("--strategy", choices=WEIGHTED_STRATEGIES,
                          default=None)
    weighted.add_argument("--term-depth", type=int, default=None,
                          metavar="N")
    _add_common(weighted)
    weighted.set_defaults(handler=_cmd_commutator_weighted)

    closure = top.add_parser("closure", help="closure computations")
    osub = closure.add_subparsers(dest="sub_command", required=True)

    sub_p = osub.add_parser("sub", help="generated subuniverse")
    sub_p.add_argument("--algebra", required=True)
    sub_p.add_argument("--gens", required=True, metavar="ELEMS")
    _add_common(sub_p)
    sub_p.set_defaults(handler=_cmd_closure_sub)

    cong_p = osub.add_parser("cong", help="generated congruence")
    cong_p.add_argument("--algebra", required=True)
    cong_p.add_argument("--pairs", required=True, metavar="PAIRS")
    _add_common(cong_p)
    cong_p.set_defaults(handler=_cmd_closure_cong)

    wnormal = osub.add_parser("wnormal", help="weighted normal closure")
    wnormal.add_argument("--algebra", required=True)
    wnormal.add_argument("--sub", required=True, metavar="GENS")
    wnormal.add_argument("--weight", metavar="GENS",
                         help="weight image generators (default: whole"
                              " algebra)")
    _add_common(wnormal)
    wnormal.set_defaults(handler=_cmd_closure_wnormal)

    check = top.add_parser("check", help="condition instance checkers")
    ksub = check.add_subparsers(dest="sub_command", required=True)

    sh = ksub.add_parser("sh", help="do trivial normalisation commutators"
                                    " force centralising congruences")
    sh.add_argument("--algebra", required=True)
    sh.add_argument("--cong", action="append", metavar="PAIRS")
    _add_common(sh)
    sh.set_defaults(handler=_cmd_check_sh)

    ssh = ksub.add_parser("ssh", help="does a commuting kernel cospan"
                                      " admit a fill-in")
    ssh.add_argument("--diagram", metavar="NAME")
    ssh.add_argument("--file", metavar="PATH")
    _add_common(ssh)
    ssh.set_defaults(handler=_cmd_check_ssh)

    w = ksub.add_parser("w", help="is weighted commutation"
                                  " weight-independent here")
    w.add_argument("--cospan", metavar="NAME")
    w.add_argument("--file", metavar="PATH")
    _add_ternary_flags(w)
    _add_common(w)
    w.set_defaults(handler=_cmd_check_w)

    reflect = ksub.add_parser("reflect", help="does change of base reflect"
                                              " centralisation")
    reflect.add_argument("--file", required=True, metavar="PATH")
    _add_common(reflect)
    reflect.set_defaults(handler=_cmd_check_reflect)

    examples = top.add_parser("examples", help="replay recorded instances")
    esub = examples.add_subparsers(dest="sub_command", required=True)
    run = esub.add_parser("run", help="recompute a bundled example")
    run.add_argument("name", choices=EXAMPLE_NAMES + ("all",))
    _add_common(run)
    run.set_defaults(handler=_cmd_examples_run)

    return parser


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    registry = Registry()
    try:
        payload, complete, violated = args.handler(args, registry)
    except ValidationError as exc:
        print(f"commwb: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report = {
        "schema": 1,
        "command": argv,
        "inputs": registry.inputs,
        "result": _jsonable(payload),
        "complete": bool(complete),
        "wall_time_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    _write_report(report, args.format, args.out)
    return EXIT_VIOLATION if violated else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
