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
from .core import (Congruence, FinAlgebra, Subuniverse, ValidationError,
                   generate_congruence, generate_subuniverse, identity_hom)
from .fileio import Registry, canonical_dumps
from .varieties import verify_identities

__all__ = ["main"]

EXIT_OK, EXIT_VIOLATION, EXIT_ERROR = 0, 1, 2


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_elements(alg: FinAlgebra, text: str, what: str) -> list[int]:
    """Labels separated by commas outside parentheses, since a product
    carrier's labels are pairs such as ``(1/2,1)``."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    pieces.append(text[start:])
    return [alg.label_index(piece.strip(), what) for piece in pieces
            if piece.strip()]


def _sub_from_spec(alg: FinAlgebra, text: str, what: str) -> Subuniverse:
    return generate_subuniverse(alg, _parse_elements(alg, text, what))


def _cong_from_spec(alg: FinAlgebra, text: str, what: str) -> Congruence:
    pairs = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        sides = piece.split("~")
        if len(sides) != 2:
            raise ValidationError(
                f"{what}: expected label~label, got {piece!r}")
        pairs.append(tuple(alg.label_index(side.strip(), what)
                           for side in sides))
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


def _repeated(alg: FinAlgebra, specs, flag: str, want: int, read) -> list:
    """The ``want`` values of a repeated flag, each read by ``read``."""
    specs = specs or []
    if len(specs) != want:
        raise ValidationError(
            f"expected exactly {want} {flag} arguments, got {len(specs)}")
    return [read(alg, s, f"{flag} #{i + 1}") for i, s in enumerate(specs)]


def _one_of(args, first: str, second: str):
    """The value of whichever of two exclusive flags was given."""
    a, b = getattr(args, first), getattr(args, second)
    if bool(a) == bool(b):
        raise ValidationError(f"{args.group} {args.sub_command}: give exactly"
                              f" one of --{first} or --{second}")
    return a or b


def _verdict(v):
    """A condition checker's report: (payload, complete, violated)."""
    payload = {
        "condition": v.condition,
        "hypothesis_holds": v.hypothesis_holds,
        "conclusion_holds": v.conclusion_holds,
        "instance_satisfies": v.instance_satisfies,
        "witnesses": _jsonable(v.witnesses),
    }
    return payload, v.complete, not v.instance_satisfies


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, complete, violated)


def _cmd_algebra_verify(args, reg: Registry):
    _one_of(args, "file", "algebra")
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


def _cmd_commutator_huq(args, reg: Registry):
    alg = reg.algebra(args.algebra)
    k, l = _repeated(alg, args.sub, "--sub", 2, _sub_from_spec)
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
    k, l = _repeated(alg, args.sub, "--sub", 2, _sub_from_spec)
    payload = {"commutator": _members(higgins_binary(alg, k, l))}
    return payload, True, False


def _cmd_commutator_ternary(args, reg: Registry):
    alg = reg.algebra(args.algebra)
    k, l, m = _repeated(alg, args.sub, "--sub", 3, _sub_from_spec)
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
    theta = smith(alg, *_repeated(alg, args.cong, "--cong", 2,
                                  _cong_from_spec))
    payload = {
        "blocks": _blocks(theta),
        "is_diagonal": theta.is_delta(),
    }
    return payload, True, False


def _cmd_commutator_weighted(args, reg: Registry):
    c = reg.cospan(_one_of(args, "cospan", "file"))
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
    return _verdict(check_sh_instance(
        alg, *_repeated(alg, args.cong, "--cong", 2, _cong_from_spec)))


def _cmd_check_ssh(args, reg: Registry):
    return _verdict(check_ssh_instance(
        reg.diagram(_one_of(args, "diagram", "file"))))


def _cmd_check_w(args, reg: Registry):
    return _verdict(check_w_instance(
        reg.cospan(_one_of(args, "cospan", "file")),
        ternary_strategy=args.strategy, word_bound=args.word_bound,
        term_depth=args.term_depth))


def _cmd_check_reflect(args, reg: Registry):
    return _verdict(check_reflection_instance(*reg.reflection(args.file)))


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


# Flags that several subcommands share, as (flag, add_argument keywords).
_ALGEBRA = ("--algebra", {"required": True})
_SUBS = ("--sub", {"action": "append", "metavar": "GENS"})
_CONGS = ("--cong", {"action": "append", "metavar": "PAIRS"})
_FILE = ("--file", {"metavar": "PATH"})
_COSPAN = ("--cospan", {"metavar": "NAME"})
_TERM_DEPTH = ("--term-depth", {"type": int, "metavar": "N", "help":
                                "nesting budget for the term strategy"})
_TERNARY = (("--strategy", {"choices": TERNARY_STRATEGIES}),
            ("--word-bound", {"type": int, "metavar": "N", "help":
                              "syllable budget for the word-oracle strategy"
                              " (default: built-in)"}),
            _TERM_DEPTH)
_REPORT = (("--format", {"choices": ("json", "text"), "default": "text",
                         "help": "report format (default: text)"}),
           ("--out", {"metavar": "FILE",
                      "help": "write the report here instead of stdout"}))

# (group, help, ((verb, help, handler, flags), ...)); every verb also takes
# the _REPORT flags.
_COMMANDS = (
    ("algebra", "algebra file utilities", (
        ("verify", "validate a file, optionally against a variety profile",
         _cmd_algebra_verify,
         (_FILE, ("--algebra", {"metavar": "NAME"}),
          ("--profile", {"metavar": "NAME"}))),
    )),
    ("commutator", "commutator computations", (
        ("huq", "cooperator existence for two subalgebras",
         _cmd_commutator_huq, (_ALGEBRA, _SUBS)),
        ("higgins", "binary commutator subuniverse",
         _cmd_commutator_higgins, (_ALGEBRA, _SUBS)),
        ("ternary", "ternary commutator subuniverse",
         _cmd_commutator_ternary, (_ALGEBRA, _SUBS, *_TERNARY)),
        ("smith", "centralising congruence of two congruences",
         _cmd_commutator_smith, (_ALGEBRA, _CONGS)),
        ("weighted", "do two legs commute over a weight",
         _cmd_commutator_weighted,
         (_COSPAN, _FILE,
          ("--profile", {"metavar": "NAME", "help":
                         "variety profile (needed by ssh-kernel)"}),
          ("--strategy", {"choices": WEIGHTED_STRATEGIES}), _TERM_DEPTH)),
    )),
    ("closure", "closure computations", (
        ("sub", "generated subuniverse", _cmd_closure_sub,
         (_ALGEBRA, ("--gens", {"required": True, "metavar": "ELEMS"}))),
        ("cong", "generated congruence", _cmd_closure_cong,
         (_ALGEBRA, ("--pairs", {"required": True, "metavar": "PAIRS"}))),
        ("wnormal", "weighted normal closure", _cmd_closure_wnormal,
         (_ALGEBRA, ("--sub", {"required": True, "metavar": "GENS"}),
          ("--weight", {"metavar": "GENS", "help": "weight image generators"
                        " (default: whole algebra)"}))),
    )),
    ("check", "condition instance checkers", (
        ("sh", "do trivial normalisation commutators force centralising"
               " congruences", _cmd_check_sh, (_ALGEBRA, _CONGS)),
        ("ssh", "does a commuting kernel cospan admit a fill-in",
         _cmd_check_ssh, (("--diagram", {"metavar": "NAME"}), _FILE)),
        ("w", "is weighted commutation weight-independent here",
         _cmd_check_w, (_COSPAN, _FILE, *_TERNARY)),
        ("reflect", "does change of base reflect centralisation",
         _cmd_check_reflect,
         (("--file", {"required": True, "metavar": "PATH"}),)),
    )),
    ("examples", "replay recorded instances", (
        ("run", "recompute a bundled example", _cmd_examples_run,
         (("name", {"choices": EXAMPLE_NAMES + ("all",)}),)),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commwb",
        description="Commutator workbench over finite pointed algebras")
    top = parser.add_subparsers(dest="group", required=True)
    for group, group_help, verbs in _COMMANDS:
        sub = top.add_parser(group, help=group_help).add_subparsers(
            dest="sub_command", required=True)
        for verb, verb_help, handler, flags in verbs:
            p = sub.add_parser(verb, help=verb_help)
            for flag, options in flags + _REPORT:
                p.add_argument(flag, **options)
            p.set_defaults(handler=handler)
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
