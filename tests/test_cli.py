"""End-to-end command-line behaviour: reports, exit codes, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from commwb import _kernel_search as kernel_search, cli, conditions
from commwb._kernel_search import ternary_kernel_words
from commwb.conditions import AdmissibleDiagram
from commwb.core import (ValidationError, generate_subuniverse, identity_hom,
                         zero_hom)
from commwb.fileio import algebra_to_json, canonical_dumps, diagram_to_json
from commwb.varieties import builtin_library, cyclic_group, symmetric_group
from test_core import _not_quite_groups

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "commwb", "fixtures")


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# the three canonical invocations


def test_examples_run_counterexample_exits_one(capsys):
    code, out, err = _run(capsys, "examples", "run", "hslat-ssh")
    assert code == 1
    assert "hypothesis true, conclusion false" in out
    assert "verdict_satisfies: false" in out
    assert err == ""


def test_self_commuting_subgroup_exits_zero(capsys):
    code, out, _ = _run(capsys, "commutator", "huq", "--algebra", "S3",
                        "--sub", "(12)", "--sub", "(12)")
    assert code == 0
    assert "cooperator_exists: true" in out
    assert "commutator: {e}" in out


def test_broken_file_exits_two_with_location(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = _run(capsys, "algebra", "verify", "--file", str(path))
    assert code == 2
    assert out == ""
    assert "commwb: error:" in err
    assert "not valid JSON (line 1" in err


# ---------------------------------------------------------------------------
# report shape


def test_json_report_schema_and_inputs(capsys):
    code, report = _run_json(capsys, "commutator", "higgins", "--algebra",
                             "S3", "--sub", "(12)", "--sub", "(13)")
    assert code == 0
    assert report["schema"] == 1
    assert report["command"][:3] == ["commutator", "higgins", "--algebra"]
    (rec,) = report["inputs"]
    assert rec["name"] == "S3" and len(rec["sha256"]) == 64
    assert report["result"]["commutator"] == ["e", "(123)", "(132)"]
    assert report["complete"] is True
    assert isinstance(report["wall_time_ms"], float)


def test_json_reports_are_byte_identical_modulo_wall_time(capsys):
    argv = ("commutator", "smith", "--algebra", "S3",
            "--cong", "e~(12)", "--cong", "e~(123)", "--format", "json")
    code1 = cli.main(list(argv))
    first = capsys.readouterr().out
    code2 = cli.main(list(argv))
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    scrub = re.compile(r'"wall_time_ms": [0-9.]+')
    assert scrub.sub("t", first) == scrub.sub("t", second)
    report = json.loads(first)
    assert report["result"]["blocks"] == [["e", "(123)", "(132)"],
                                          ["(23)", "(12)", "(13)"]]
    assert report["result"]["is_diagonal"] is False


def test_out_flag_writes_the_report_file(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, err = _run(capsys, "closure", "sub", "--algebra", "Z12",
                          "--gens", "4", "--format", "json",
                          "--out", str(dest))
    assert code == 0 and out == "" and err == ""
    report = json.loads(dest.read_text())
    assert report["result"]["closure"] == ["0", "4", "8"]


# ---------------------------------------------------------------------------
# strategies and the word bound


def test_ternary_defaults_to_group_fast_on_groups(capsys):
    code, report = _run_json(capsys, "commutator", "ternary", "--algebra",
                             "S3", "--sub", "(12)", "--sub", "(12)",
                             "--sub", "(123)")
    assert code == 0
    assert report["result"]["strategy"] == "group-fast"
    assert report["result"]["commutator"] == ["e", "(123)", "(132)"]
    assert report["complete"] is True


def test_word_bound_env_fallback(capsys):
    code, report = _run_json(capsys, "commutator", "ternary", "--algebra",
                             "S3", "--sub", "(12)", "--sub", "(12)",
                             "--sub", "(123)", "--strategy", "word-oracle",
                             "--word-bound", "8")
    assert report["result"]["strategy"] == "word-oracle(8)"
    assert report["result"]["commutator"] == ["e"]


def test_commands_that_search_no_words_ignore_the_environment(
        capsys, monkeypatch):
    commands = (("check", "w", "--cospan", "paper/s3-w"),
                ("commutator", "weighted", "--cospan", "paper/s3-w",
                 "--strategy", "ssh-kernel", "--profile", "groups"))
    for argv in commands:
        monkeypatch.delenv("COMMWB_WORD_BOUND", raising=False)
        code, usual = _run_json(capsys, *argv)
        monkeypatch.setenv("COMMWB_WORD_BOUND", "ten")
        again_code, again = _run_json(capsys, *argv)
        assert code == again_code == 1
        for report in (usual, again):
            del report["wall_time_ms"]
        assert again == usual


def test_weighted_takes_no_word_bound(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["commutator", "weighted", "--cospan", "paper/s3-w-zero",
                  "--word-bound", "10"])
    assert info.value.code == 2
    assert "--word-bound" in capsys.readouterr().err


def test_word_oracle_refuses_an_oversized_search(capsys):
    # Z16^3 at bound 12 stores half-words of up to 5 syllables, 36,450,000
    # of them at the deepest level; the size is checked from the factor
    # orders before anything is allocated
    code, out, err = _run(capsys, "commutator", "ternary", "--algebra",
                          "Z16", "--sub", "1", "--sub", "1", "--sub", "1",
                          "--strategy", "word-oracle", "--word-bound", "12")
    assert code == 2
    assert out == ""
    assert "bound 12 needs 36,450,000 half-words of 5 syllables" in err
    # few rows, but deletion words of 22 syllables overflow the packed key
    code, out, err = _run(capsys, "commutator", "ternary", "--algebra",
                          "Z2", "--sub", "1", "--sub", "1", "--sub", "1",
                          "--strategy", "word-oracle", "--word-bound", "44")
    assert code == 2
    assert "do not fit a 64-bit key" in err


def test_word_oracle_refusal_stays_short_at_a_huge_bound(capsys):
    # the half-word count of three order-2 factors doubles with each
    # syllable; it is no longer counted once a level passes the limit, so
    # the message does not print a number of thousands of digits
    v4 = builtin_library().algebras["V4"]
    subs = [generate_subuniverse(v4, (i,)) for i in (1, 2, 3)]
    with pytest.raises(ValidationError) as err:
        ternary_kernel_words(subs, 20000)
    assert "more than 8,000,000 half-words" in str(err.value)
    assert len(str(err.value)) < 200
    code, out, err = _run(capsys, "commutator", "ternary", "--algebra",
                          "V4", "--sub", "b", "--sub", "a", "--sub", "ab",
                          "--strategy", "word-oracle", "--word-bound",
                          "20000")
    assert code == 2
    assert out == ""
    assert "needs more than 8,000,000 half-words" in err
    assert len(err) < 200


def test_word_oracle_refuses_more_words_than_the_byte_limit(
        monkeypatch, capsys, empty_word_cache):
    # the three order-2 subgroups of V4 have 60 kernel words at bound 12,
    # each charged 16 * (1 + 2 * 12) = 400 bytes; the search passes the
    # half-word check, so only the words' bytes refuse it
    v4 = builtin_library().algebras["V4"]
    subs = [generate_subuniverse(v4, (i,)) for i in (1, 2, 3)]
    monkeypatch.setattr(kernel_search, "MAX_WORD_BYTES", 60 * 400 - 1)
    with pytest.raises(ValidationError,
                       match="finds at least 60 kernel words .* the limit of"
                             " 23,999 bytes; lower the word bound"):
        ternary_kernel_words(subs, 12)
    code, out, err = _run(capsys, "commutator", "ternary", "--algebra",
                          "V4", "--sub", "b", "--sub", "a", "--sub", "ab",
                          "--strategy", "word-oracle", "--word-bound", "12")
    assert code == 2 and out == ""
    assert "finds at least 60 kernel words" in err
    assert empty_word_cache.entries == {}
    monkeypatch.setattr(kernel_search, "MAX_WORD_BYTES", 60 * 400)
    assert len(ternary_kernel_words(subs, 12).codes) == 60


# ---------------------------------------------------------------------------
# verdict-bearing commands


def test_huq_conflict_exits_one_with_conflict_payload(capsys):
    code, report = _run_json(capsys, "commutator", "huq", "--algebra", "S3",
                             "--sub", "(12)", "--sub", "(13)")
    assert code == 1
    assert report["result"]["cooperator_exists"] is False
    pair = report["result"]["conflict"]["pair"]
    values = report["result"]["conflict"]["values"]
    assert len(pair) == 2 and len(values) == 2 and values[0] != values[1]


def test_check_w_exit_codes_and_completeness(capsys):
    code, report = _run_json(capsys, "check", "w", "--cospan", "paper/s3-w")
    assert code == 1
    assert report["result"]["instance_satisfies"] is False

    code, report = _run_json(capsys, "check", "w", "--cospan", "paper/s3-w",
                             "--strategy", "word-oracle",
                             "--word-bound", "8")
    assert code == 0
    assert report["result"]["instance_satisfies"] is True
    assert report["complete"] is False


def test_check_ssh_on_catalogue_diagrams(capsys):
    code, report = _run_json(capsys, "check", "ssh", "--diagram",
                             "groups/z12-mod3-split")
    assert code == 0 and report["result"]["instance_satisfies"] is True
    code, report = _run_json(capsys, "check", "ssh", "--file",
                             os.path.join(FIXTURES, "hslat-admissible.json"))
    assert code == 1
    assert report["result"]["witnesses"][0][0] == "fill-in-conflict"


def test_check_ssh_refuses_a_pullback_above_the_fill_in_limit(
        capsys, tmp_path, monkeypatch):
    # Z6 x Z6 over Z1: the kernel images commute, so the fill-in search
    # runs, on a pullback of 36 elements where mul takes 36^2 tuples
    z6, z1 = cyclic_group(6), cyclic_group(1)
    d = AdmissibleDiagram(
        f=zero_hom(z6, z1), r=zero_hom(z1, z6), g=zero_hom(z6, z1),
        s=zero_hom(z1, z6), alpha=identity_hom(z6), beta=zero_hom(z1, z6),
        gamma=identity_hom(z6))
    path = tmp_path / "z6-z6.json"
    path.write_text(canonical_dumps(diagram_to_json(d)))
    monkeypatch.setattr(conditions, "MAX_CLOSURE_KEYS", 36 ** 2 - 1)
    code, out, err = _run(capsys, "check", "ssh", "--file", str(path))
    assert code == 2 and out == ""
    assert "tuples, above MAX_CLOSURE_KEYS = 1,295" in err
    monkeypatch.setattr(conditions, "MAX_CLOSURE_KEYS", 36 ** 2)
    code, report = _run_json(capsys, "check", "ssh", "--file", str(path))
    assert code == 0 and report["result"]["instance_satisfies"] is True


def test_check_sh_and_reflect(capsys):
    code, report = _run_json(capsys, "check", "sh", "--algebra", "Z6",
                             "--cong", "0~1", "--cong", "0~2")
    assert code == 0 and report["result"]["instance_satisfies"] is True
    code, report = _run_json(capsys, "check", "reflect", "--file",
                             os.path.join(FIXTURES, "reflect-basic.json"))
    assert code == 0 and report["result"]["instance_satisfies"] is True


def _malformed_file(tmp_path, fixture, edit):
    """The fixture file with ``edit`` applied to its JSON, written anew."""
    with open(os.path.join(FIXTURES, fixture)) as fh:
        obj = json.load(fh)
    edit(obj)
    path = tmp_path / fixture
    path.write_text(json.dumps(obj))
    return str(path)


def _points_instance(obj, proj, sect):
    obj["mode"], obj["carrier"] = "points", {"proj": proj, "sect": sect}


@pytest.mark.parametrize("argv, fixture, edit, message", [
    (("commutator", "weighted"), "s3-weighted-zero.json",
     lambda o: o["homs"].__setitem__("x", [0, 9]),
     ".homs.x: value 9 out of range for a codomain of 6 elements"),
    (("check", "ssh"), "hslat-admissible.json",
     lambda o: o["homs"].__setitem__("gamma", [0, 2, 2, 9]),
     ".homs.gamma: value 9 out of range"),
    (("check", "ssh"), "hslat-admissible.json",
     lambda o: o["homs"].__setitem__("f", [0, 1]),
     ".homs.f: expected 3 entries, got 2"),
    (("check", "reflect"), "reflect-basic.json",
     lambda o: o.__setitem__("p", [0, -1]),
     ".p: value -1 out of range"),
    (("check", "reflect"), "reflect-basic.json",
     lambda o: o.__setitem__("carrier", [0, 1, 0]),
     ".carrier: expected 4 entries, got 3"),
    (("check", "reflect"), "reflect-basic.json",
     lambda o: _points_instance(o, [0, 1, 0], [0, 2]),
     ".carrier.proj: expected 4 entries, got 3"),
    (("check", "reflect"), "reflect-basic.json",
     lambda o: _points_instance(o, [0, 1, 0, 1], [0]),
     ".carrier.sect: expected 2 entries, got 1"),
], ids=["cospan-range", "diagram-range", "diagram-length", "p-range",
        "carrier-length", "proj-length", "sect-length"])
def test_a_malformed_map_in_a_file_exits_two(capsys, tmp_path, argv,
                                             fixture, edit, message):
    path = _malformed_file(tmp_path, fixture, edit)
    code, out, err = _run(capsys, *argv, "--file", path)
    assert code == 2 and out == ""
    # the message names the file and the field
    assert err.startswith(f"commwb: error: {path}{message}")


@pytest.mark.parametrize("mode", ["bogus", ["points"]])
def test_check_reflect_refuses_an_unknown_mode(capsys, tmp_path, mode):
    # with a points-shaped carrier: read as basic, the carrier took the blame
    def edit(obj):
        _points_instance(obj, [0, 1, 0, 1], [0, 2])
        obj["mode"] = mode

    path = _malformed_file(tmp_path, "reflect-basic.json", edit)
    code, out, err = _run(capsys, "check", "reflect", "--file", path)
    assert code == 2 and out == ""
    assert err.startswith(f"commwb: error: {path}.mode: expected one of"
                          " ('points', 'basic')")


def test_weighted_strategies_and_the_non_proper_cospan(capsys):
    code, out, err = _run(capsys, "commutator", "weighted", "--cospan",
                          "paper/s3-w")
    assert code == 2
    assert "not w-proper" in err
    code, report = _run_json(capsys, "commutator", "weighted", "--cospan",
                             "paper/s3-w", "--strategy", "ssh-kernel",
                             "--profile", "groups")
    assert code == 1
    assert report["result"]["commute"] is False
    assert report["result"]["commutator"] == ["e", "(123)", "(132)"]
    code, report = _run_json(capsys, "commutator", "weighted", "--cospan",
                             "paper/s3-w-zero")
    assert code == 0 and report["result"]["commute"] is True


def test_examples_selector_exit_codes(capsys):
    code, report = _run_json(capsys, "examples", "run", "s3-w")
    assert code == 1
    assert report["result"]["s3-w"]["verdict_satisfies"] is False
    code, report = _run_json(capsys, "examples", "run", "groups-phi")
    assert code == 0
    assert len(report["result"]["groups-phi"]["agreeing_diagrams"]) == 6


# ---------------------------------------------------------------------------
# closures and verification


def test_wnormal_closure_with_and_without_weight(capsys):
    code, report = _run_json(capsys, "closure", "wnormal", "--algebra",
                             "S3", "--sub", "(12)")
    assert code == 0
    assert len(report["result"]["closure"]) == 6
    code, report = _run_json(capsys, "closure", "wnormal", "--algebra",
                             "S3", "--sub", "(12)", "--weight", "e")
    assert report["result"]["closure"] == ["e", "(12)"]


def test_closure_cong_blocks(capsys):
    code, report = _run_json(capsys, "closure", "cong", "--algebra", "Z12",
                             "--pairs", "0~4")
    assert code == 0
    assert report["result"]["blocks"][0] == ["0", "4", "8"]


def test_algebra_verify_against_profile(capsys, tmp_path):
    code, report = _run_json(capsys, "algebra", "verify", "--algebra", "S3",
                             "--profile", "groups")
    assert code == 0
    assert report["result"]["profile"]["identities_hold"] is True

    broken = algebra_to_json(cyclic_group(4))
    broken["tables"]["inv"] = [0, 2, 1, 3]      # not the group inverse
    path = tmp_path / "skew.json"
    path.write_text(canonical_dumps(broken))
    code, report = _run_json(capsys, "algebra", "verify", "--file",
                             str(path), "--profile", "groups")
    assert code == 1
    failures = report["result"]["profile"]["failures"]
    assert failures and "assignment" in failures[0]


def _profile_file(tmp_path, **fields):
    with open(os.path.join(FIXTURES, "groups-profile.json")) as fh:
        profile = json.load(fh)
    profile.update(fields)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    return str(path)


@pytest.mark.parametrize("field, value", [("ssh_certified", "false"),
                                          ("ssh_certified", 1),
                                          ("malcev_witness", 5)])
def test_mistyped_profile_fields_are_input_errors(capsys, tmp_path, field,
                                                  value):
    path = _profile_file(tmp_path, **{field: value})
    code, out, err = _run(capsys, "commutator", "weighted", "--cospan",
                          "paper/s3-w", "--strategy", "ssh-kernel",
                          "--profile", path)
    assert code == 2 and out == ""
    assert f"commwb: error: {path}.{field}:" in err


@pytest.mark.parametrize("identity", ["mul(x0, x1 = x0", "foo(x0) = x0"])
def test_malformed_profile_identity_is_an_input_error(capsys, tmp_path,
                                                      identity):
    path = _profile_file(tmp_path, identities=[identity])
    code, out, err = _run(capsys, "algebra", "verify", "--algebra", "S3",
                          "--profile", path)
    assert code == 2 and out == ""
    assert err.startswith("commwb: error:")


def test_ternary_default_needs_group_arities_not_just_names(capsys,
                                                           tmp_path):
    # Z3 with mul/2 and a binary "inv" (subtraction): group op names, but
    # not a group-shaped signature, so the default is term-depth
    alg = algebra_to_json(cyclic_group(3))
    alg["signature"] = [{"op": "mul", "arity": 2},
                        {"op": "inv", "arity": 2},
                        {"op": "e", "arity": 0}]
    alg["tables"]["inv"] = [(a - b) % 3 for a in range(3) for b in range(3)]
    path = tmp_path / "z3-sub.json"
    path.write_text(canonical_dumps(alg))
    code, report = _run_json(capsys, "commutator", "ternary", "--algebra",
                             str(path), "--sub", "1", "--sub", "1",
                             "--sub", "1")
    assert code == 0
    assert report["result"]["strategy"] == "term-depth(2)"
    assert report["result"]["commutator"] == ["0"]


def _write_algebra(tmp_path, name, alg):
    path = tmp_path / name
    path.write_text(canonical_dumps(alg))
    return str(path)


def test_ternary_on_tables_that_are_not_groups(capsys, tmp_path):
    # Z4 with a wrong inv, and the loop that is not associative: both have
    # the group's operation names, and group-fast would answer wrongly
    skew = algebra_to_json(cyclic_group(4))
    skew["tables"]["inv"] = [0, 2, 1, 3]
    loop = algebra_to_json(_not_quite_groups()["not associative"][0])
    for name, alg, subs in (("skew.json", skew, ("1", "1", "2")),
                            ("loop.json", loop, ("1", "2", "3"))):
        path = _write_algebra(tmp_path, name, alg)
        argv = ["commutator", "ternary", "--algebra", path]
        for sub in subs:
            argv += ["--sub", sub]
        code, report = _run_json(capsys, *argv)
        assert code == 0
        assert report["result"]["strategy"] == "term-depth(2)"
        assert report["complete"] is False
        for strategy in ("group-fast", "word-oracle"):
            code, out, err = _run(capsys, *argv, "--strategy", strategy)
            assert code == 2 and out == ""
            assert "needs a group" in err


def test_ternary_default_is_group_fast_on_a_group_whatever_its_names(
        capsys, tmp_path):
    alg = algebra_to_json(cyclic_group(3))
    names = {"mul": "add", "inv": "neg", "e": "zero"}
    alg["signature"] = [{"op": names[o["op"]], "arity": o["arity"]}
                        for o in alg["signature"]]
    alg["basepoint_op"] = "zero"
    alg["tables"] = {names[op]: t for op, t in alg["tables"].items()}
    path = _write_algebra(tmp_path, "z3-add.json", alg)
    code, report = _run_json(capsys, "commutator", "ternary", "--algebra",
                             path, "--sub", "1", "--sub", "1", "--sub", "1")
    assert code == 0
    assert report["result"]["strategy"] == "group-fast"
    assert report["result"]["commutator"] == ["0"]
    assert report["complete"] is True


# ---------------------------------------------------------------------------
# argument validation


def test_wrong_sub_count_is_an_input_error(capsys):
    code, out, err = _run(capsys, "commutator", "huq", "--algebra", "S3",
                          "--sub", "(12)")
    assert code == 2
    assert "expected exactly 2 --sub arguments" in err


def test_unknown_algebra_token_is_an_input_error(capsys):
    code, out, err = _run(capsys, "commutator", "higgins", "--algebra",
                          "Zoo", "--sub", "e", "--sub", "e")
    assert code == 2
    assert "unknown algebra 'Zoo'" in err


def test_unknown_label_is_an_input_error(capsys):
    code, out, err = _run(capsys, "closure", "sub", "--algebra", "S3",
                          "--gens", "(77)")
    assert code == 2
    assert "--gens" in err


@pytest.mark.parametrize("argv, what", [
    (("commutator", "smith", "--algebra", "S3", "--cong", "e~zz",
      "--cong", "e~(12)"), "--cong #1"),
    (("commutator", "smith", "--algebra", "S3", "--cong", "e~(12)",
      "--cong", "zz~e"), "--cong #2"),
    (("closure", "cong", "--algebra", "S3", "--pairs", "e~(12);zz~e"),
     "--pairs"),
])
def test_unknown_label_in_a_pair_names_the_argument(capsys, argv, what):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{what}: 'zz' names no element of S3" in err


@pytest.mark.parametrize("argv, closure", [
    (("closure", "sub", "--gens", "(1/2,1),(1,1)"), ["(1/2,1)", "(1,1)"]),
    (("closure", "sub", "--gens", "(0,1), (1,1/2)"),
     ["(0,1/2)", "(0,1)", "(1,1/2)", "(1,1)"]),
    (("closure", "wnormal", "--sub", "(1/2,1)"), ["(1/2,1)", "(1,1)"]),
])
def test_element_lists_keep_the_commas_inside_a_label(capsys, argv, closure):
    # a product carrier's labels are pairs: only commas outside
    # parentheses separate elements
    code, report = _run_json(capsys, *argv, "--algebra", "chain3xchain3")
    assert code == 0 and report["result"]["closure"] == closure


def test_exclusive_input_flags(capsys, tmp_path):
    code, _, err = _run(capsys, "algebra", "verify")
    assert code == 2 and "exactly one of --file or --algebra" in err
    code, _, err = _run(capsys, "check", "w")
    assert code == 2 and "exactly one of --cospan or --file" in err


def test_unknown_subcommand_is_a_parser_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["commutator", "nope"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ("commutator", "ternary", "--algebra", "S3",
     "--sub", "(12)", "--sub", "(12)", "--sub", "(123)"),
    ("commutator", "smith", "--algebra", "S3",
     "--cong", "e~(12)", "--cong", "e~(123)"),
    ("examples", "run", "hslat-ssh"),
    ("check", "ssh", "--diagram", "groups/s3-s3-full-nonabelian"),
])
def test_a_cold_call_does_not_import_numpy_ma(argv):
    # np.unique imports numpy.ma on its first call, 12-20 ms of a cold call
    code = ("import sys; from commwb import cli; cli.main(sys.argv[1:]); "
            "print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "False"


# ---------------------------------------------------------------------------
# the parser

# Every flag of every subcommand, frozen: (option strings, dest, required,
# action, default, choices, type, metavar).  Help texts are left out.
_FORMAT = (("--format",), "format", False, "store", "text", ("json", "text"),
           None, None)
_OUT = (("--out",), "out", False, "store", None, None, None, "FILE")
_TERNARY_STRATEGY = (("--strategy",), "strategy", False, "store", None,
                     ("group-fast", "word-oracle", "term-depth"), None, None)
_FLAGS = {
    "algebra verify": [
        (("--file",), "file", False, "store", None, None, None, "PATH"),
        (("--algebra",), "algebra", False, "store", None, None, None, "NAME"),
        (("--profile",), "profile", False, "store", None, None, None, "NAME"),
    ],
    "commutator huq": [
        (("--algebra",), "algebra", True, "store", None, None, None, None),
        (("--sub",), "sub", False, "append", None, None, None, "GENS"),
    ],
    "commutator higgins": [
        (("--algebra",), "algebra", True, "store", None, None, None, None),
        (("--sub",), "sub", False, "append", None, None, None, "GENS"),
    ],
    "commutator ternary": [
        (("--algebra",), "algebra", True, "store", None, None, None, None),
        (("--sub",), "sub", False, "append", None, None, None, "GENS"),
        _TERNARY_STRATEGY,
        (("--word-bound",), "word_bound", False, "store", None, None, "int",
         "N"),
        (("--term-depth",), "term_depth", False, "store", None, None, "int",
         "N"),
    ],
    "commutator smith": [
        (("--algebra",), "algebra", True, "store", None, None, None, None),
        (("--cong",), "cong", False, "append", None, None, None, "PAIRS"),
    ],
    "commutator weighted": [
        (("--cospan",), "cospan", False, "store", None, None, None, "NAME"),
        (("--file",), "file", False, "store", None, None, None, "PATH"),
        (("--profile",), "profile", False, "store", None, None, None, "NAME"),
        (("--strategy",), "strategy", False, "store", None,
         ("proper-commutators", "ssh-kernel"), None, None),
        (("--term-depth",), "term_depth", False, "store", None, None, "int",
         "N"),
    ],
    "closure sub": [
        (("--algebra",), "algebra", True, "store", None, None, None, None),
        (("--gens",), "gens", True, "store", None, None, None, "ELEMS"),
    ],
    "closure cong": [
        (("--algebra",), "algebra", True, "store", None, None, None, None),
        (("--pairs",), "pairs", True, "store", None, None, None, "PAIRS"),
    ],
    "closure wnormal": [
        (("--algebra",), "algebra", True, "store", None, None, None, None),
        (("--sub",), "sub", True, "store", None, None, None, "GENS"),
        (("--weight",), "weight", False, "store", None, None, None, "GENS"),
    ],
    "check sh": [
        (("--algebra",), "algebra", True, "store", None, None, None, None),
        (("--cong",), "cong", False, "append", None, None, None, "PAIRS"),
    ],
    "check ssh": [
        (("--diagram",), "diagram", False, "store", None, None, None, "NAME"),
        (("--file",), "file", False, "store", None, None, None, "PATH"),
    ],
    "check w": [
        (("--cospan",), "cospan", False, "store", None, None, None, "NAME"),
        (("--file",), "file", False, "store", None, None, None, "PATH"),
        _TERNARY_STRATEGY,
        (("--word-bound",), "word_bound", False, "store", None, None, "int",
         "N"),
        (("--term-depth",), "term_depth", False, "store", None, None, "int",
         "N"),
    ],
    "check reflect": [
        (("--file",), "file", True, "store", None, None, None, "PATH"),
    ],
    "examples run": [
        ((), "name", True, "store", None,
         ("hslat-ssh", "s3-w", "groups-phi", "all"), None, None),
    ],
}


def _verb_parsers() -> dict:
    """``"group verb"`` to the parser of that subcommand."""
    def choices(parser):
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return sub.choices
    return {f"{group} {verb}": verb_parser
            for group, group_parser in choices(cli.build_parser()).items()
            for verb, verb_parser in choices(group_parser).items()}


def _flag(action) -> tuple:
    return (tuple(action.option_strings), action.dest, action.required,
            type(action).__name__.strip("_")[:-len("Action")].lower(),
            action.default,
            tuple(action.choices) if action.choices else None,
            getattr(action.type, "__name__", None), action.metavar)


def test_every_subcommand_keeps_its_flags():
    parsers = _verb_parsers()
    assert sorted(parsers) == sorted(_FLAGS)
    for name, parser in parsers.items():
        flags = [_flag(a) for a in parser._actions
                 if not isinstance(a, argparse._HelpAction)]
        assert flags == _FLAGS[name] + [_FORMAT, _OUT], name


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_every_subcommand_prints_its_help(capsys, command):
    # argparse formats help strings with %, and reports a stray % only
    # when it prints the help
    with pytest.raises(SystemExit) as info:
        cli.main([*command.split(), "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: commwb {command}")


def test_every_handler_is_bound_to_exactly_one_subcommand():
    bound = [parser.get_default("handler").__name__
             for parser in _verb_parsers().values()]
    assert sorted(bound) == sorted(name for name in vars(cli)
                                   if name.startswith("_cmd_"))


def test_repeated_labels_in_an_algebra_file_are_an_input_error(capsys,
                                                               tmp_path):
    alg = algebra_to_json(cyclic_group(2))
    alg["labels"] = ["x", "x"]
    path = _write_algebra(tmp_path, "twice.json", alg)
    code, out, err = _run(capsys, "closure", "sub", "--algebra", path,
                          "--gens", "x")
    assert code == 2 and out == ""
    assert "label 'x' names more than one element" in err
