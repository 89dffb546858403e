"""End-to-end command-line behaviour: reports, exit codes, determinism."""

import json
import os
import re

import pytest

from commwb import cli
from commwb.fileio import algebra_to_json, canonical_dumps
from commwb.varieties import cyclic_group, symmetric_group

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
    # Z16^3 at bound 12 needs about 1.1e9 half-words; the size is checked
    # from the factor orders before anything is allocated
    code, out, err = _run(capsys, "commutator", "ternary", "--algebra",
                          "Z16", "--sub", "1", "--sub", "1", "--sub", "1",
                          "--strategy", "word-oracle", "--word-bound", "12")
    assert code == 2
    assert out == ""
    assert "bound 12 needs 1,093,500,000 half-words" in err
    # few rows, but deletion words of 22 syllables overflow the packed key
    code, out, err = _run(capsys, "commutator", "ternary", "--algebra",
                          "Z2", "--sub", "1", "--sub", "1", "--sub", "1",
                          "--strategy", "word-oracle", "--word-bound", "44")
    assert code == 2
    assert "do not fit a 64-bit key" in err


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


def test_check_sh_and_reflect(capsys):
    code, report = _run_json(capsys, "check", "sh", "--algebra", "Z6",
                             "--cong", "0~1", "--cong", "0~2")
    assert code == 0 and report["result"]["instance_satisfies"] is True
    code, report = _run_json(capsys, "check", "reflect", "--file",
                             os.path.join(FIXTURES, "reflect-basic.json"))
    assert code == 0 and report["result"]["instance_satisfies"] is True


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


def test_exclusive_input_flags(capsys, tmp_path):
    code, _, err = _run(capsys, "algebra", "verify")
    assert code == 2 and "exactly one of --file or --algebra" in err
    code, _, err = _run(capsys, "check", "w")
    assert code == 2 and "exactly one of --cospan or --file" in err


def test_unknown_subcommand_is_a_parser_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["commutator", "nope"])
    assert info.value.code == 2
