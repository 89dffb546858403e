"""JSON round trips, location diagnostics, and the input registry."""

import json
import os
from functools import partial

import numpy as np
import pytest

from commwb.conditions import check_reflection_instance
from commwb.core import ValidationError
from commwb.fileio import (Registry, algebra_from_json, algebra_to_json,
                           canonical_dumps, cospan_from_json, cospan_to_json,
                           diagram_from_json, diagram_to_json, load_json_file,
                           profile_from_json, profile_to_json,
                           reflection_from_json, sha256_obj)
from commwb.varieties import cyclic_group, symmetric_group

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                        "commwb", "fixtures")


def _fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


# ---------------------------------------------------------------------------
# round trips


def test_algebra_round_trip_and_frozen_hash():
    s3 = symmetric_group(3)
    obj = algebra_to_json(s3)
    back = algebra_from_json(obj)
    assert back.name == s3.name and back.size == s3.size
    assert back.labels == s3.labels
    assert back.signature.ops == s3.signature.ops
    for op, _ in s3.signature.ops:
        assert np.array_equal(back.tables[op], s3.tables[op])
    assert sha256_obj(obj) == \
        "68fc7a06a493343acd4bfaf503b2ac9bc99ecb982d3526fec027dd1a55727c96"


def test_profile_round_trip(lib):
    prof = lib.profiles["groups"]
    back = profile_from_json(profile_to_json(prof))
    assert back.name == prof.name
    assert back.identities == prof.identities
    assert back.malcev_witness == prof.malcev_witness
    assert back.ssh_certified == prof.ssh_certified


def test_diagram_round_trip_preserves_gamma_violations(lib):
    d = lib.diagrams["paper/hslat-adm"]
    assert d.gamma.violations
    back = diagram_from_json(diagram_to_json(d), resolve=None)
    assert np.array_equal(back.gamma.map, d.gamma.map)
    assert back.gamma.violations == d.gamma.violations
    for role in ("f", "r", "g", "s", "alpha", "beta"):
        assert np.array_equal(getattr(back, role).map,
                              getattr(d, role).map)
        assert not getattr(back, role).violations


def test_cospan_round_trip(lib):
    c = lib.cospans["paper/s3-w"]
    back = cospan_from_json(cospan_to_json(c), resolve=None)
    for role in ("x", "y", "w"):
        assert np.array_equal(getattr(back, role).map,
                              getattr(c, role).map)


# ---------------------------------------------------------------------------
# diagnostics


def test_malformed_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "size": }\n')
    with pytest.raises(ValidationError, match=r"line 2, column 11"):
        load_json_file(str(path))


def test_wrong_table_length_names_the_operation():
    s3 = symmetric_group(3)
    obj = algebra_to_json(s3)
    obj["tables"]["mul"] = obj["tables"]["mul"][:-1]
    with pytest.raises(ValidationError,
                       match=r"tables\.mul: expected 36 entries .* got 35"):
        algebra_from_json(obj)


def test_missing_field_names_its_location():
    obj = algebra_to_json(symmetric_group(3))
    del obj["basepoint_op"]
    with pytest.raises(ValidationError,
                       match=r"missing required field 'basepoint_op'"):
        algebra_from_json(obj, where="stuff.json")


def test_bad_labels_and_bad_map_lengths(lib):
    s3 = symmetric_group(3)
    obj = algebra_to_json(s3)
    obj["labels"] = ["just-one"]
    with pytest.raises(ValidationError, match=r"labels: expected 6 strings"):
        algebra_from_json(obj)
    c = cospan_to_json(lib.cospans["paper/s3-w"])
    c["homs"]["x"] = [0]
    with pytest.raises(ValidationError,
                       match=r"cospan\.homs\.x: expected 2 entries, got 1"):
        cospan_from_json(c, resolve=None)


def test_json_booleans_are_not_integers():
    # true would pass for 1: a size and an arity that fit the tables
    z1 = algebra_to_json(cyclic_group(1))
    z1["size"] = True
    with pytest.raises(ValidationError,
                       match=r"algebra\.size: expected a positive integer"):
        algebra_from_json(z1)
    s3 = algebra_to_json(symmetric_group(3))
    s3["signature"][1]["arity"] = True
    assert s3["signature"][1]["op"] == "inv"
    with pytest.raises(ValidationError,
                       match=r"algebra\.signature\[1\]: need string 'op'"
                             r" and integer 'arity'"):
        algebra_from_json(s3)


@pytest.mark.parametrize("name", [["x"], {"a": 1}, [1], 3.5])
@pytest.mark.parametrize("kind", ["algebra", "profile", "diagram", "cospan"])
def test_a_name_that_is_not_a_string_is_refused(lib, kind, name):
    # str() would load ["x"] as an object named "['x']"
    obj, read = {
        "algebra": (algebra_to_json(symmetric_group(3)), algebra_from_json),
        "profile": (profile_to_json(lib.profiles["groups"]),
                    profile_from_json),
        "diagram": (diagram_to_json(lib.diagrams["paper/hslat-adm"]),
                    partial(diagram_from_json, resolve=None)),
        "cospan": (cospan_to_json(lib.cospans["paper/s3-w"]),
                   partial(cospan_from_json, resolve=None)),
    }[kind]
    obj["name"] = name
    with pytest.raises(ValidationError,
                       match=rf"^{kind}\.name: expected a string$"):
        read(obj)


def test_a_basepoint_op_that_is_not_a_string_names_its_field(lib):
    s3 = algebra_to_json(symmetric_group(3))
    s3["basepoint_op"] = ["e"]
    with pytest.raises(ValidationError,
                       match=r"^algebra\.basepoint_op: expected a string$"):
        algebra_from_json(s3)
    d = diagram_to_json(lib.diagrams["paper/hslat-adm"])
    d["algebras"]["B"]["basepoint_op"] = 1
    with pytest.raises(ValidationError, match=r"^diagram\.algebras\.B\."
                                              r"basepoint_op: expected"):
        diagram_from_json(d, resolve=None)
    groups = profile_to_json(lib.profiles["groups"])
    groups["basepoint_op"] = None
    with pytest.raises(ValidationError,
                       match=r"^profile\.basepoint_op: expected a string$"):
        profile_from_json(groups)
    # an absent name is still the empty one
    s3["basepoint_op"] = "e"
    del s3["name"]
    assert algebra_from_json(s3).name == ""


# ---------------------------------------------------------------------------
# registry


def test_registry_records_each_input_once(lib):
    reg = Registry(lib)
    reg.algebra("S3")
    reg.algebra("S3")
    reg.profile("groups")
    assert [rec["name"] for rec in reg.inputs] == ["S3", "profile:groups"]
    assert all(len(rec["sha256"]) == 64 for rec in reg.inputs)


def test_registry_file_fallback_hashes_raw_bytes(tmp_path, lib):
    s3 = symmetric_group(3)
    text = canonical_dumps(algebra_to_json(s3))
    path = tmp_path / "mine.json"
    path.write_text(text)
    reg = Registry(lib)
    alg = reg.algebra(str(path))
    assert alg.size == 6
    (rec,) = reg.inputs
    assert rec["name"] == str(path)
    assert rec["sha256"] == sha256_obj(algebra_to_json(s3))


def test_registry_unknown_tokens_raise_with_suggestions(lib):
    reg = Registry(lib)
    with pytest.raises(ValidationError, match=r"unknown algebra 'Zoo'"):
        reg.algebra("Zoo")
    with pytest.raises(ValidationError, match=r"catalogue cospans"):
        reg.cospan("nope")
    with pytest.raises(ValidationError, match=r"catalogue diagrams"):
        reg.diagram("nope")
    with pytest.raises(ValidationError, match=r"unknown profile"):
        reg.profile("nope")


# ---------------------------------------------------------------------------
# shipped fixture files


def test_every_shipped_fixture_loads(lib):
    reg = Registry(lib)
    assert reg.algebra_file(_fx("S3.json")).size == 6
    assert reg.profile(_fx("groups-profile.json")).ssh_certified
    d = reg.diagram(_fx("hslat-admissible.json"))
    assert d.gamma.violations
    assert reg.cospan(_fx("s3-weighted.json")).codomain.size == 6
    assert reg.cospan(_fx("s3-weighted-zero.json")).w.dom.size == 1
    assert reg.diagram(_fx("z4-z6-z12.json")).target.size == 12
    mode, p, carrier, R, S = reg.reflection(_fx("reflect-basic.json"))
    verdict = check_reflection_instance(mode, p, carrier, R, S)
    assert verdict.instance_satisfies


def test_reflection_fixture_parses_label_pairs(lib):
    obj, _ = load_json_file(_fx("reflect-basic.json"))
    mode, p, carrier, R, S = reflection_from_json(
        obj, resolve=lib.algebra)
    assert mode == "basic"
    assert R.block_id == S.block_id
    assert R.block_id[0] == R.block_id[2]
