"""Command-line behavior: exit codes, output formats, reproducibility."""

import json

import pytest

from linrel.cli import main


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "bool": write("bool.json", {
            "kind": "table", "elements": ["0", "1"], "covers": [["0", "1"]],
            "tensor": [["0", "0"], ["0", "1"]], "unit": "1", "dualizer": "0"}),
        "chain3": write("chain3.json", {
            "kind": "table", "elements": ["0", "m", "1"],
            "covers": [["0", "m"], ["m", "1"]],
            "tensor": [["0", "0", "0"], ["0", "m", "m"], ["0", "m", "1"]],
            "unit": "1"}),
        "broken": write("broken.json", {
            "kind": "table", "elements": ["0", "1"], "covers": [["0", "1"]],
            "tensor": [["0", "0"], ["0", "0"]], "unit": "1"}),
        "trop": write("trop.json", {"kind": "zinf", "flavor": "tropical",
                                    "dualizer": 0}),
        "f": write("f.json", {
            "source": {"name": "A", "members": ["a"]},
            "target": {"name": "B", "members": ["b1", "b2"]},
            "values": [[1, 2]]}),
        "g": write("g.json", {
            "source": {"name": "B", "members": ["b1", "b2"]},
            "target": {"name": "C", "members": ["c"]},
            "values": [[3], [4]]}),
        "r": write("r.json", {
            "source": {"name": "A", "members": ["a"]},
            "target": {"name": "B", "members": ["b1", "b2"]},
            "values": [[3, "-inf"]]}),
        "dir": tmp_path,
    }


def test_check_quantale_pass(files, capsys):
    assert main(["check-quantale", files["bool"]]) == 0
    out = capsys.readouterr().out
    assert "7/7 laws hold" in out


def test_check_quantale_fail_exit_one(files, capsys):
    assert main(["check-quantale", files["broken"]]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_check_ld(files):
    assert main(["check-ld", files["bool"]]) == 0
    # chain3 file has no par and no dualizer
    assert main(["check-ld", files["chain3"]]) == 2


def test_find_dualizer_outputs(files, capsys):
    assert main(["find-dualizer", files["chain3"]]) == 0
    assert "no cyclic dualizing element" in capsys.readouterr().out
    assert main(["find-dualizer", files["bool"]]) == 0
    assert "0" in capsys.readouterr().out


def test_compose_par_writes_minplus_product(files, capsys):
    out_path = str(files["dir"] / "out.json")
    code = main(["compose", "--op", "par", "--quantale", files["trop"],
                 files["f"], files["g"], "--out", out_path])
    assert code == 0
    blob = json.loads(open(out_path).read())
    assert blob["values"] == [[4]]


def test_compose_roundtrip(files, capsys):
    out_path = str(files["dir"] / "composed.json")
    main(["compose", "--op", "tensor", "--quantale", files["trop"],
          files["f"], files["g"], "--out", out_path])
    blob = json.loads(open(out_path).read())
    assert blob["values"] == [[6]]
    assert blob["source"]["members"] == ["a"]
    # the written relation re-parses to a relation equal to the composite
    from linrel.quantale import quantale_from_json
    from linrel.qrel import compose_tensor, relation_from_json
    amb = quantale_from_json(json.loads(open(files["trop"]).read())).ld
    f = relation_from_json(json.loads(open(files["f"]).read()), amb)
    g = relation_from_json(json.loads(open(files["g"]).read()), amb)
    assert relation_from_json(blob, amb) == compose_tensor(f, g)


def test_compose_refuses_unhashable_table_entry(files, capsys):
    # a list is no element name; it must not reach the table lookups
    f = files["dir"] / "list_entry.json"
    f.write_text(json.dumps({"source": {"name": "A", "members": ["a"]},
                             "target": {"name": "B", "members": ["b"]},
                             "values": [[["1"]]]}))
    g = files["dir"] / "g1.json"
    g.write_text(json.dumps({"source": {"name": "B", "members": ["b"]},
                             "target": {"name": "C", "members": ["c"]},
                             "values": [["1"]]}))
    assert main(["compose", "--op", "tensor", "--quantale", files["bool"],
                 str(f), str(g)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("values", ["01", ["1", "0"]])
def test_compose_refuses_string_values_or_rows(files, capsys, values):
    # a JSON string is no list of rows, nor a row: "01" must not be read
    # as the rows ["0"], ["1"], nor the row "1" as ["1"]
    f = files["dir"] / "string_values.json"
    f.write_text(json.dumps({"source": {"name": "A", "members": ["a1", "a2"]},
                             "target": {"name": "B", "members": ["b"]},
                             "values": values}))
    g = files["dir"] / "g2.json"
    g.write_text(json.dumps({"source": {"name": "B", "members": ["b"]},
                             "target": {"name": "C", "members": ["c"]},
                             "values": [["1"]]}))
    assert main(["compose", "--op", "tensor", "--quantale", files["bool"],
                 str(f), str(g)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_dual_command(files, capsys):
    assert main(["dual", "--quantale", files["trop"], files["r"]]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["values"] == [[-3], ["+inf"]]


def test_verify_qrel_entry_and_seed_reproducible(files, capsys):
    args = ["verify-qrel", "--entry", "zinf-tropical", "--sampler",
            "random:40", "--seed", "9", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_check_girard_qrel_cli(files):
    assert main(["check-girard-qrel", files["bool"]]) == 0
    assert main(["check-girard-qrel", files["chain3"]]) == 2


def test_run_theorem_cli(capsys):
    assert main(["run-theorem", "ldq", "--entry", "bool",
                 "--sampler", "random:20"]) == 0
    assert main(["run-theorem", "ldq", "--entry", "chain3-broken",
                 "--sampler", "random:20"]) == 1
    out = capsys.readouterr().out
    assert "theorem-forward" in out


def test_verify_monq_and_qmod_cli():
    assert main(["verify-monq", "--entry", "bool"]) == 0
    assert main(["verify-qmod", "--entry", "bool",
                 "--sampler", "random:20"]) == 0
    # extended-integer entries cannot be materialized
    assert main(["verify-monq", "--entry", "zinf-tropical"]) == 2


def test_entry_base_is_kept_and_file_base_is_not(tmp_path):
    from linrel.cli import _base_quantaloid, build_parser
    from linrel.quantaloid import quantaloid_to_json
    from linrel.verify import catalog_entry
    path = tmp_path / "boolq.json"
    path.write_text(json.dumps(quantaloid_to_json(catalog_entry("bool").base)))
    parse = build_parser().parse_args
    by_entry = parse(["verify-monq", "--entry", "bool", "--window", "4"])
    assert _base_quantaloid(by_entry) is catalog_entry("bool", 4).base
    by_file = parse(["verify-monq", str(path)])
    assert _base_quantaloid(by_file) is not _base_quantaloid(by_file)


def test_verify_monq_accepts_quantaloid_file(tmp_path):
    from linrel.quantaloid import one_object_quantaloid, quantaloid_to_json
    from linrel.verify import catalog_entry
    blob = quantaloid_to_json(one_object_quantaloid(catalog_entry("bool").ld))
    path = tmp_path / "boolq.json"
    path.write_text(json.dumps(blob))
    assert main(["verify-monq", str(path)]) == 0
    assert main(["verify-qmod", str(path), "--sampler", "random:20"]) == 0


def test_catalog_json(capsys):
    assert main(["catalog", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["bool"]["girard"] is True
    assert blob["chain3"]["girard"] is False
    assert blob["chain3"]["ld"] is True


def test_malformed_json_exit_two(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["check-quantale", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_unknown_command_exit_two():
    assert main(["frobnicate"]) == 2


def test_missing_file_exit_two(tmp_path):
    assert main(["check-quantale", str(tmp_path / "absent.json")]) == 2


def _bool_quantaloid_blob():
    from linrel.quantaloid import one_object_quantaloid, quantaloid_to_json
    from linrel.verify import catalog_entry
    return quantaloid_to_json(one_object_quantaloid(catalog_entry("bool").ld))


@pytest.mark.parametrize("damage", [
    lambda blob: blob["units"].clear(),
    lambda blob: blob["par_units"].clear(),
    lambda blob: blob["homs"].update({"*->*": [1, 2]}),
    lambda blob: blob["homs"].update({"*->*": {"elements": ["0", "1"]}}),
], ids=["missing-unit", "missing-par-unit", "hom-block-array",
        "hom-block-without-covers"])
def test_bad_quantaloid_file_exit_two(damage, tmp_path, capsys):
    blob = _bool_quantaloid_blob()
    damage(blob)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    assert main(["verify-monq", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _list_named_object(blob):
    # a list as an object name, with blocks keyed by its text
    blob["objects"] = [["*"]]
    blob["homs"] = {"['*']->['*']": blob["homs"]["*->*"]}
    blob["compose"] = {"['*']->['*']->['*']": blob["compose"]["*->*->*"]}


@pytest.mark.parametrize("damage", [
    lambda blob: blob.update(units=["a"]),
    lambda blob: blob.update(par_units=["a"]),
    lambda blob: blob["compose"].update({"*->*->*": 5}),
    lambda blob: blob.update(objects="*"),
    lambda blob: blob.update(objects=["*", "*"]),
    _list_named_object,
    # strings that contain the keys looked up in them
    lambda blob: blob.update(homs="*->*"),
    lambda blob: blob.update(compose="*->*->*"),
    lambda blob: blob.update(par_compose="*->*->*"),
    # an empty object list once crashed verify-qmod and passed verify-monq
    lambda blob: blob.update(objects=[]),
], ids=["units-list", "par-units-list", "compose-number", "objects-string",
        "objects-duplicate", "object-name-list", "homs-string",
        "compose-string", "par-compose-string", "objects-empty"])
def test_bad_quantaloid_shape_exit_two(damage, tmp_path, capsys):
    blob = _bool_quantaloid_blob()
    damage(blob)
    path = tmp_path / "bad_shape.json"
    path.write_text(json.dumps(blob))
    for command in ("verify-monq", "verify-qmod"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["verify-monq", "check-quantale"])
def test_top_level_array_exit_two(command, tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "JSON object" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run-theorem", "ldq", "--entry", "zinf-tropical", "--window", "-1"],
    ["find-dualizer", "{trop}", "--window", "-2"],
    ["catalog", "--window", "-1"],
    ["verify-qrel", "--entry", "bool", "--max-set", "0"],
    ["verify-qrel", "--entry", "bool", "--sampler", "random:0"],
    ["verify-qrel", "--entry", "bool", "--sampler", "random:-4"],
    ["verify-qrel", "--entry", "bool", "--sampler", "random:x"],
    ["verify-qrel", "--entry", "bool", "--sampler", "shuffle:4"],
], ids=["negative-window", "negative-window-file", "negative-window-catalog",
        "max-set-zero", "random-zero", "random-negative", "random-not-int",
        "unknown-sampler"])
def test_out_of_range_arguments_exit_two(argv, files, capsys):
    argv = [a.format(trop=files["trop"]) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "Traceback" not in captured.err


def test_smallest_arguments_accepted(files, capsys):
    assert main(["find-dualizer", files["trop"], "--window", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dualizers": [0]}
    assert main(["verify-qrel", "--entry", "bool", "--max-set", "1",
                 "--sampler", "random:1"]) == 0


@pytest.mark.parametrize("command, damage", [
    ("check-quantale", lambda blob: blob.update(elements="01")),
    ("check-quantale", lambda blob: blob.update(elements=2)),
    ("verify-monq", lambda blob: blob["homs"]["*->*"].update(elements="01")),
    ("find-dualizer", lambda blob: blob.update(tensor=["00", "01"])),
    ("find-dualizer", lambda blob: blob.update(tensor="0001")),
    ("check-ld", lambda blob: blob.update(par={"table": ["01", "11"], "unit": "0"})),
], ids=["quantale-string", "quantale-number", "quantaloid-string",
        "tensor-rows-string", "tensor-table-string", "par-rows-string"])
def test_element_list_as_string_exit_two(command, damage, files, tmp_path,
                                         capsys):
    blob = (_bool_quantaloid_blob() if command == "verify-monq"
            else json.loads(open(files["bool"]).read()))
    damage(blob)
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(blob))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "list" in err and "Traceback" not in err
    if command == "check-ld":
        assert "par table" in err


def test_members_as_string_exit_two(files, tmp_path, capsys):
    blob = json.loads(open(files["f"]).read())
    blob["target"]["members"] = "ab"
    path = tmp_path / "string_members.json"
    path.write_text(json.dumps(blob))
    assert main(["compose", "--quantale", files["trop"], str(path),
                 files["g"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "list" in err and "Traceback" not in err


@pytest.mark.parametrize("side, field, value, named", [
    ("source", "name", ["A"], "set name ['A']"),
    ("source", "name", 7, "set name 7"),
    ("target", "members", [1, "b2"], "set 'B' member 1"),
    ("target", "members", [["b1"], "b2"], "set 'B' member ['b1']"),
    ("target", "members", ["b1", None], "set 'B' member None"),
], ids=["name-list", "name-number", "member-number", "member-list",
        "member-null"])
def test_set_names_must_be_strings_exit_two(side, field, value, named, files,
                                            tmp_path, capsys):
    blob = json.loads(open(files["f"]).read())
    blob[side][field] = value
    path = tmp_path / "bad_set.json"
    path.write_text(json.dumps(blob))
    assert main(["compose", "--quantale", files["trop"], str(path),
                 files["g"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{named} must be a string" in err


@pytest.mark.parametrize("field, value", [
    ("elements", [["0"], "1"]),
    ("covers", "01"),
    ("covers", [["0"]]),
    ("covers", 5),
], ids=["element-not-string", "covers-string", "cover-one-name", "covers-number"])
def test_bad_lattice_shape_exit_two(field, value, files, tmp_path, capsys):
    blob = json.loads(open(files["bool"]).read())
    blob[field] = value
    path = tmp_path / "bad_lattice.json"
    path.write_text(json.dumps(blob))
    assert main(["check-quantale", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("good", [
    ["verify-qrel", "--entry", "chain3-broken", "--sampler", "random:20"],
    ["verify-qrel", "--entry", "chain3-broken", "--sampler", "random:20", "--json"],
], ids=["text", "json"])
def test_parser_reuse_keeps_no_state(good, capsys):
    # one parser serves every call in a process; a refused call in between
    # must leave nothing behind for the next one
    assert main(good) == 1
    first = capsys.readouterr().out
    assert main(["verify-qrel", "--entry", "bool", "--max-set", "0"]) == 2
    assert capsys.readouterr().out == ""
    assert main(good) == 1
    assert capsys.readouterr().out == first


def test_parser_reuse_interleaves_json_and_text(capsys):
    text = ["verify-qrel", "--entry", "bool", "--seed", "4"]
    as_json = text + ["--json"]
    outputs = []
    for argv in (text, as_json, ["run-theorem", "ldq"], text, as_json):
        outputs.append((main(argv), capsys.readouterr().out))
    assert outputs[0] == outputs[3] and outputs[1] == outputs[4]
    assert outputs[0][1].startswith("suite:")
    assert json.loads(outputs[1][1])["suite"] == "qrel-laws[bool]"
    assert outputs[2] == (2, "")
