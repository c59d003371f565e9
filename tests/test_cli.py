from __future__ import annotations

import contextlib
import enum
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dimermirror import cli
from dimermirror.cli import EXIT_OK, EXIT_USAGE, main
from dimermirror.io import dimer_from_dict, dimer_to_dict, load_bundled

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "dimermirror" / "data"


def run_cli(*args):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "dimermirror.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_round_trip_bundled_files():
    for name in ("c3", "conifold", "spp"):
        raw = json.loads((DATA / f"{name}.json").read_text())
        assert dimer_to_dict(dimer_from_dict(raw)) == raw


def test_parse_spp_shape():
    d = load_bundled("spp")
    assert len(d.vertices) == 3
    assert len(d.arrows) == 7
    assert len(d.faces) == 4


def test_verify_exit_codes(tmp_path):
    rc, out, err = run_cli("verify", str(DATA / "spp.json"), "--n-max", "4")
    assert rc == 0, err
    data = json.loads(out)
    assert data["passed"] is True

    bad = json.loads((DATA / "spp.json").read_text())
    bad["arrows"][0]["shift"] = [9, 9]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    rc, out, err = run_cli("verify", str(p))
    assert rc == 1


def test_parse_error_names_face(tmp_path):
    bad = json.loads((DATA / "c3.json").read_text())
    bad["faces"][1]["sign"] = "±"
    p = tmp_path / "bad_sign.json"
    p.write_text(json.dumps(bad))
    rc, out, err = run_cli("validate", str(p))
    assert rc != 0
    assert "faces[1].sign" in out + err


def test_usage_error_exit_code():
    rc, out, err = run_cli("no-such-command")
    assert rc == 2


def test_reports_are_deterministic():
    rc1, out1, _ = run_cli("report", str(DATA / "conifold.json"), "--n-max", "3")
    rc2, out2, _ = run_cli("report", str(DATA / "conifold.json"), "--n-max", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


# sha256 of the stdout of `dimermirror report <name> --format json` with default
# flags.  A change that alters the report on purpose updates these and says why.
REPORT_SHA256 = {
    "c3": "f8c73018bb1207b9bb33ad7274db27e2021d9ea411a62d88867e4cf215b4280c",
    "conifold": "7cf50c52b67bfafea0b04d823cfdec15582b32dc17e267b0dd13e101d2351231",
    "spp": "1faaadeec9e57e2710354f83752ad0745d318c4045f95b76dfe231f1fd1f7003",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_json_is_byte_identical(name):
    rc, out, err = run_cli("report", name, "--format", "json")
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[name]


# sha256 of the stdout of `dimermirror hh <name> --format json` with default
# flags: the generators, psi vertices and words, and cocycle checks.
HH_SHA256 = {
    "c3": "b41ed250a61391063ad3437c73978e3b460250d5df3e801b87781d2086187bfb",
    "conifold": "ad10a3c2faf3b9f6ae7679c955f8cfe090ae369600ab9be591a046e90cc3a405",
    "spp": "df35f3f2ea4cb93d1935d3b2b7c1d84539558361cccee0068e32278ffffb2625",
}


@pytest.mark.parametrize("name", sorted(HH_SHA256))
def test_hh_json_is_byte_identical(name):
    rc, out, err = run_cli("hh", name, "--format", "json")
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == HH_SHA256[name]


# The same for k x l lattice covers: the conifold ones, where two zigzag
# classes have parallel multiplicity 4, and a c3 and an spp cover, whose strips
# need the vertex-component construction; the hashes do not depend on the path.
COVER_REPORT_SHA256 = {
    ("conifold", 4, 1): "4ea9e94d3dff6696d3c3b7892e7fdd0629e3f0880afe1595b3ec63f94e5f3d61",
    ("conifold", 1, 4): "0d0ceeb41e0169dbaa42205b68cd0bde0bea37fa208f70c1b14e360bba73968b",
    ("c3", 2, 2): "1782f99504b17120eff15b932ef4b49be573bf77788d1c387d7b36a5e1454f2b",
    ("spp", 2, 1): "4a787ccb0aad031a4a985b542b4f4b1b507dd0234125d897110db68019ef3752",
}


@pytest.mark.parametrize("name,k,l", sorted(COVER_REPORT_SHA256))
def test_cover_report_json_is_byte_identical(name, k, l, tmp_path, lattice_cover):
    p = tmp_path / f"{name}_{k}x{l}.json"
    p.write_text(json.dumps(lattice_cover(name, k, l)))
    rc, out, err = run_cli("report", str(p), "--format", "json")
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == COVER_REPORT_SHA256[(name, k, l)]


# sha256 of `dimermirror polytope <conifold 4x3 cover> --format json`, computed
# when the polygon still came from enumerating all 2,624 perfect matchings.
COVER_POLYTOPE_SHA256 = {
    ("conifold", 4, 3): "292e073addaeb8060bf8738a3b597f30d9924674d377e26066bfeb7753280e08",
}


@pytest.mark.parametrize("name,k,l", sorted(COVER_POLYTOPE_SHA256))
def test_cover_polytope_json_is_byte_identical(name, k, l, tmp_path, lattice_cover):
    p = tmp_path / f"{name}_{k}x{l}.json"
    p.write_text(json.dumps(lattice_cover(name, k, l)))
    rc, out, err = run_cli("polytope", str(p), "--format", "json")
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == COVER_POLYTOPE_SHA256[(name, k, l)]


def test_mixed_int_and_str_arrow_ids(tmp_path):
    # validation accepts arrow ids of both types; every listing orders them by idkey
    raw = json.loads((DATA / "spp.json").read_text())
    ints = {"a": 1, "d": 2}
    for a in raw["arrows"]:
        a["id"] = ints.get(a["id"], a["id"])
    for f in raw["faces"]:
        f["boundary"] = [ints.get(x, x) for x in f["boundary"]]
    p = tmp_path / "spp_mixed.json"
    p.write_text(json.dumps(raw))
    for command in ("polytope", "matchings", "verify"):
        rc, out, err = run_cli(command, str(p))
        assert rc == 0 and "Traceback" not in err, (command, err)
    rc, out, _ = run_cli("matchings", str(p))
    listed = [m["edges"] for m in json.loads(out)["matchings"]]
    assert listed == [[1, "c"], [1, "e"], ["c", "g"], [2, "b"], [2, "f"], ["e", "g"]]


def test_failure_json_names_its_stage(tmp_path, lattice_cover):
    # on the conifold 2x2 cover no zigzag path from the base vertex reaches
    # every vertex, so the mirror model cannot build xi_v
    p = tmp_path / "conifold_2x2.json"
    p.write_text(json.dumps(lattice_cover("conifold", 2, 2)))
    for command in ("verify", "report"):
        rc, out, err = run_cli(command, str(p))
        assert rc == 1 and "Traceback" not in err
        data = json.loads(out)
        assert set(data) == {"passed", "error", "stage"}
        assert data["passed"] is False and "no zigzag path" in data["error"]
        assert data["stage"] == "mirror_sh"
    # a passing run carries no stage
    rc, out, err = run_cli("verify", "c3", "--n-max", "1")
    assert rc == 0 and "stage" not in json.loads(out)


def test_markdown_report_mentions_pair_of_pants_data():
    rc, out, _ = run_cli("report", str(DATA / "c3.json"), "--format", "markdown", "--n-max", "2")
    assert rc == 0
    assert "**genus**: 0" in out
    assert "**punctures**: 3" in out


def test_main_in_process_verify():
    assert main(["verify", "c3", "--n-max", "2"]) == 0


def test_jacobi_subcommand_equal():
    rc, out, _ = run_cli("jacobi", "c3", "--equal", "x,y", "y,x")
    assert rc == 0
    assert json.loads(out)["equal"] is True


def test_zigzags_subcommand_consistency():
    rc, out, _ = run_cli("zigzags", "spp")
    assert rc == 0
    data = json.loads(out)
    assert len(data["cycles"]) == 5


def test_sh_subcommand():
    rc, out, _ = run_cli("sh", "conifold", "--n-max", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["odd_rank"] == 3


def test_hh_subcommand():
    rc, out, _ = run_cli("hh", "spp", "--n-max", "2")
    assert rc == 0
    data = json.loads(out)
    assert all(all(v for v in d.values()) for d in data["cocycle_checks"].values())


def test_base_vertex_override():
    rc, out, _ = run_cli("hh", "spp", "--n-max", "1", "--base-vertex", "2")
    assert rc == 0
    data = json.loads(out)
    thetas = [l for l in data["e2_odd"] if l["kind"] == "theta" and l["n"] == 0]
    assert {l["v"] for l in thetas} == {"1", "3"} or {l["v"] for l in thetas} == {1, 3}


# -- the one-pass JSON encoder against json.dumps ------------------------------


def oracle_json(x) -> str:
    return json.dumps(cli._jsonable(x), indent=2, sort_keys=True) + "\n"


def emitted_json(x, capsys) -> str:
    capsys.readouterr()
    cli._emit(x, "json", "title")
    return capsys.readouterr().out


SUBCOMMANDS = [
    ["validate"], ["zigzags"], ["matchings"], ["polytope"], ["dual"],
    ["jacobi", "--w-report"], ["hh"], ["sh"], ["verify"], ["report"],
]


def recorded_emits(monkeypatch, argv) -> list:
    """The data each _emit call of ``main(argv)`` was given."""
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda data, fmt, title: seen.append(data))
    main(argv)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_emit_json_matches_json_dumps_on_every_subcommand(name, monkeypatch, capsys):
    argvs = [[cmd[0], name, *cmd[1:]] for cmd in SUBCOMMANDS]
    if name == "c3":
        argvs.append(["jacobi", "c3", "--canon", "x,y", "--equal", "x,y", "y,x", "--alpha", "1,0"])
    for argv in argvs:
        (data,) = recorded_emits(monkeypatch, argv)
        assert emitted_json(data, capsys) == oracle_json(data), argv


def test_emit_json_matches_json_dumps_on_failure_json(monkeypatch, capsys, tmp_path, lattice_cover):
    p = tmp_path / "conifold_2x2.json"
    p.write_text(json.dumps(lattice_cover("conifold", 2, 2)))
    (data,) = recorded_emits(monkeypatch, ["verify", str(p)])
    assert data["passed"] is False and data["stage"] == "mirror_sh"
    assert emitted_json(data, capsys) == oracle_json(data)


class WithAsDict:
    def as_dict(self):
        return {"b": (1, 2), "a": {3, 1}, "c": WithVars()}


class WithVars:
    def __init__(self):
        self.z = 1
        self.y = [None, ()]


class StrOnly:
    __slots__ = ()

    def __str__(self):
        return "str only \u00e9"


class Colour(enum.IntEnum):
    RED = 1


EDGE_CASES = [
    {}, [], (), set(), frozenset(), "", 0,
    {"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": {}}}, [[[]]],
    {3, 1, 2, 10}, frozenset({"b", "a", 10, (1, 2)}), {1, "1"},
    {2: "int", True: "bool", (1, "x"): "tuple", "k": "str", None: "none", 1.5: "float"},
    {1: "int first", "1": "str last"}, {frozenset({2, 1}): [], Colour.RED: Colour.RED},
    "na\u00efve \u2603 \U0001d11e \u2028", "\x00\x01\x1f\x7f \n\t\r\b\f \" \\ /",
    {"\u00e9": 1, "e": 2, "\x00": 3, "E": 4},
    -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1.5, 1e300, 0.1, 1e-7,
    [-0.0, float("nan"), float("inf"), float("-inf")],
    -7, 2 ** 70, True, False, None, [True, False, None, 1, 1.0],
    WithAsDict(), WithVars(), StrOnly(), [WithAsDict(), {"v": WithVars(), "s": StrOnly()}],
]


@pytest.mark.parametrize("case", range(len(EDGE_CASES)))
def test_emit_json_matches_json_dumps_on_edge_cases(case, capsys):
    x = EDGE_CASES[case]
    assert emitted_json(x, capsys) == oracle_json(x)


# -- main called repeatedly in one process --------------------------------------


def main_in_process(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(args))
    return rc, out.getvalue(), err.getvalue()


def test_repeated_main_calls_match_fresh_processes():
    # one shared parser: no option may leak from one call into the next
    for args in (("verify", "c3", "--n-max", "2"), ("verify", "c3"), ("hh", "spp", "--i0", "2")):
        assert main_in_process(*args) == run_cli(*args), args
    rc, out, err = main_in_process("no-such-command")
    assert rc == EXIT_USAGE and "invalid choice" in err
    rc, out, _ = main_in_process("--help")
    assert rc == EXIT_OK and out.startswith("usage: dimermirror")
    rc, out, _ = main_in_process("verify", "--help")
    assert rc == EXIT_OK and "--n-max" in out
    args = ("verify", "c3", "--n-max", "2")
    assert main_in_process(*args) == run_cli(*args)


def test_import_builds_no_parser():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    code = "import dimermirror.cli as c; print(c.build_parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_closed_output_pipe_exits_without_traceback():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left when the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dimermirror.cli", "verify", "c3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
    finally:
        os.close(write_end)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


@pytest.mark.parametrize("args", [("verify", "c3"), ("polytope", "spp", "--format", "markdown"), ("no-such-command",)])
def test_python_dash_m_package_runs_the_cli(args):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "dimermirror", *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == main_in_process(*args)
