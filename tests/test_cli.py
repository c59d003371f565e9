from __future__ import annotations

import contextlib
import enum
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dimermirror import cli
from dimermirror.cli import EXIT_OK, EXIT_USAGE, main
from dimermirror.io import DimerFormatError, dimer_from_dict, dimer_to_dict, load_bundled, parse_dimer
from dimermirror.jacobi import Jacobi
from dimermirror.ks import KSVerifier
from test_matchings import ORACLE_ZOO, mirrored

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
    rc, out, err = run_cli("verify", str(DATA / "spp.json"))
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


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "conifold", "--ab", "x,y"),
        ("verify", "conifold", "--ab", "1"),
        ("jacobi", "c3", "--alpha", "x,1"),
        ("jacobi", "c3", "--alpha", "1,2,3"),
    ],
)
def test_a_malformed_pair_is_a_usage_error(argv):
    # argparse names the type function when it raises ValueError; every bad
    # pair gets the one message instead
    rc, out, err = main_in_process(*argv)
    assert (rc, out) == (EXIT_USAGE, "")
    assert f"argument {argv[2]}: expected two comma-separated integers" in err
    assert "_pair" not in err


def test_sh_takes_no_ab():
    # only hh, verify and report choose the odd combination (a, b)
    rc, out, err = main_in_process("sh", "c3", "--ab", "1,2")
    assert (rc, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --ab 1,2" in err


def test_reports_are_deterministic():
    rc1, out1, _ = run_cli("report", str(DATA / "conifold.json"), "--n-max", "3")
    rc2, out2, _ = run_cli("report", str(DATA / "conifold.json"), "--n-max", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


# The pins below were computed when `verify` still repeated each per-class
# count and determinant row for every winding n = 1..10, as `<row>.n<n>`.
# The verifier now reports each such group once, so they hash the output in
# that earlier form (``parent_form``): each group copied back out to .n1 ..
# .n10, then rendered again.  The copies were exact, so no other byte moves.
WINDINGS = 10
PER_CLASS_GROUPS = (
    ("count.even", "count.odd"),
    ("det.even.sh_basis", "det.odd.sh_image", "det.even.ks", "det.odd.ks"),
)


def per_winding_rows(checks: list) -> list:
    """The check rows with each per-class group repeated once per winding n."""
    out, k = [], 0
    while k < len(checks):
        prefix = checks[k]["name"].rsplit(".", 1)[0]
        group = next((g for g in PER_CLASS_GROUPS if g[0] == prefix), (prefix,))
        rows = checks[k : k + len(group)]
        assert tuple(r["name"].rsplit(".", 1)[0] for r in rows) == group, rows
        if len(group) == 1:
            out += rows
        else:
            out += [dict(r, name=f"{r['name']}.n{n}") for n in range(1, WINDINGS + 1) for r in rows]
        k += len(group)
    return out


def parent_form(json_out: str, markdown_out: str | None = None) -> str:
    """The `verify` or `report` output as it read with one row per winding.

    ``json_out`` is the command's JSON output.  With ``markdown_out``, the
    same command's markdown output, the markdown is rendered, under the title
    on its first line; otherwise the JSON.
    """
    data = json.loads(json_out)
    rep = data.get("verification", data)
    if "checks" in rep:
        rep["checks"] = per_winding_rows(rep["checks"])
    if markdown_out is None:
        return oracle_json(data)
    title = markdown_out.split("\n", 1)[0].removeprefix("# ")
    return cli._markdown(data, title) + "\n"


# sha256 of the parent form of the stdout of `dimermirror report <name> --format
# json` with default flags.  A change that alters the report on purpose updates
# these and says why.  These, and every pin below but the `hh`, `jacobi` and
# inconsistent-dimer ones, changed when heights came to be measured from the
# corner P_1 instead of the least matching in sorted-id order: each printed
# height moved by -h(P_1), and the `matching_unit` rows name P_1's ear-cycle
# flips.
REPORT_SHA256 = {
    "c3": "891bdcb9f4c10ddaf146be3c4b105d5e003c78dcf933d636a54e62d6005468b6",
    "conifold": "8cf19c70d0d3826c6e8598086084d041a3b71cff501bbb9043a69f89da714bf3",
    "spp": "adc33a5644b5eb719cdfa5467d8991e45c422e345a2e991cebdfb3a8a9ca28af",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_json_is_byte_identical(name):
    rc, out, err = run_cli("report", name, "--format", "json")
    assert rc == 0, err
    assert hashlib.sha256(parent_form(out).encode()).hexdigest() == REPORT_SHA256[name]


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
    ("conifold", 4, 1): "1a624d2a89b65bf96768448e4b7cfd77e4c4014e7fab1c184f0cd17e26f012c9",
    ("conifold", 1, 4): "67866d52597133cbfad2de69cc08bc8fe7c9a49f935005a3642ffc62249aeafb",
    ("c3", 2, 2): "d8ec65aec57c279b7e005b6b627be3cf5204028db81b3df374d9052bfd824fa9",
    ("spp", 2, 1): "d7c05c640aae6fb59658e5f65706c59f2bc15863b005a159624981dcc771ac88",
}


@pytest.mark.parametrize("name,k,l", sorted(COVER_REPORT_SHA256))
def test_cover_report_json_is_byte_identical(name, k, l, tmp_path, lattice_cover):
    p = tmp_path / f"{name}_{k}x{l}.json"
    p.write_text(json.dumps(lattice_cover(name, k, l)))
    rc, out, err = run_cli("report", str(p), "--format", "json")
    assert rc == 0, err
    assert hashlib.sha256(parent_form(out).encode()).hexdigest() == COVER_REPORT_SHA256[(name, k, l)]


# rows of `verify`: each count and determinant row once per zigzag class
VERIFY_ROWS = {
    ("c3", 1, 1): 71,
    ("conifold", 1, 1): 96,
    ("spp", 1, 1): 104,
    ("conifold", 4, 1): 144,
}


@pytest.mark.parametrize("name,k,l", sorted(VERIFY_ROWS))
def test_verify_reports_each_row_once(name, k, l, tmp_path, lattice_cover):
    p = tmp_path / f"{name}_{k}x{l}.json"
    p.write_text(json.dumps(lattice_cover(name, k, l)))
    rc, out, err = main_in_process("verify", str(p))
    assert rc == 0, err
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert len(names) == len(set(names)) == VERIFY_ROWS[(name, k, l)]
    assert not [n for n in names if re.search(r"\.n\d+$", n)]


def test_verify_has_no_n_max_and_report_images_take_it():
    rc, _, err = run_cli("verify", "c3", "--n-max", "2")
    assert rc == EXIT_USAGE and "unrecognized arguments: --n-max" in err
    rc, out, err = main_in_process("report", "conifold", "--n-max", "3")
    assert rc == 0, err
    rc, plain, err = main_in_process("report", "conifold")
    assert rc == 0, err
    short, full = json.loads(out), json.loads(plain)
    assert short["verification"] == full["verification"]
    for key in ("ks_even_images", "ks_odd_images"):
        assert short[key] != full[key]
        assert {img["source"].get("n", 0) for img in short[key]} <= {0, 1, 2, 3}
    assert {k: v for k, v in short.items() if not k.endswith("_images")} == {
        k: v for k, v in full.items() if not k.endswith("_images")
    }


@pytest.mark.parametrize("n_max", ["0", "-1"])
def test_report_refuses_n_max_below_one_like_hh(n_max, monkeypatch):
    # refused before the verifier's checks run
    monkeypatch.setattr(KSVerifier, "verify_all", lambda self: pytest.fail("verify_all ran"))
    rc, out, err = main_in_process("report", "c3", "--n-max", n_max)
    assert (rc, out) == (1, "")
    assert main_in_process("hh", "c3", "--n-max", n_max) == (rc, out, err)
    assert err == "error: n_max must be >= 1\n"


# sha256 of `dimermirror polytope <conifold 4x3 cover> --format json`; the
# polygon is the one that enumerating all 2,624 perfect matchings gives.
COVER_POLYTOPE_SHA256 = {
    ("conifold", 4, 3): "6393ce3bf779c32afb0fc2f2f9fb4ed12733a9b99983086a319a1c437e7226fc",
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


def renamed(raw: dict, names: dict) -> dict:
    """The dimer with vertex and arrow ids replaced by ``names`` wherever they occur."""
    def get(x):
        return names.get(x, x)

    return {
        "name": raw["name"],
        "vertices": [get(v) for v in raw["vertices"]],
        "arrows": [{**a, "id": get(a["id"]), "tail": get(a["tail"]), "head": get(a["head"])} for a in raw["arrows"]],
        "faces": [{**f, "boundary": [get(x) for x in f["boundary"]]} for f in raw["faces"]],
    }


@pytest.mark.parametrize("reverse", [False, True])
def test_arrow_ids_that_share_a_sort_key_are_refused(reverse, tmp_path):
    # 1.0 and "1.0" are unequal ids with one idkey, so their order would follow the arrow list
    raw = renamed(json.loads((DATA / "c3.json").read_text()), {"x": 1.0, "y": "1.0"})
    if reverse:
        raw["arrows"].reverse()
        error = "arrows[2].id: id 1.0 and id '1.0' at arrows[1].id share a sort key"
    else:
        error = "arrows[1].id: id '1.0' and id 1.0 at arrows[0].id share a sort key"
    with pytest.raises(DimerFormatError) as err:
        dimer_from_dict(raw)
    assert str(err.value) == error
    p = tmp_path / "c3_float_ids.json"
    p.write_text(json.dumps(raw))
    assert main_in_process("validate", str(p), "--format", "json") == (
        1, json.dumps({"error": error, "valid": False}, indent=2) + "\n", ""
    )


def test_vertex_ids_that_share_a_sort_key_are_refused():
    raw = renamed(json.loads((DATA / "conifold.json").read_text()), {1: None, 2: "None"})
    with pytest.raises(DimerFormatError, match=r"^vertices\[1\]: id 'None' and id None at vertices\[0\] share"):
        dimer_from_dict(raw)


def test_vertex_ids_that_print_as_one_key_are_refused():
    # every output keys by str(id): 1 and "1" would print as one vertex
    raw = renamed(json.loads((DATA / "conifold.json").read_text()), {2: "1"})
    with pytest.raises(DimerFormatError) as err:
        dimer_from_dict(raw)
    assert str(err.value) == "vertices[1]: id '1' and id 1 at vertices[0] print as the same key"


@pytest.mark.parametrize("ids", [(1, "1"), (True, "True")])
def test_arrow_ids_that_print_as_one_key_are_refused(ids):
    raw = renamed(json.loads((DATA / "conifold.json").read_text()), dict(zip(("a1", "a2"), ids)))
    with pytest.raises(DimerFormatError) as err:
        dimer_from_dict(raw)
    assert str(err.value) == f"arrows[1].id: id {ids[1]!r} and id {ids[0]!r} at arrows[0].id print as the same key"


def test_equal_ids_of_two_types_stay_duplicates():
    # true == 1: one id twice, which the validator reports, as before
    d = dimer_from_dict(renamed(json.loads((DATA / "c3.json").read_text()), {"x": True, "y": 1}))
    assert "duplicate_arrow" in {i.code for i in d.validate().issues}


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
    rc, out, err = run_cli("verify", "c3")
    assert rc == 0 and "stage" not in json.loads(out)


def test_matchings_listing_refuses_above_the_enumeration_gate(tmp_path, lattice_cover, monkeypatch):
    # c3 6x6 has 263,640 perfect matchings; the Kasteleyn count refuses
    # before anything is enumerated
    from dimermirror import matchings

    def never(d):
        raise AssertionError("enumerated past the gate")

    monkeypatch.setattr(matchings, "enumerate_perfect_matchings", never)
    p = tmp_path / "c3_6x6.json"
    p.write_text(json.dumps(lattice_cover("c3", 6, 6)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["matchings", str(p)]) == 1
    assert json.loads(out.getvalue()) == {
        "passed": False,
        "error": "263640 perfect matchings, above the enumeration gate 1000: not listed",
        "stage": "cli",
    }


def test_markdown_report_mentions_pair_of_pants_data():
    rc, out, _ = run_cli("report", str(DATA / "c3.json"), "--format", "markdown", "--n-max", "2")
    assert rc == 0
    assert "**genus**: 0" in out
    assert "**punctures**: 3" in out


def test_main_in_process_verify():
    assert main(["verify", "c3"]) == 0


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


def test_realize_cap_is_an_option_of_jacobi_and_hh_only():
    # verify and report never search for a witness path, so they have no cap
    rc, _, err = run_cli("verify", "c3", "--realize-cap", "5")
    assert rc == EXIT_USAGE and "unrecognized arguments: --realize-cap" in err
    rc, out, _ = run_cli("hh", "spp", "--realize-cap", "5")
    assert rc == 0 and json.loads(out)["cocycle_checks"]


# stdout of `jacobi <name> --alpha <alpha>`: x_alpha's classes and a shortest
# witness word at each vertex, taken before the witness search moved out of
# `Jacobi.central_x_alpha`
JACOBI_ALPHA_SHA256 = {
    ("c3", "1,0"): "61cd98e7e59ee69c738bbea093f99b22ea5974169fc3f203530f7d46ec6081ad",
    ("c3", "1,1"): "6fb01b88fdb6901d7a66f238c1cf17dba8dc0137911ed5f1fe4f7980c2f1bcea",
    ("c3", "-1,2"): "51fe82979ede88b0cf9be9e0064ad5e7d6cbb8a6929cd5604b255de81988543e",
    ("conifold", "1,0"): "6ba9cb96b7e6f74edf1da14697240448a6281533583b0496f211d6777d2b9895",
    ("conifold", "1,1"): "6754b479045743bce172385eeaa73021fd9f0d65d9229008a95977d0c5e9f4ba",
    ("conifold", "-1,2"): "36ed41e5339d1919ad6b2cabed82681a1c6fd22fe0e8ebf44bc891b5e078368c",
    ("spp", "1,0"): "ee2616cefde8b9246399e06d0e9b1adf200e5db7c37df6ca22ce54fa886bddee",
    ("spp", "1,1"): "34da9fa74a2d247d2456df13f605e8898d8d8edf2a5ef530d7fc68114bd91895",
    ("spp", "-1,2"): "192bcd98cda9022d4772a434e9a43bdf59bf035cabfbb1efb6bafd8b315133fe",
}


@pytest.mark.parametrize("name,alpha", list(JACOBI_ALPHA_SHA256))
def test_jacobi_alpha_is_byte_identical(name, alpha):
    rc, out, err = main_in_process("jacobi", name, f"--alpha={alpha}")
    assert (rc, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == JACOBI_ALPHA_SHA256[(name, alpha)]


def test_hh_names_the_vertex_without_an_x_alpha_witness():
    assert main_in_process("hh", "c3", "--realize-cap", "0") == (
        1, "", "error: no witness found for x_alpha at 'v' within cap 0\n"
    )


# canonical_form calls in one `verify`: the Koszul complex normalises each face
# arc once and later reads share it
CANONICAL_FORM_WORDS = {("c3", 1, 1): 7, ("conifold", 1, 1): 18, ("spp", 1, 1): 30, ("conifold", 4, 1): 90}


@pytest.mark.parametrize("name,k,l", list(CANONICAL_FORM_WORDS))
def test_verify_normalises_each_word_once(name, k, l, covers, tmp_path, monkeypatch):
    from dimermirror.jacobi import Jacobi

    calls = []
    canonical_form = Jacobi.canonical_form

    def counted(self, word):
        calls.append(tuple(word))
        return canonical_form(self, word)

    monkeypatch.setattr(Jacobi, "canonical_form", counted)
    raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
    p = tmp_path / "dimer.json"
    p.write_text(json.dumps(raw))
    rc, _, err = main_in_process("verify", str(p))
    assert rc == EXIT_OK, err
    assert len(calls) == len(set(calls)) == CANONICAL_FORM_WORDS[(name, k, l)]


# dual_dimer calls per command: the surface is read off the dimer's own zigzag
# orbits, so only `dual` builds the dual, and then its double dual
DUAL_CALLS = {"verify": 0, "report": 0, "dual": 2}


@pytest.mark.parametrize("name,k,l", [("c3", 1, 1), ("conifold", 1, 1), ("spp", 1, 1), ("conifold", 4, 1)])
def test_only_the_dual_command_builds_the_dual(name, k, l, covers, tmp_path, monkeypatch):
    import dimermirror.ks  # noqa: F401  loads every layer, so each binding is patched
    from dimermirror import dimer

    calls = []
    dual_dimer = dimer.dual_dimer

    def counted(d):
        calls.append(d.name)
        return dual_dimer(d)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "dimermirror" and getattr(module, "dual_dimer", None) is dual_dimer:
            monkeypatch.setattr(module, "dual_dimer", counted)
    raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
    p = tmp_path / "dimer.json"
    p.write_text(json.dumps(raw))
    for cmd, want in DUAL_CALLS.items():
        calls.clear()
        rc, _, err = main_in_process(cmd, str(p))
        assert rc == EXIT_OK, err
        assert len(calls) == want, cmd


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


class Tag(str):
    """A str key that writes otherwise under str(): it must not take the layout of its equal str."""

    def __str__(self):
        return "tag " + self


ROW = {"detail": {"e2": 1, "sh": 1}, "name": "count.even.i1.n1", "status": "pass"}
PUNCTUATED = '{"a": [1, 2]}, [",", "\\"]'


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
    # the layouts of one call: a key tuple at two depths, a key set in two
    # insertion orders, many rows of one shape, str keys under mixed keys,
    # keys that collide under str() among str-keyed dicts, and text that
    # looks like JSON
    {"a": 1, "b": {"a": [{"a": 2, "b": None}], "b": {"a": {}, "b": 3}}},
    [{"b": 1, "a": 2}, {"a": 3, "b": 4}, {"b": {"b": 5, "a": 6}, "a": {"a": 7, "b": 8}}],
    [dict(ROW, detail=dict(ROW["detail"])) for _ in range(1000)],
    {1: {"b": 1, "a": 2}, "x": {"a": 3, "b": {2: "int", "c": "str"}}, (1, 2): [{"b": 0, "a": 1}]},
    [{"1": 0, "a": 1}, {1: "int", "1": "str"}, {"1": "str", 1: "int"}, {"1": 2, "a": 3}],
    [{"a": 1, "b": 2}, {Tag("a"): 3, "b": 4}, {"b": 5, Tag("b"): 6}],
    {PUNCTUATED: PUNCTUATED, "k": [PUNCTUATED, {PUNCTUATED: [PUNCTUATED]}]},
]


@pytest.mark.parametrize("case", range(len(EDGE_CASES)))
def test_emit_json_matches_json_dumps_on_edge_cases(case, capsys):
    x = EDGE_CASES[case]
    assert emitted_json(x, capsys) == oracle_json(x)


@pytest.mark.parametrize("name,k,l", [("conifold", 4, 1), ("c3", 3, 3)])
def test_emit_json_matches_json_dumps_on_cover_reports(name, k, l, covers, monkeypatch, capsys, tmp_path):
    p = tmp_path / f"{name}_{k}x{l}.json"
    p.write_text(json.dumps(covers.cover(covers.load_base(name), k, l)))
    (data,) = recorded_emits(monkeypatch, ["report", str(p)])
    assert emitted_json(data, capsys) == oracle_json(data)


def cli_module_state() -> dict:
    """The size of each container, and of each cache, that cli binds at module level."""
    sizes = {}
    for name, obj in vars(cli).items():
        if name.startswith("__"):
            continue
        if isinstance(obj, (dict, list, set, frozenset, tuple)):
            sizes[name] = len(obj)
        elif hasattr(obj, "cache_info"):
            sizes[name] = obj.cache_info().currsize
    return sizes


def test_emit_keeps_no_state_across_calls(covers, tmp_path):
    # a report keys some of its dicts by vertex ids, which each relabeling
    # renames, so a layout table kept between calls would grow with every input
    p = tmp_path / "dimer.json"
    main_in_process("verify", "conifold")  # builds the parser once
    before = cli_module_state()
    reports = set()
    for name in ("conifold", "spp"):
        for seed in range(25):
            p.write_text(json.dumps(covers.relabel(covers.cover(covers.load_base(name), 2, 1), random.Random(seed))))
            rc, out, err = main_in_process("verify", str(p))
            assert rc == 0 and json.loads(out)["passed"] and err == ""
            rc, out, err = main_in_process("report", str(p))
            assert rc == 0 and err == ""
            reports.add(out)
    assert len(reports) == 50  # every relabeling reaches the output
    assert cli_module_state() == before


# -- main called repeatedly in one process --------------------------------------


def main_in_process(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(args))
    return rc, out.getvalue(), err.getvalue()


def test_a_directory_does_not_shadow_the_bundled_dimer_of_its_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = main_in_process("verify", "c3")
    (tmp_path / "c3").mkdir()
    assert main_in_process("verify", "c3") == want
    assert want[0] == EXIT_OK


def test_a_directory_path_is_a_named_error(tmp_path):
    rc, out, err = main_in_process("hh", str(tmp_path))
    assert (rc, out, err) == (EXIT_USAGE, "", f"error: no such file or bundled dimer: {tmp_path}\n")
    with pytest.raises(DimerFormatError, match=re.escape(f"{tmp_path}: cannot read: ")):
        parse_dimer(tmp_path)


def test_a_file_that_is_not_utf8_is_a_named_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    rc, out, err = main_in_process("validate", str(bad), "--format", "json")
    assert (rc, err) == (1, "")
    assert json.loads(out) == {
        "valid": False,
        "error": f"{bad}: cannot read: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    }
    with pytest.raises(DimerFormatError, match=re.escape(f"{bad}: cannot read: ")):
        parse_dimer(bad)


def test_repeated_main_calls_match_fresh_processes():
    # one shared parser: no option may leak from one call into the next
    for args in (("report", "c3", "--n-max", "2"), ("verify", "c3"), ("hh", "spp", "--i0", "2")):
        assert main_in_process(*args) == run_cli(*args), args
    rc, out, err = main_in_process("no-such-command")
    assert rc == EXIT_USAGE and "invalid choice" in err
    rc, out, _ = main_in_process("--help")
    assert rc == EXIT_OK and out.startswith("usage: dimermirror")
    rc, out, _ = main_in_process("verify", "--help")
    assert rc == EXIT_OK and "--i0" in out and "--n-max" not in out
    args = ("verify", "c3", "--i0", "2")
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


# Modules a cold start must not load: the dataclass and Fraction machinery
# (inspect, ast and dis come with dataclasses; decimal with fractions), the
# package-resource machinery (importlib.resources, which brings tempfile,
# shutil, random, bz2 and lzma), typing and pathlib.
IMPORT_BUDGET_ABSENT = (
    "dataclasses", "inspect", "fractions", "decimal", "ast", "dis",
    "importlib.resources", "tempfile", "shutil", "random", "bz2", "lzma", "typing",
    "pathlib",
)

# The package modules that ``import dimermirror.cli`` loads, and the layers
# that only the commands running them import.
COLD_MODULES = ("cli", "dimer", "io", "matchings")
LAYERS = ("jacobi", "hochschild", "mirror_sh", "ks")


def test_cold_start_stays_within_the_import_budget():
    # -I ignores the environment; -S skips site, whose .pth files can preload
    # modules on their own
    absent = IMPORT_BUDGET_ABSENT + tuple(f"dimermirror.{m}" for m in LAYERS)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import dimermirror.cli\n"
        f"d = dimermirror.io.parse_dimer({str(DATA / 'c3.json')!r})\n"
        "assert d.validate().ok\n"
        "assert dimermirror.io.load_bundled('c3').validate().ok\n"
        f"print(sorted(set({absent!r}) & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


COMMAND_MODULES = {
    **{cmd: COLD_MODULES for cmd in ("validate", "zigzags", "matchings", "polytope", "dual")},
    "jacobi": COLD_MODULES + ("jacobi",),
    "hh": COLD_MODULES + ("jacobi", "hochschild"),
    "sh": COLD_MODULES + ("mirror_sh",),
    "verify": COLD_MODULES + LAYERS,
    "report": COLD_MODULES + LAYERS,
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_the_layers_it_runs(command):
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from dimermirror.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main([{command!r}, 'c3'])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('dimermirror.'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout)
    assert rc == EXIT_OK
    assert modules == sorted(f"dimermirror.{m}" for m in COMMAND_MODULES[command])


def test_layer_errors_are_the_classes_the_cli_catches():
    from dimermirror import dimer, hochschild, jacobi, mirror_sh

    assert jacobi.JacobiError is hochschild.JacobiError is dimer.JacobiError
    assert hochschild.HochschildError is dimer.HochschildError
    assert mirror_sh.SHError is dimer.SHError
    assert {dimer.JacobiError, dimer.HochschildError, dimer.SHError} <= set(cli.PIPELINE_ERRORS)


@pytest.mark.parametrize("args,message", [
    (("jacobi", "c3", "--alpha", "0,0"), "alpha must be nonzero"),
    (("hh", "c3", "--ab", "0,0"), "(a, b) = (0, 0) degenerates on some eta_i"),
    (("sh", "conifold", "--i0", "5"), "i0 must be in 1..4"),
], ids=["JacobiError", "HochschildError", "SHError"])
def test_errors_of_late_imported_layers_exit_1(args, message):
    # a fresh process, so the layer is first imported inside the command
    assert run_cli(*args) == (1, "", f"error: {message}\n")


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


# -- every subcommand on the oracle zoo, pinned ----------------------------------


def zoo_outputs_sha256(raw: dict) -> str:
    """sha256 over (command, format, exit code, stdout, stderr) of every subcommand
    in both formats, run in-process on ``raw`` written to ``dimer.json`` in the
    working directory; the stdout of `verify` and `report` in its parent form."""
    Path("dimer.json").write_text(json.dumps(raw))
    h = hashlib.sha256()
    for cmd in SUBCOMMANDS:
        for fmt in ("json", "markdown"):
            rc, out, err = main_in_process(cmd[0], "dimer.json", *cmd[1:], "--format", fmt)
            if cmd[0] in ("verify", "report"):
                if fmt == "json":
                    json_out = out
                out = parent_form(json_out, None if fmt == "json" else out)
            h.update(repr((cmd, fmt, rc, out, err)).encode())
    return h.hexdigest()


# A change that alters any output on purpose updates these and says why.
ZOO_OUTPUT_SHA256 = {
    ("c3", 1, 1, None): "97b1bc0471569c1441296c83615b0445f9676d5abc0e4755b38ddfefd947a125",
    ("c3", 1, 1, 0): "02e62f4d01a0cd5fac4a01433f9bcd33b1f231461f857150c8675e29b7e0b8b8",
    ("conifold", 1, 1, None): "c128945edd954fd8ddc16fe85cb0433d104609c886a7b4111659aeaa638dcb3b",
    ("conifold", 1, 1, 0): "46c35fc7f3aaad8012d99f9d5c7a47e23d94658d836dc840c8ed572c28c42842",
    ("spp", 1, 1, None): "a394dcfe0e735c92c62cf801b68b1dec099b4868954b52454e0645d83003e160",
    ("spp", 1, 1, 0): "7c5410e3ed900c09eebf56b66bfc9eda19deef123586a8416239653200d6f81f",
    ("c3", 2, 1, None): "d4fad465fc4560ca6f559802dc6941e993fd18cd5c06f0c0d0804271d49daa31",
    ("c3", 2, 1, 0): "2bd787a4abfd2feb8e96f7e779645e422e80b720925c2dbe7688ec83fbcd70a2",
    ("c3", 3, 1, None): "1100aaba65aa64fa1dad3261560097df97680df25586ea3d4bf7615ec430955a",
    ("c3", 3, 1, 0): "748f4f47f223b90695e9ebd846ffa1645817a6e5c3d814d2c7f8fc2e9c1fce4a",
    ("c3", 1, 2, None): "93e0cf06241cdeed04e0e857e1a4d2cd725d253f9a7fe38e72d930c4c362efe2",
    ("c3", 1, 2, 0): "daba15d2c32f925f84655c6c8ac69aeb51af6ff0f767a6aa4bc86874808d1146",
    ("c3", 2, 2, None): "752f80b88cf74ff1d06482aaf3a075d3091bfb02d14c4c037b15797d5ea9aaa2",
    ("c3", 2, 2, 0): "81e67e530501fd0024ce1550460f6c5f4bcf9f3188a5318c3fd1a53861979a4a",
    ("c3", 3, 3, None): "906bbc0c6bc5b113504c9fa036359391b91d3d1ca06be0f98f3fb18d0ef33488",
    ("c3", 3, 3, 0): "942cd35816361488212cc5fa8c7eaf41dd1f31e8875e44a0d83618bba247a4d5",
    ("spp", 2, 1, None): "02951d8898ffd0b3755b4b92a0dc154a7584f14255434a66582d0f50206973a9",
    ("spp", 2, 1, 0): "cddc13b02f15d16fea3878059b273ea197e6e22971da89a317dc1e6c327963e8",
    ("spp", 1, 2, None): "29b004e5bbb1f082d2a941c792cbf3ce5bda79f75faaf4cfed8631b0b8867d91",
    ("spp", 1, 2, 0): "e2431ef4c9ede73f4541003bb279ee16163ae76d00c3aed34421ab2238f3d011",
    ("spp", 2, 2, None): "160f124e31079f2adf26f7b3a6aac0392de3245caf8b1b515fe11aea6a8e3848",
    ("spp", 2, 2, 0): "618a0cd1bedafe3f23475fdbf2d808aa31caf04d614b5b33802aa60f5069eac2",
    ("conifold", 2, 1, None): "8ab5e063fdd317a88dea5e42862b77e2954a3b327916a059e9b8651bd154c628",
    ("conifold", 2, 1, 0): "c00860e654641a5caec6aa8e96fc7a32f066172a602e4d425aa936968b36902b",
    ("conifold", 4, 1, None): "a4fcef7b8ce36ebda2051c40da7ad8a6ad2280f4e0c2b84fe033c1aaedcccc64",
    ("conifold", 4, 1, 0): "23381912387c0581bbcf2586ffefa8f3a1491be882b8844790816509157fcf4d",
    ("conifold", 1, 4, None): "ca9df19372e21857d2814cd721949f8a57a5b61aafdef7103e8c7c2f0bcfc286",
    ("conifold", 1, 4, 0): "2ae8d2ab195e73ae5b3ccff33ed9635489d2f8c5a4702fcce8307e30f19b7282",
    ("conifold", 2, 2, None): "33925d0f866355e85df2d0f1b6ea508cf6ad8b253fc3193edccd3c3264d5a343",
    ("conifold", 2, 2, 0): "8f25f9b8d7df506711e4b4985b8a9f8369eb9c0ae204d4c048af90f20015841c",
    ("conifold", 3, 2, None): "37c043502a498fb29a6c593275ead0a8c18a5dc511bcd9cc9f3a2a535d499b46",
    ("conifold", 3, 2, 0): "13e9dd5bae055e01a92f249765967334d31ecd5e14224374267ff69e0572674d",
}


@pytest.mark.parametrize("seed", [None, 0])
@pytest.mark.parametrize("name,k,l", ORACLE_ZOO)
def test_every_subcommand_is_byte_identical_on_the_zoo(name, k, l, seed, covers, tmp_path, monkeypatch):
    raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
    if seed is not None:
        raw = covers.relabel(raw, random.Random(seed))
    monkeypatch.chdir(tmp_path)
    assert zoo_outputs_sha256(raw) == ZOO_OUTPUT_SHA256[(name, k, l, seed)]


@pytest.mark.parametrize("seed", [None, 0])
@pytest.mark.parametrize("name,k,l", ORACLE_ZOO)
def test_every_w_report_word_is_a_face_boundary_in_the_class_of_W(name, k, l, seed, covers, tmp_path, monkeypatch):
    # each printed W word is a face boundary rotated to start at its vertex,
    # closed there, with the class of W at that vertex
    raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
    if seed is not None:
        raw = covers.relabel(raw, random.Random(seed))
    monkeypatch.chdir(tmp_path)
    Path("dimer.json").write_text(json.dumps(raw))
    rc, out, err = main_in_process("jacobi", "dimer.json", "--w-report")
    assert (rc, err) == (EXIT_OK, "")
    printed = json.loads(out)["W"]
    d = parse_dimer("dimer.json")
    jac = Jacobi(d)
    W = jac.central_W()
    rotations = {f.boundary[i:] + f.boundary[:i] for f in d.faces for i in range(len(f.boundary))}
    assert sorted(printed) == sorted(str(v) for v in d.vertices)
    for v in d.vertices:
        row = printed[str(v)]
        word = tuple(row["witness"])
        assert d.is_closed(word) and d.tail(word[0]) == v, (v, word)
        assert word in rotations, (v, word)
        assert jac.canonical_form(word) == W[v], (v, word)
        assert (tuple(row["h1"]), row["w0"]) == (W[v].h1, W[v].w0)


# -- mirrored inputs and torus markings -------------------------------------------


# sha256 over (command, format, exit code, stdout, stderr) of `polytope` and
# `matchings` on the dimer with every y shift negated, which reverses the
# orientation of the embedding.
MIRRORED_OUTPUT_SHA256 = {
    ("c3", 1, 1): "4e625ab793b3d84371b145a1aeeae5b27c26c24a423978bff4a94701a0962379",
    ("conifold", 1, 1): "5905b9f0b1a26a69e3b6f327621bea68c6f1c9b973f94abed94ec7e1cd7ecbd3",
    ("spp", 1, 1): "061004437739c1c85d21e4ac641f7fc48668728c4f1a217a7840cfa4d2c1de08",
    ("conifold", 4, 1): "c496a17496ec88c57418c2cd5f7cfd3bd43550b96d7a7f07cd41a0eda6c8a564",
    ("spp", 2, 1): "e079297b8eedf918874ce052ebc5ca0d957eb61b15b230326c5d6d26e648fe05",
    ("c3", 3, 3): "43098be28f9c1e0e84a386282f620b1086dd6139c92eccf1ccecf816203d9469",
}


def mirrored_outputs_sha256(raw: dict) -> str:
    Path("dimer.json").write_text(json.dumps(mirrored(raw)))
    h = hashlib.sha256()
    for cmd in ("polytope", "matchings"):
        for fmt in ("json", "markdown"):
            rc, out, err = main_in_process(cmd, "dimer.json", "--format", fmt)
            h.update(repr((cmd, fmt, rc, out, err)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,k,l", sorted(MIRRORED_OUTPUT_SHA256))
def test_polytope_and_matchings_are_byte_identical_when_mirrored(name, k, l, covers, tmp_path, monkeypatch):
    raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
    monkeypatch.chdir(tmp_path)
    assert mirrored_outputs_sha256(raw) == MIRRORED_OUTPUT_SHA256[(name, k, l)]


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_a_flipped_orientation_is_caught(name, monkeypatch):
    # negative controls for the sign sigma.  Flipped everywhere, it reverses
    # the zigzag rule's arcs, which then give no perfect matching.  Flipped in
    # the height table alone, it negates every height, so the rule's corners
    # fail their certificates: on the conifold too, whose square is symmetric
    # under negation, so that before the rule only the output pin caught it
    from dimermirror import matchings

    orientation, table = matchings._orientation, matchings.arrow_classes
    monkeypatch.setattr(matchings, "_orientation", lambda d: -orientation(d))
    with pytest.raises(matchings.DimerError, match="normals .* share no corner: .* not a perfect matching"):
        matchings.matching_polytope(load_bundled(name))
    monkeypatch.setattr(matchings, "_orientation", orientation)
    monkeypatch.setattr(matchings, "arrow_classes", lambda d: {a: (-x, -y) for a, (x, y) in table(d).items()})
    with pytest.raises(matchings.DimerError, match="not certified optimal"):
        matchings.matching_polytope(load_bundled(name))


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
@pytest.mark.parametrize(
    "matrix,target",
    [
        (((2, 0), (0, 1)), (1, 0)),  # x doubled
        (((1, 0), (0, 3)), (0, 1)),  # y tripled
        (((1, 0), (1, 2)), (1, 0)),  # cycle classes span (1, 1) and (0, 2)
    ],
)
def test_a_torus_marking_of_index_above_one_is_refused(name, matrix, target, tmp_path, monkeypatch):
    # shifts mapped by an integer matrix of determinant 2 or 3 still close
    # every face, so the file validates, but no cycle of the quiver has class `target`
    raw = json.loads((DATA / f"{name}.json").read_text())
    for a in raw["arrows"]:
        a["shift"] = [sum(m * x for m, x in zip(row, a["shift"])) for row in matrix]
    monkeypatch.chdir(tmp_path)
    Path("dimer.json").write_text(json.dumps(raw))
    assert main_in_process("validate", "dimer.json")[0] == EXIT_OK
    error = f"no integer cycle with class {target}; invalid torus marking"
    assert main_in_process("polytope", "dimer.json") == (1, "", f"error: {error}\n")
    for cmd in ("matchings", "verify"):
        rc, out, err = main_in_process(cmd, "dimer.json", "--format", "json")
        assert (rc, err) == (1, "")
        assert json.loads(out) == {"passed": False, "error": error, "stage": "matchings"}


@pytest.mark.parametrize("arrow", ["a1", "a2", "b1", "b2"])
def test_an_arrow_without_a_shift_is_named(arrow, tmp_path, monkeypatch):
    # the file validates without shifts; the torus marking check reads every
    # arrow's shift and names the one that has none, on or off the spanning tree,
    # before Jacobi (and so jacobi and hh) reads a word's shift
    raw = json.loads((DATA / "conifold.json").read_text())
    for a in raw["arrows"]:
        if a["id"] == arrow:
            del a["shift"]
    monkeypatch.chdir(tmp_path)
    Path("dimer.json").write_text(json.dumps(raw))
    error = f"arrow {arrow!r} carries no shift data"
    for cmd in ("polytope", "jacobi", "hh"):
        assert main_in_process(cmd, "dimer.json") == (1, "", f"error: {error}\n"), cmd
    for cmd in ("matchings", "verify"):
        rc, out, err = main_in_process(cmd, "dimer.json", "--format", "json")
        assert json.loads(out) == {"passed": False, "error": error, "stage": "dimer"}


# -- malformed ids and lists in a dimer file -------------------------------------


# (the field the error must name, where in the conifold file, what goes there)
MALFORMED = [
    ("vertices[0]", ("vertices", 0), [1]),
    ("vertices[0]", ("vertices", 0), {"v": 1}),
    ("arrows[1].id", ("arrows", 1, "id"), ["a2"]),
    ("arrows[1].id", ("arrows", 1, "id"), {"id": "a2"}),
    ("faces[1].boundary[2]", ("faces", 1, "boundary", 2), ["a2"]),
    ("faces[1].boundary[2]", ("faces", 1, "boundary", 2), {"a": 2}),
    ("vertices", ("vertices",), 2),
    ("vertices", ("vertices",), {"1": 1, "2": 2}),
    ("arrows", ("arrows",), 4),
    ("arrows", ("arrows",), None),
    ("faces", ("faces",), "a1 b2 a2 b1"),
    ("faces", ("faces",), {"sign": "+"}),
    ("name", ("name",), [1]),
]


@pytest.mark.parametrize("case", range(len(MALFORMED)))
def test_validate_names_a_malformed_id_or_list(case, tmp_path):
    field, (*parents, last), value = MALFORMED[case]
    raw = json.loads((DATA / "conifold.json").read_text())
    holder = raw
    for key in parents:
        holder = holder[key]
    holder[last] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    rc, out, err = run_cli("validate", str(p))
    assert rc == 1 and "Traceback" not in err, err
    data = json.loads(out)
    assert data["valid"] is False and data["error"].startswith(f"{field}: expected"), data


def c3_twice(raw: dict) -> None:
    """c3 and a renamed copy at a second vertex: two tori, no arrow between them."""
    c3 = json.loads((DATA / "c3.json").read_text())
    raw["vertices"].append("w")
    raw["arrows"] += [{**a, "id": a["id"] + "2", "tail": "w", "head": "w"} for a in c3["arrows"]]
    raw["faces"] += [{**f, "boundary": [x + "2" for x in f["boundary"]]} for f in c3["faces"]]


# (issue code, its message, the bundled dimer, one edit of it): one validator
# family each, besides those that name an unknown id or a short face
INVALID = [
    ("duplicate_vertex", "duplicate vertex id", "conifold", lambda r: r["vertices"].append(2)),
    (
        "repeated_arrow_in_face", "face 0 repeats an arrow id",
        "c3", lambda r: r["faces"][0]["boundary"].append("z"),
    ),
    (
        "face_cover", "arrow 'x' lies on 2 positive and 0 negative faces (want 1 and 1)",
        "c3", lambda r: r["faces"][1].update(sign="+"),
    ),
    (
        "face_not_composable", "face 0: arrows 'a1' -> 'a2' do not compose",
        "conifold", lambda r: r["faces"][0].update(boundary=["a1", "a2", "b2", "b1"]),
    ),
    (
        "euler", "Euler characteristic -1 != 0 (not a torus)",
        "c3", lambda r: r["arrows"].append({"id": "w", "tail": "v", "head": "v", "shift": [0, 0]}),
    ),
    ("isolated_vertex", "vertex 'w' lies on no face corner", "c3", lambda r: r["vertices"].append("w")),
    ("bad_link", "vertex 'v' has a non-circular link", "c3", lambda r: r["faces"].pop()),
    (
        "bad_link", "vertex 1 has a disconnected link",
        "conifold", lambda r: r["faces"][0].update(boundary=["a1", "b1", "a2", "b2"]),
    ),
    ("disconnected", "underlying quiver is not connected", "c3", c3_twice),
    ("duplicate_vertex", "duplicate vertex id", "c3", lambda r: r["vertices"].append("v")),
]


@pytest.mark.parametrize("case", range(len(INVALID)))
def test_each_validator_family_refuses_its_edit(case, tmp_path):
    code, message, name, edit = INVALID[case]
    raw = json.loads((DATA / f"{name}.json").read_text())
    edit(raw)
    rep = dimer_from_dict(raw).validate()
    assert not rep.ok and (code, message) in {(i.code, i.message) for i in rep.issues}, rep.issues
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    rc, out, err = main_in_process("validate", str(p), "--format", "json")
    data = json.loads(out)
    assert (rc, err, data["valid"], data["zigzag_consistent"]) == (1, "", False, None)
    assert [i["code"] for i in data["issues"]] == [i.code for i in rep.issues]
    assert data["issues"] == [{"code": i.code, "message": i.message, "witness": i.witness} for i in rep.issues]


@pytest.mark.parametrize("name,vertex", [("conifold", 2), ("c3", "v")])
def test_a_repeated_vertex_id_is_one_issue(name, vertex):
    # counted once in the Euler characteristic, so the torus stays a torus
    raw = json.loads((DATA / f"{name}.json").read_text())
    raw["vertices"].append(vertex)
    rep = dimer_from_dict(raw).validate()
    assert [(i.code, i.witness) for i in rep.issues] == [("duplicate_vertex", vertex)]


def test_unhashable_arrow_endpoint_stays_a_validation_issue(tmp_path):
    # accepted as a file and reported by the validator, as before
    raw = json.loads((DATA / "conifold.json").read_text())
    raw["arrows"][0]["tail"] = [1]
    p = tmp_path / "bad_tail.json"
    p.write_text(json.dumps(raw))
    rc, out, err = run_cli("validate", str(p))
    assert rc == 1 and "Traceback" not in err
    assert "arrow 'a1' references unknown vertex [1]" in [i["message"] for i in json.loads(out)["issues"]]


# -- error paths on inconsistent dimers, pinned ----------------------------------


# sha256 over (dimer name, command, exit code, stdout, stderr) of `validate`,
# `zigzags`, `polytope` and `dual` on every single-arrow subdivision of the
# dimer, each of them zigzag inconsistent (100 dimers, 400 runs); computed
# before `polytope` stopped putting the parallel families in order, which
# moved the checks that raise on such dimers.
INCONSISTENT_OUTPUT_SHA256 = {
    ("c3", 1, 1): "4c0eab9bcbb47fdfbffd0b7b5f87103b122f4e05936a05cbd4090e103c95ab0b",
    ("conifold", 1, 1): "6f80a73547dd0e1c0bb99633457b124fa6ddfa53310127e1f91e1cf2c566dbde",
    ("spp", 1, 1): "70a0ab6bf5f1f1c8f557f1db6b6f8d10d3ea0a4a4f1bbe09dfae7f1b67ae3952",
    ("c3", 2, 1): "6f89e8971f4b7374bf7e1cee95cf54f88d279c8fccacf1b7af5782f001d7c44f",
    ("spp", 2, 1): "429434249244cfc0851f1566cab283b041473d83d6fdcd33cf75979d6cb4b313",
    ("conifold", 2, 2): "ec9fc2070038ef03bd8948b0c4e67fe4218e768a5f5b8bcaa726084e49f236a9",
}


@pytest.mark.parametrize("name,k,l", list(INCONSISTENT_OUTPUT_SHA256))
def test_error_paths_are_byte_identical_on_inconsistent_dimers(name, k, l, covers, tmp_path, monkeypatch):
    from test_dimer import subdivisions

    raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for data in subdivisions(raw):
        Path("dimer.json").write_text(json.dumps(data))
        for cmd in ("validate", "zigzags", "polytope", "dual"):
            rc, out, err = main_in_process(cmd, "dimer.json")
            h.update(repr((data["name"], cmd, rc, out, err)).encode())
    assert h.hexdigest() == INCONSISTENT_OUTPUT_SHA256[(name, k, l)]


@pytest.mark.parametrize("name,k,l", list(INCONSISTENT_OUTPUT_SHA256))
def test_sh_refuses_inconsistent_dimers_like_hh(name, k, l, covers, tmp_path, monkeypatch):
    from test_dimer import subdivisions

    raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
    monkeypatch.chdir(tmp_path)
    for data in subdivisions(raw):
        Path("dimer.json").write_text(json.dumps(data))
        rc, out, err = main_in_process("sh", "dimer.json")
        assert (rc, out) == (1, ""), data["name"]
        assert err.startswith("error: dimer is not zigzag consistent: "), data["name"]
        assert err == main_in_process("hh", "dimer.json")[2], data["name"]
