"""Tests of the benchmark itself: its inputs, its output checks and its spans.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from covers import SRC, cover, load_base, relabel  # noqa: E402

sys.path.insert(0, str(SRC))
import dimermirror.cli  # noqa: E402
from dimermirror import is_zigzag_consistent  # noqa: E402
from dimermirror.io import dimer_from_dict  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402


def counts(d: dict) -> tuple:
    return len(d["vertices"]), len(d["arrows"]), len(d["faces"])


@pytest.mark.parametrize(
    "base,k,l",
    [("c3", 2, 2), ("c3", 3, 1), ("conifold", 4, 1), ("conifold", 1, 4), ("conifold", 4, 3), ("spp", 2, 1)],
)
def test_cover_scales_counts_and_stays_consistent(base, k, l):
    b = load_base(base)
    c = cover(b, k, l)
    assert counts(c) == tuple(k * l * n for n in counts(b))
    d = dimer_from_dict(c)
    assert d.validate().ok
    assert is_zigzag_consistent(d) == (True, None)


def test_cover_one_by_one_is_the_base():
    b = load_base("spp")
    c = cover(b, 1, 1)
    assert {a["id"]: a["shift"] for a in b["arrows"]} == {
        a["id"].rsplit("_", 2)[0]: a["shift"] for a in c["arrows"]
    }
    assert [f["boundary"] for f in b["faces"]] == [
        [x.rsplit("_", 2)[0] for x in f["boundary"]] for f in c["faces"]
    ]


@pytest.mark.parametrize("seed", range(5))
def test_relabel_validates_and_keeps_counts(seed):
    c = cover(load_base("conifold"), 2, 1)
    r = relabel(c, random.Random(seed))
    assert counts(r) == counts(c)
    assert sorted(len(f["boundary"]) for f in r["faces"]) == sorted(len(f["boundary"]) for f in c["faces"])
    assert not set(r["vertices"]) & set(c["vertices"])
    assert dimer_from_dict(r).validate().ok


def test_relabel_is_seeded():
    c = cover(load_base("spp"), 1, 2)
    assert relabel(c, random.Random(7)) == relabel(c, random.Random(7))
    assert relabel(c, random.Random(7)) != relabel(c, random.Random(8))


FACTS = {"kind": "conifold_2x1", "base": "conifold", "index": 2, "vertices": 4}


def test_polytope_output_checks():
    good = {"normalized_area": 4, "boundary_lattice_points": 6, "interior_lattice_points": 0}
    assert run.check_output("polytope", 0, json.dumps(good), FACTS) is None
    for key, delta in [("normalized_area", 1), ("normalized_area", -1), ("boundary_lattice_points", 1)]:
        bad = dict(good, **{key: good[key] + delta})
        assert run.check_output("polytope", 0, json.dumps(bad), FACTS) is not None
    assert run.check_output("polytope", 1, json.dumps(good), FACTS) is not None
    assert run.check_output("polytope", 0, "not json", FACTS) is not None


def test_verify_output_checks():
    ok = {"passed": True, "checks": [{"name": "a", "status": "pass"}]}
    assert run.check_output("verify", 0, json.dumps(ok), FACTS) is None
    assert run.check_output("verify", 0, json.dumps(dict(ok, passed=False)), FACTS) is not None
    assert run.check_output("verify", 0, json.dumps(dict(ok, checks=[])), FACTS) is not None
    failed = dict(ok, checks=[{"name": "a", "status": "fail"}])
    assert run.check_output("verify", 0, json.dumps(failed), FACTS) is not None
    assert run.check_output("verify", 1, json.dumps(ok), FACTS) is not None


def test_corrupted_output_counts_as_failure(tmp_path):
    inputs = run.Inputs("dense-polytope", 1, tmp_path)
    path, facts = inputs.make("op", 0)
    tally = run.Tally()
    real = run.run_op(dimermirror.cli.main, "polytope", path, facts)
    tally.add(real[1], facts, real[2])
    data = json.loads(real[2])
    data["normalized_area"] += 1

    def corrupted(argv):
        print(json.dumps(data))
        return 0

    def raising(argv):
        raise RuntimeError("boom")

    for fake in (corrupted, raising):
        _, reason, text = run.run_op(fake, "polytope", path, facts)
        tally.add(reason, facts, text)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_bundled_verify_op_passes(tmp_path):
    inputs = run.Inputs("bundled", 3, tmp_path)
    for i in range(3):
        path, facts = inputs.make("op", i)
        _, reason, _ = run.run_op(dimermirror.cli.main, "verify", path, facts)
        assert reason is None


def test_speed_scales_follow_the_nearest_reference_times():
    # The reference work runs at 2 ms, then the machine slows to 4 ms: each op
    # is scaled by the reference times around it, not by the run's median.
    refs = [0.002] * 30 + [0.004] * 30
    scales = run.speed_scales(refs)
    assert scales[0] == pytest.approx(run.REF_MS / 2)
    assert scales[-1] == pytest.approx(run.REF_MS / 4)
    slow_ops = [0.010 * 2 if r == 0.004 else 0.010 for r in refs]
    assert {round(dt * f, 9) for dt, f in zip(slow_ops, scales)} == {round(0.010 * run.REF_MS / 2, 9)}


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    import dimermirror.jacobi
    import dimermirror.matchings

    originals = (dimermirror.matchings.matching_polytope, dimermirror.jacobi.matching_polytope,
                 dimermirror.cli.matching_polytope, dimermirror.jacobi.Jacobi.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dimermirror.jacobi.matching_polytope is dimermirror.cli.matching_polytope
        assert dimermirror.jacobi.matching_polytope.__wrapped__ is originals[0]
        path, facts = run.Inputs("bundled", 1, tmp_path).make("op", 1)
        _, reason, _ = tracer.run_op(0, lambda: run.run_op(dimermirror.cli.main, "verify", path, facts))
    finally:
        tracer.uninstall()
    assert reason is None
    assert (dimermirror.matchings.matching_polytope, dimermirror.jacobi.matching_polytope,
            dimermirror.cli.matching_polytope, dimermirror.jacobi.Jacobi.__init__) == originals
    st = spans.span_stats(tracer.spans)
    assert st["op"]["calls"] == 1
    assert st["matchings.enumerate"]["calls"] == 2
    assert st["matchings.enumerate"]["size"] == 2 * 4  # the conifold has 4 perfect matchings
    assert st["ks.init"]["calls"] == st["jacobi.init"]["calls"] == 1
    total_self = sum(s["self_s"] for s in st.values())
    assert total_self == pytest.approx(st["op"]["total_s"])


def test_self_time_subtracts_direct_children():
    # op 0: root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8]
    sp = [
        (0, 3, 2, "c", 6.0, 8.0, None),
        (0, 1, 0, "a", 1.0, 4.0, None),
        (0, 2, 0, "b", 5.0, 9.0, 5),
        (0, 0, None, "op", 0.0, 10.0, None),
    ]
    st = spans.span_stats(sp)
    assert st["op"]["self_s"] == 3.0
    assert st["b"]["self_s"] == 2.0
    assert st["c"]["self_s"] == 2.0
    assert st["b"]["size"] == 5


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_the_declared_metrics(trace, section, capsys):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
    assert run.main(["--workload", "bundled", "--seed", "2", "--seconds", "0.3", "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
