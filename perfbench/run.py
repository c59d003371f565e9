"""Closed-loop benchmark of the ``dimermirror`` command line, run in process.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 40 --trace 0

One client in one process calls ``dimermirror.cli.main([command, file])``
back to back; each call reads its own freshly generated, relabeled input
file, so no two calls share an input.  Standard output of every call is
captured and checked against facts the generator knows independently of the
package.  The last line printed is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, timed
at reference speed (see ``reference_work``), with ``--trace 0``; the
per-module metrics with ``--trace 1``.  ``--out DIR`` also writes the full
result, with the run context, to ``DIR`` (and the raw spans of a traced
run, one JSON array per line).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from covers import BASE_AREA, ROOT, SRC, cover, load_base, relabel  # noqa: E402

# Workloads: the command and the input kinds (base dimer, k, l) taken round-robin.
#   bundled: fixed per-call cost of verify on the smallest dimers; the
#     matchings module is about 1% of the work here.
#   strip-covers: parallel multiplicity 4 on two classes, so the psi/theta
#     families appear; zigzag-path enumeration in MirrorSH dominates.
#   dense-polytope: 2,624 perfect matchings per input; exact-cover
#     enumeration dominates and MirrorSH, hochschild and ks never run.
WORKLOADS = {
    "bundled": ("verify", [("c3", 1, 1), ("conifold", 1, 1), ("spp", 1, 1)]),
    "strip-covers": ("verify", [("conifold", 4, 1), ("conifold", 1, 4)]),
    "dense-polytope": ("polytope", [("conifold", 4, 3), ("conifold", 3, 4)]),
}

SETUP_REPEATS = 15

# Speed gauge.  The measuring machine drifts: for seconds to minutes at a time
# everything, the package and any fixed loop alike, runs 30-45% faster, and
# wall times of ten 40 s runs spread by up to 0.29 of their median.  So
# every op is followed by one run of ``reference_work``, a fixed piece of
# pure-Python work, and each timed event is scaled by REF_MS / (median time
# of the 2 * GAUGE_NEIGHBOURS + 1 reference runs nearest to it).  The result
# is wall time at the speed at which ``reference_work`` takes REF_MS: a
# change to the package moves it, a change of machine speed does not.  The
# unscaled wall-clock figures are kept in the run context under "wall".
REF_MS = 2.0
GAUGE_NEIGHBOURS = 3

# Set-up as a user pays it: a fresh interpreter imports the CLI, then parses
# and validates one input.  Timed inside the child, so interpreter start-up
# (not the package's cost) is left out.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dimermirror.cli
d = dimermirror.io.parse_dimer(sys.argv[2])
if not d.validate().ok:
    sys.exit(1)
print(time.perf_counter() - t0)
"""


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def reference_work() -> int:
    """Fixed pure-Python work in the package's style: tuple-keyed dicts,
    sorting, recursion, set unions and string building.  It shares no code
    with the package, so only the machine's speed changes its time."""
    d = {}
    for i in range(1500):
        d[(i * 7919) % 1009, i % 13] = i
    total = 0
    for (a, b), v in sorted(d.items()):
        total += (a * b) ^ v
    total += _fib(13)
    seen = set()
    for i in range(300):
        seen |= frozenset((i, (i * 3) % 50, (i * 7) % 50))
    return total + len(seen) + len(",".join(str(i) for i in range(1000)))


def time_reference() -> float:
    """Seconds for one ``reference_work``.  The cyclic collector is off
    meanwhile, so the size of the package's heap cannot change the time."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_scales(refs: list) -> list:
    """Factor for each position of ``refs``: REF_MS over the median of its nearest reference times."""
    g = GAUGE_NEIGHBOURS
    return [REF_MS / 1e3 / statistics.median(refs[max(0, i - g): i + g + 1]) for i in range(len(refs))]


class Inputs:
    """Seeded, relabeled input files; input ``i`` of a run is a pure function of (seed, workload, i)."""

    def __init__(self, workload: str, seed: int, tmpdir: Path):
        self.command, kinds = WORKLOADS[workload]
        self.workload, self.seed, self.tmpdir = workload, seed, tmpdir
        self.kinds = []
        for base, k, l in kinds:
            d = cover(load_base(base), k, l)
            self.kinds.append({
                "dimer": d,
                "facts": {
                    "kind": d["name"],
                    "base": base,
                    "index": k * l,
                    "vertices": len(d["vertices"]),
                    "arrows": len(d["arrows"]),
                    "faces": len(d["faces"]),
                },
            })

    def make(self, tag: str, i: int):
        """Write input ``i`` (stream ``tag``) and return (path, facts)."""
        kind = self.kinds[i % len(self.kinds)]
        rng = random.Random(f"{self.seed}/{self.workload}/{tag}/{i}")
        path = self.tmpdir / f"{tag}-{i}.json"
        path.write_text(json.dumps(relabel(kind["dimer"], rng)), encoding="utf-8")
        return path, kind["facts"]


def check_output(command: str, code: int, text: str, facts: dict):
    """None if the output is right, else the reason it is not.

    verify: exit code 0, ``"passed": true`` and no failed check.
    polytope: normalized area = index x base area = |Q0|, and Pick's
    identity area = 2I + B - 2 on the reported lattice-point counts.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return "output is not JSON"
    if command == "verify":
        if data.get("passed") is not True:
            return f"passed is {data.get('passed')!r}"
        checks = data.get("checks")
        if not isinstance(checks, list) or not checks:
            return "no checks reported"
        failed = [c.get("name") for c in checks if c.get("status") == "fail"]
        if failed:
            return f"failed checks {failed[:3]}"
        return None
    area = data.get("normalized_area")
    b, i = data.get("boundary_lattice_points"), data.get("interior_lattice_points")
    expected = facts["index"] * BASE_AREA[facts["base"]]
    if not (area == expected == facts["vertices"]):
        return f"normalized area {area!r}, expected {expected} = |Q0| {facts['vertices']}"
    if not (isinstance(b, int) and isinstance(i, int) and area == 2 * i + b - 2):
        return f"Pick's identity fails: area {area!r}, I {i!r}, B {b!r}"
    return None


def run_op(main, command: str, path: Path, facts: dict):
    """One CLI call; returns (seconds, reason or None, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    except Exception as exc:  # an op that raises is a failed op, not a crash of the run
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", ""
    elapsed = time.perf_counter() - start
    return elapsed, check_output(command, code, out.getvalue(), facts), out.getvalue()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []
        self.checks: dict = {}

    def add(self, reason, facts: dict, text: str) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{facts['kind']}: {reason}")
            return False
        if facts["kind"] not in self.checks and '"checks"' in text:
            self.checks[facts["kind"]] = len(json.loads(text)["checks"])
        return True


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(0, math.ceil(len(s) * q / 100) - 1)]


def setup_once(path: Path) -> float:
    """One fresh interpreter: import + parse + validate, in seconds, timed inside the child."""
    res = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(path)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if res.returncode != 0:
        raise RuntimeError(f"set-up child failed: {res.stderr.strip()[-400:]}")
    return float(res.stdout.strip())


def warm_up(main, inputs: Inputs, tally: Tally) -> None:
    """One untimed op per input kind, so lazy imports and caches are filled before timing."""
    for i in range(len(inputs.kinds)):
        path, facts = inputs.make("warmup", i)
        _, reason, text = run_op(main, inputs.command, path, facts)
        tally.add(reason, facts, text)
        path.unlink()


def run_untraced(main, inputs: Inputs, seconds: float, tally: Tally):
    setup_path, _ = inputs.make("setup", 0)
    setup_once(setup_path)  # writes the bytecode caches; not counted
    warm_up(main, inputs, tally)
    for _ in range(2 * GAUGE_NEIGHBOURS):
        time_reference()
    lat, refs, ok, setup, setup_at = [], [], [], [], []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds or len(lat) < len(inputs.kinds):
        # Set-up children are spread evenly over the window, so their median
        # sees the same machine drift as the ops rather than one moment of it.
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_once(setup_path))
            setup_at.append(len(lat))
            continue
        path, facts = inputs.make("op", len(lat))
        dt, reason, text = run_op(main, inputs.command, path, facts)
        lat.append(dt)
        refs.append(time_reference())
        ok.append(tally.add(reason, facts, text))
        path.unlink()
    window = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scales = speed_scales(refs)
    scaled = [dt * f for dt, f in zip(lat, scales)]
    scaled_setup = [s * scales[min(j, len(scales) - 1)] for s, j in zip(setup, setup_at)]
    # The input kinds of a workload differ in cost, so the pooled median of an
    # even mix falls in the gap between their modes and jumps from run to run.
    # The median of each kind, averaged over the kinds, does not.
    k = len(inputs.kinds)

    def p50(samples):
        return statistics.mean(statistics.median(samples[i::k]) for i in range(k))

    metrics = {
        "ops_per_s": (sum(ok) / sum(scaled), "ops/s"),
        "latency_ms_p50": (p50(scaled) * 1e3, "ms"),
        "latency_ms_p90": (percentile(scaled, 90) * 1e3, "ms"),
        "success_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "setup_s": (statistics.median(scaled_setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "samples": len(lat),
        "setup_samples": len(setup),
        "window_s": window,
        "fail_frac": tally.failed / tally.attempted,
        "wall": {
            "ops_per_s": sum(ok) / sum(lat),
            "latency_ms_p50": p50(lat) * 1e3,
            "latency_ms_p90": percentile(lat, 90) * 1e3,
            "setup_s": statistics.median(setup),
            "reference_ms_p50": statistics.median(refs) * 1e3,
            "reference_ms_min": min(refs) * 1e3,
            "reference_ms_max": max(refs) * 1e3,
        },
    }
    return metrics, extra


def run_traced(main, inputs: Inputs, seconds: float, tally: Tally):
    from spans import Tracer, module_self_shares, span_stats

    tracer = Tracer()
    warm_up(main, inputs, tally)
    # Pairs of one untraced and one traced op on fresh inputs of the same kind,
    # so the overhead compares like with like.
    untraced, traced, in_bytes, out_bytes, checks, checks_failed = [], [], 0, 0, 0, 0
    start = time.perf_counter()
    pair = 0
    while time.perf_counter() - start < seconds:
        path, facts = inputs.make("plain", pair)
        dt, reason, text = run_op(main, inputs.command, path, facts)
        untraced.append(dt)
        tally.add(reason, facts, text)
        path.unlink()
        path, facts = inputs.make("traced", pair)
        in_bytes += path.stat().st_size
        tracer.install()
        try:
            dt, reason, text = tracer.run_op(pair, lambda: run_op(main, inputs.command, path, facts))
        finally:
            tracer.uninstall()
        traced.append(dt)
        tally.add(reason, facts, text)
        out_bytes += len(text.encode("utf-8"))
        if inputs.command == "verify":
            try:
                rows = json.loads(text).get("checks", [])
            except json.JSONDecodeError:
                rows = []
            checks += len(rows)
            checks_failed += sum(1 for c in rows if c.get("status") == "fail")
        path.unlink()
        pair += 1
    # Memory pass, untimed: tracemalloc slows allocation, so it gets its own ops.
    mem_tracer = Tracer(track_memory=True)
    tracemalloc.start()
    try:
        for i in range(len(inputs.kinds)):
            path, facts = inputs.make("memory", i)
            mem_tracer.install()
            try:
                _, reason, text = mem_tracer.run_op(i, lambda: run_op(main, inputs.command, path, facts))
            finally:
                mem_tracer.uninstall()
            tally.add(reason, facts, text)
            path.unlink()
    finally:
        tracemalloc.stop()

    n = len(traced)
    st = span_stats(tracer.spans)

    def calls(*names):
        return sum(st.get(x, {}).get("calls", 0) for x in names) / n

    def self_ms(*names):
        return sum(st.get(x, {}).get("self_s", 0.0) for x in names) * 1e3 / n

    def size(*names):
        return sum(st.get(x, {}).get("size", 0) for x in names) / n

    diffs = ("hochschild.d0", "hochschild.d1", "hochschild.d2")
    enum_calls = calls("matchings.enumerate")
    paths = size("mirror_sh.zigzag_paths")
    peaks = mem_tracer.matchings_peaks
    metrics = {
        "io.parse_ms": (self_ms("io.parse"), "ms"),
        "io.input_kib": (in_bytes / 1024 / n, "KiB"),
        "cli.emit_ms": (self_ms("cli.emit"), "ms"),
        "cli.output_kib": (out_bytes / 1024 / n, "KiB"),
        "dimer.consistency_calls": (calls("dimer.consistency"), "count"),
        "dimer.consistency_ms": (self_ms("dimer.consistency"), "ms"),
        "dimer.parallel_classes_calls": (calls("dimer.parallel_classes"), "count"),
        "dimer.zigzag_cycles_calls": (calls("dimer.zigzag_cycles"), "count"),
        "dimer.zigzag_cycles_ms": (self_ms("dimer.zigzag_cycles"), "ms"),
        "dimer.strips_calls": (calls("dimer.strips"), "count"),
        "dimer.strips_ms": (self_ms("dimer.strips"), "ms"),
        "dimer.dual_ms": (self_ms("dimer.dual"), "ms"),
        "matchings.enumerate_calls": (enum_calls, "count"),
        "matchings.enumerate_ms": (self_ms("matchings.enumerate"), "ms"),
        "matchings.count": (size("matchings.enumerate") / enum_calls if enum_calls else 0.0, "count"),
        "matchings.polytope_ms": (self_ms("matchings.polytope"), "ms"),
        "matchings.peak_kib": (statistics.mean(peaks) / 1024 if peaks else 0.0, "KiB"),
        "jacobi.init_calls": (calls("jacobi.init"), "count"),
        "jacobi.init_ms": (self_ms("jacobi.init"), "ms"),
        "jacobi.canonical_form_calls": (calls("jacobi.canonical_form"), "count"),
        "hochschild.init_calls": (calls("hochschild.init"), "count"),
        "hochschild.init_ms": (self_ms("hochschild.init"), "ms"),
        "hochschild.diff_calls": (calls(*diffs), "count"),
        "hochschild.diff_ms": (self_ms(*diffs), "ms"),
        "hochschild.diff_terms": (size(*diffs), "count"),
        "mirror_sh.init_ms": (self_ms("mirror_sh.init"), "ms"),
        "mirror_sh.zigzag_paths_calls": (calls("mirror_sh.zigzag_paths"), "count"),
        "mirror_sh.zigzag_paths_ms": (self_ms("mirror_sh.zigzag_paths"), "ms"),
        "mirror_sh.paths_enumerated": (paths, "count"),
        "mirror_sh.path_yield": (size("mirror_sh.xi_for_strip") / paths if paths else 0.0, "ratio"),
        "ks.init_ms": (self_ms("ks.init"), "ms"),
        "ks.dimension_ms": (self_ms("ks.dimension"), "ms"),
        "ks.chain_ms": (self_ms("ks.chain"), "ms"),
        "ks.singularity_ms": (self_ms("ks.singularity"), "ms"),
        "ks.checks": (checks / n, "count"),
        "ks.checks_failed": (checks_failed / n, "count"),
        "op.untraced_ms": (statistics.median(untraced) * 1e3, "ms"),
        "op.traced_ms": (statistics.median(traced) * 1e3, "ms"),
        "trace.overhead_ratio": (sum(traced) / sum(untraced), "ratio"),
    }
    extra = {"samples": n, "module_self_share": module_self_shares(st)}
    return metrics, extra, tracer.spans


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; ``unknown`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args, inputs: Inputs, tally: Tally) -> dict:
    from dimermirror.io import dimer_from_dict
    from dimermirror.matchings import enumerate_perfect_matchings

    sizes = []
    for kind in inputs.kinds:
        f = dict(kind["facts"])
        f["matchings"] = len(enumerate_perfect_matchings(dimer_from_dict(kind["dimer"])))
        f["checks"] = tally.checks.get(f["kind"], 0)
        sizes.append(f)
    return {
        "workload": args.workload,
        "command": inputs.command,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "machine": {
            "nproc": os.cpu_count(),
            "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
            "python": platform.python_version(),
            "arch": platform.machine(),
        },
        "inputs": sizes,
        "loop": "closed, one client in one process",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="directory for the full result")
    args = ap.parse_args(argv)

    if not (SRC / "dimermirror" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/dimermirror", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dimermirror.cli

    if Path(dimermirror.cli.__file__).resolve().parent != SRC / "dimermirror":
        print(f"error: imported dimermirror from {dimermirror.cli.__file__}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        inputs = Inputs(args.workload, args.seed, tmp)
        tally = Tally()
        spans = None
        if args.trace:
            metrics, extra, spans = run_traced(dimermirror.cli.main, inputs, args.seconds, tally)
        else:
            metrics, extra = run_untraced(dimermirror.cli.main, inputs, args.seconds, tally)
        ctx = context(args, inputs, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "context": ctx,
        "run": extra,
        "failures": tally.reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        Path(f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        if spans is not None:
            with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
                for s in spans:
                    fh.write(json.dumps(s) + "\n")

    print(json.dumps({"context": ctx, "run": extra, "failures": tally.reasons}))
    for k, (v, u) in metrics.items():
        print(f"{args.workload:15s} {k:30s} {v:14.4f} {u}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
