"""Run every workload, untraced then traced, and print one table of the results.

    python3 perfbench/report.py --seed 1 --seconds 40

Each run is a separate ``run.py`` process.  The combined result, with the
run context of each run, is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from covers import ROOT
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "report.json")
    args = ap.parse_args(argv)

    runs_dir = args.out.parent / "runs"
    results = {}
    for trace in (0, 1):
        for w in WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(runs_dir)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results[(w, trace)] = json.loads(
                (runs_dir / f"{w}-seed{args.seed}-trace{trace}.json").read_text(encoding="utf-8")
            )

    names = list(WORKLOADS)
    print(f"{'end-to-end':30s}" + "".join(f"{w:>18s}" for w in names) + "  unit")
    for metric, cell in results[(names[0], 0)]["metrics"].items():
        row = "".join(f"{results[(w, 0)]['metrics'][metric]['value']:18.4f}" for w in names)
        print(f"{metric:30s}{row}  {cell['unit']}")
    for key in ("fail_frac", "samples"):
        print(f"{key:30s}" + "".join(f"{results[(w, 0)]['run'][key]:18.4f}" for w in names))
    for key in results[(names[0], 0)]["run"]["wall"]:
        print(f"{'wall.' + key:30s}" + "".join(f"{results[(w, 0)]['run']['wall'][key]:18.4f}" for w in names))
    print()
    print(f"{'per module (traced)':30s}" + "".join(f"{w:>18s}" for w in names) + "  unit")
    for metric, cell in results[(names[0], 1)]["metrics"].items():
        row = "".join(f"{results[(w, 1)]['metrics'][metric]['value']:18.4f}" for w in names)
        print(f"{metric:30s}{row}  {cell['unit']}")
    print()
    print(f"{'module self-time share':30s}" + "".join(f"{w:>18s}" for w in names))
    modules = sorted({m for w in names for m in results[(w, 1)]["run"]["module_self_share"]})
    for m in modules:
        print(f"{m:30s}" + "".join(f"{results[(w, 1)]['run']['module_self_share'].get(m, 0.0):18.4f}" for w in names))
    print()
    for w in names:
        m = results[(w, 1)]["metrics"]
        top = max((k for k in m if k.endswith("_ms") and not k.startswith("op.")), key=lambda k: m[k]["value"])
        print(f"largest per-module time on {w}: {top} = {m[top]['value']:.4f} ms")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    combined = {w: {"untraced": results[(w, 0)], "traced": results[(w, 1)]} for w in names}
    args.out.write_text(json.dumps(combined, indent=2) + "\n", encoding="utf-8")
    print(f"\nwritten to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
