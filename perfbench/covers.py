"""Benchmark inputs: diagonal lattice covers of the bundled dimers, relabeled.

Everything here works on the plain JSON form of a dimer (``name``,
``vertices``, ``arrows`` with ``shift``, ``faces`` with ``sign`` and
``boundary``) and imports nothing from the package under test, so the
inputs and the facts recorded about them stay independent of that code.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "dimermirror" / "data"

# Normalized area of each bundled dimer's matching polygon; it equals |Q0|.
BASE_AREA = {"c3": 1, "conifold": 2, "spp": 3}


def load_base(name: str) -> dict:
    """The bundled dimer as a plain dict, read straight from its JSON file."""
    return json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))


def cover(base: dict, k: int, l: int) -> dict:
    """The k x l diagonal lattice cover: the torus unrolled k times along x, l along y.

    Copy (i, j) of arrow a runs from copy (i, j) of its tail to the copy of
    its head reached by adding the shift; the new shift records the wrap
    around the larger torus.  Faces are lifted the same way, one per copy.
    """
    arrows = {a["id"]: a for a in base["arrows"]}

    def lift(i, j, aid):
        sx, sy = arrows[aid]["shift"]
        return (i + sx) % k, (j + sy) % l, ((i + sx) // k, (j + sy) // l)

    out_arrows = []
    for i in range(k):
        for j in range(l):
            for a in base["arrows"]:
                hi, hj, shift = lift(i, j, a["id"])
                out_arrows.append({
                    "id": f"{a['id']}_{i}_{j}",
                    "tail": f"{a['tail']}_{i}_{j}",
                    "head": f"{a['head']}_{hi}_{hj}",
                    "shift": list(shift),
                })
    out_faces = []
    for i in range(k):
        for j in range(l):
            for f in base["faces"]:
                boundary, ci, cj = [], i, j
                for aid in f["boundary"]:
                    boundary.append(f"{aid}_{ci}_{cj}")
                    ci, cj, _ = lift(ci, cj, aid)
                if (ci, cj) != (i, j):
                    raise ValueError(f"face {f['boundary']} does not close in the cover")
                out_faces.append({"sign": f["sign"], "boundary": boundary})
    return {
        "name": f"{base['name']}_{k}x{l}",
        "vertices": [f"{v}_{i}_{j}" for i in range(k) for j in range(l) for v in base["vertices"]],
        "arrows": out_arrows,
        "faces": out_faces,
    }


def relabel(d: dict, rng: random.Random) -> dict:
    """An isomorphic copy: fresh vertex and arrow ids, shuffled lists, rotated faces."""
    vnames = rng.sample(range(10 * len(d["vertices"]) + 10), len(d["vertices"]))
    vmap = {v: f"v{n}" for v, n in zip(d["vertices"], vnames)}
    anames = rng.sample(range(10 * len(d["arrows"]) + 10), len(d["arrows"]))
    amap = {a["id"]: f"e{n}" for a, n in zip(d["arrows"], anames)}
    vertices = [vmap[v] for v in d["vertices"]]
    rng.shuffle(vertices)
    arrows = [
        {"id": amap[a["id"]], "tail": vmap[a["tail"]], "head": vmap[a["head"]], "shift": list(a["shift"])}
        for a in d["arrows"]
    ]
    rng.shuffle(arrows)
    faces = []
    for f in d["faces"]:
        b = [amap[x] for x in f["boundary"]]
        r = rng.randrange(len(b))
        faces.append({"sign": f["sign"], "boundary": b[r:] + b[:r]})
    rng.shuffle(faces)
    return {"name": d["name"], "vertices": vertices, "arrows": arrows, "faces": faces}
