"""Command-line interface: inspection subcommands, the verifier, and reports.

JSON output is byte-stable: keys sorted, two-space indent, ASCII escapes,
exactly the text of ``json.dumps(..., indent=2, sort_keys=True)``, so reports
can be pinned by hash.  ``main`` is safe to call repeatedly in one process: it
builds the argument parser on its first call and reuses it, and each call
parses its arguments afresh.  A closed output pipe ends a call with exit code
1 and no traceback.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

from .dimer import (
    Dimer,
    DimerError,
    HochschildError,
    JacobiError,
    SHError,
    anti_zigzag,
    dimer_isomorphic,
    dual_dimer,
    face_word_at,
    is_zigzag_consistent,
    surface_invariants,
    word_key,
    zigzag_cycles,
)
from .io import BUNDLED, DimerFormatError, dimer_to_dict, load_bundled, parse_dimer
from .matchings import ENUMERATION_GATE, corner_matchings_in_order, kasteleyn_count, matching_polytope

# The Jacobi, Koszul, SH and verifier layers are imported inside the commands
# that run them, so the inspection commands never load them.

EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE = 0, 1, 2

# what the pipeline raises on input it cannot handle
PIPELINE_ERRORS = (DimerError, DimerFormatError, JacobiError, HochschildError, SHError)


def _load(path: str, base_vertex=None) -> Dimer:
    if os.path.isfile(path):
        d = parse_dimer(path)
    elif path in BUNDLED:
        d = load_bundled(path)
    else:
        raise DimerFormatError(f"no such file or bundled dimer: {path}")
    if base_vertex is not None:
        d = with_base_vertex(d, base_vertex)
    return d


def with_base_vertex(d: Dimer, v) -> Dimer:
    """Reorder the vertex list so v comes first (it anchors strip indexing)."""
    candidates = [u for u in d.vertices if str(u) == str(v) or u == v]
    if not candidates:
        raise DimerError(f"no vertex {v!r} in dimer {d.name!r}")
    v = candidates[0]
    verts = (v,) + tuple(u for u in d.vertices if u != v)
    return Dimer(d.name, verts, d.arrows, d.faces)


def _jsonable(x):
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if isinstance(x, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = list(x)
        if isinstance(x, (set, frozenset)):
            items = sorted(items, key=lambda t: str(t))
        return [_jsonable(v) for v in items]
    if hasattr(x, "as_dict"):
        return _jsonable(x.as_dict())
    if hasattr(x, "__dict__"):
        return _jsonable(vars(x))
    return str(x)


def _failure(exc: Exception) -> dict:
    """Failure JSON: the message and the stage, i.e. the module whose code raised."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    stage = os.path.splitext(os.path.basename(tb.tb_frame.f_code.co_filename))[0]
    return {"passed": False, "error": str(exc), "stage": stage}


def _emit(data, fmt: str, title: str) -> None:
    """Print data as JSON (``_write``) or as markdown under the given title.

    The JSON layout table lives for this one call: its keys carry whatever
    keys the data has, vertex ids among them, so a table kept across calls
    would grow with every input a long-running process sees.
    """
    if fmt == "json":
        print(_write(data, "\n", {}))
    else:
        print(_markdown(data, title))


# exact type -> its JSON text, for the scalars written inline
_SCALARS = {
    str: _escape,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _layout(keys, inner: str) -> list:
    """(key, the text before its value) for each key, in sorted order."""
    return [(k, ("," if i else "{") + inner + _escape(k) + ": ") for i, k in enumerate(sorted(keys))]


def _write(x, nl: str, layouts: dict) -> str:
    """The text of ``json.dumps(_jsonable(x), indent=2, sort_keys=True)``.

    One pass over x, converting as ``_jsonable`` does on the way, so the
    indented text comes out without the pure-Python encoder ``json`` falls
    back to when ``indent`` is set.  ``nl`` is the newline and indent of the
    current level.  Each container's text is joined once; a member whose
    exact type is in ``_SCALARS`` is written inline, and only other members
    recurse.  A dict whose keys are all of exact type ``str`` takes its
    layout, the sorted keys each with the text before its value, from
    ``layouts``, keyed by (its keys in insertion order, nl), and adds it there
    on first sight, so dicts of one shape are sorted and escaped once.
    """
    inner = nl + "  "
    scalar = _SCALARS.get
    if isinstance(x, dict):
        if not x:
            return "{}"
        keys = tuple(x)
        for k in keys:
            if type(k) is not str:
                # the later of two keys equal under str() wins, as in _jsonable
                x = {k if type(k) is str else str(_jsonable(k)): v for k, v in x.items()}
                layout = _layout(x, inner)
                break
        else:
            layout = layouts.get((keys, nl))
            if layout is None:
                layout = layouts[keys, nl] = _layout(keys, inner)
        parts = []
        put = parts.append
        for k, before in layout:
            v = x[k]
            put(before)
            f = scalar(type(v))
            put(f(v) if f else _write(v, inner, layouts))
        put(nl + "}")
        return "".join(parts)
    if isinstance(x, (list, tuple, set, frozenset)):
        if isinstance(x, (set, frozenset)):
            x = sorted(x, key=str)
        if not x:
            return "[]"
        parts = [f(v) if (f := scalar(type(v))) else _write(v, inner, layouts) for v in x]
        return "[" + inner + ("," + inner).join(parts) + nl + "]"
    if isinstance(x, str):
        return _escape(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return float.__repr__(x)
    if hasattr(x, "as_dict"):
        return _write(x.as_dict(), nl, layouts)
    if hasattr(x, "__dict__"):
        return _write(vars(x), nl, layouts)
    return _escape(str(x))


def _markdown(data, title: str, level: int = 1) -> str:
    lines = [f"{'#' * level} {title}", ""]
    lines.extend(_md_lines(_jsonable(data)))
    return "\n".join(lines)


def _md_lines(data, indent: int = 0) -> list:
    pad = "  " * indent
    out = []
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)):
                out.append(f"{pad}- **{k}**:")
                out.extend(_md_lines(v, indent + 1))
            else:
                out.append(f"{pad}- **{k}**: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                out.append(f"{pad}-")
                out.extend(_md_lines(v, indent + 1))
            else:
                out.append(f"{pad}- {v}")
    else:
        out.append(f"{pad}{data}")
    return out


def _word(text: str) -> tuple:
    return tuple(w.strip() for w in text.split(",") if w.strip())


def _pair(text: str) -> tuple:
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected two comma-separated integers")


def cmd_validate(args) -> int:
    try:
        d = _load(args.file)
    except (DimerFormatError, DimerError) as exc:
        _emit({"valid": False, "error": str(exc)}, args.format, "validation")
        return EXIT_CHECK_FAILED
    rep = d.validate()
    ok, witness = (True, None)
    if rep.ok:
        try:
            ok, witness = is_zigzag_consistent(d)
        except DimerError as exc:
            ok, witness = False, str(exc)
    _emit(
        {
            "valid": rep.ok,
            "issues": [i.__dict__ for i in rep.issues],
            "zigzag_consistent": ok,
            "witness": witness,
        },
        args.format,
        f"validation of {args.file}",
    )
    return EXIT_OK if rep.ok and ok else EXIT_CHECK_FAILED


def cmd_zigzags(args) -> int:
    d = _load(args.file, args.base_vertex)
    cycles = zigzag_cycles(d)
    data = [
        {
            "arrows": z.arrows,
            "zigs": z.zigs,
            "zags": z.zags,
            "homology": z.homology,
            "class_index": z.class_index,
            "parallel_index": z.parallel_index,
            "anti_zigzag_plus": anti_zigzag(d, z, +1),
            "anti_zigzag_minus": anti_zigzag(d, z, -1),
        }
        for z in cycles
    ]
    _emit({"cycles": data}, args.format, f"zigzag cycles of {d.name}")
    return EXIT_OK


def cmd_matchings(args) -> int:
    d = _load(args.file)
    try:
        count = kasteleyn_count(d)
        if count > ENUMERATION_GATE:
            raise DimerError(
                f"{count} perfect matchings, above the enumeration gate {ENUMERATION_GATE}: not listed"
            )
    except PIPELINE_ERRORS as exc:
        _emit(_failure(exc), args.format, "perfect matchings")
        return EXIT_CHECK_FAILED
    mp = matching_polytope(d)
    data = {
        "matchings": [
            {"edges": p.key(), "height": p.height}
            for hs in mp.points.values()
            for p in sorted(hs, key=lambda q: word_key(q.key()))
        ],
        "count": sum(len(v) for v in mp.points.values()),
    }
    _emit(data, args.format, f"perfect matchings of {d.name}")
    return EXIT_OK


def cmd_polytope(args) -> int:
    d = _load(args.file)
    mp = matching_polytope(d)
    data = {
        "hull": mp.hull,
        "boundary_lattice_points": mp.boundary_count,
        "interior_lattice_points": mp.interior_count,
        "normalized_area": mp.normalized_area,
        "edges": [
            {
                "class_index": e.class_index,
                "normal": e.normal,
                "lattice_length": e.lattice_length,
                "from": e.start,
                "to": e.end,
            }
            for e in mp.edges
        ],
        "corners": {str(h): p.key() for h, p in mp.corners.items()},
        "corner_order": [p.key() for p in corner_matchings_in_order(mp)],
    }
    _emit(data, args.format, f"matching polytope of {d.name}")
    return EXIT_OK


def cmd_dual(args) -> int:
    d = _load(args.file)
    dd = dual_dimer(d)
    g, npunct, chi = surface_invariants(dd)
    data = {
        "dual": dimer_to_dict(dd),
        "genus": g,
        "punctures": npunct,
        "euler": chi,
        "double_dual_isomorphic": dimer_isomorphic(dual_dimer(dd), d),
    }
    _emit(data, args.format, f"dual dimer of {d.name}")
    return EXIT_OK


def cmd_jacobi(args) -> int:
    from .jacobi import Jacobi

    d = _load(args.file)
    jac = Jacobi(d, realize_cap=args.realize_cap)
    data = {}
    if args.canon:
        cls = jac.canonical_form(_word(args.canon))
        data["canonical_form"] = {
            "tail": cls.tail,
            "head": cls.head,
            "h1": cls.h1,
            "w0": cls.w0,
            "corner_degrees": jac.corner_degrees(cls),
        }
    if args.equal:
        p, q = (_word(w) for w in args.equal)
        data["equal"] = jac.path_equal(p, q)
    if args.alpha:
        xa = jac.central_x_alpha(args.alpha)
        words = jac.x_alpha_witnesses(args.alpha)
        data["x_alpha"] = {
            str(v): {"h1": c.h1, "w0": c.w0, "witness": words[v]} for v, c in xa.items()
        }
    if not data or args.w_report:
        data["W"] = {
            str(v): {"h1": c.h1, "w0": c.w0, "witness": face_word_at(d, v)}
            for v, c in jac.central_W().items()
        }
        data["relations"] = [
            {"arrow": e, "positive_arc": lhs, "negative_arc": rhs}
            for e, lhs, rhs in jac.jacobi_relations()
        ]
    _emit(data, args.format, f"Jacobi algebra of {d.name}")
    return EXIT_OK


def cmd_hh(args) -> int:
    from .hochschild import KoszulComplex
    from .jacobi import Jacobi

    d = _load(args.file, args.base_vertex)
    K = KoszulComplex(Jacobi(d, realize_cap=args.realize_cap), i0=args.i0, ab=args.ab)
    gens = K.generators()
    cocycles = {
        "x_alpha": {str(k): K.d0(c).is_zero() for k, c in gens["x_alpha"].items()},
        "partial_P": {str(k): K.d1(c).is_zero() for k, c in gens["partial_P"].items()},
        "partial_alpha": {str(k): K.d1(c).is_zero() for k, c in gens["partial_alpha"].items()},
        "psi": {str(k): K.d2(c).is_zero() for k, (c, v, w) in gens["psi"].items()},
    }
    x_witness = {
        str(K.eta(i)): {str(v): word for v, word in K.jac.x_alpha_witnesses(K.eta(i)).items()}
        for i in range(1, K.n_classes + 1)
    }
    data = {
        "classes": {
            str(i): {"eta": K.eta(i), "parallel_count": K.m(i)}
            for i in range(1, K.n_classes + 1)
        },
        "ab": K.ab,
        "U": K.U_vec,
        "V": K.V_vec,
        "x_alpha_witnesses": x_witness,
        "psi_vertices": {str(k): {"vertex": v, "word": w} for k, (c, v, w) in gens["psi"].items()},
        "cocycle_checks": cocycles,
        "e2_even": [vars(l) for l in K.e2_basis("even", args.n_max)],
        "e2_odd": [vars(l) for l in K.e2_basis("odd", args.n_max)],
    }
    _emit(data, args.format, f"Hochschild data of {d.name}")
    return EXIT_OK


def cmd_sh(args) -> int:
    from .mirror_sh import E as E_label, F as F_label, MirrorSH, SHElement

    d = _load(args.file, args.base_vertex)
    sh = MirrorSH(d)
    basis = sh.sh_basis(args.n_max)
    od = sh.distinguished_odd(args.i0)
    # a slice of the ring table: winding-one products per puncture
    table = {}
    for key in sorted(sh.cycles):
        i, j = key
        e1 = SHElement.of(E_label(i, j, 1))
        table[f"E{i}.{j}.1 * E{i}.{j}.1"] = sorted(sh.mul(e1, e1).terms.items(), key=str)
        table[f"E{i}.{j}.1 * F{i}.{j}.1"] = sorted(
            sh.mul(e1, SHElement.of(F_label(i, j, 1))).terms.items(), key=str
        )
        table[f"p * E{i}.{j}.1"] = sorted(sh.mul(od["p"], e1).terms.items(), key=str)
    data = {
        "genus": basis.genus,
        "punctures": basis.punctures,
        "odd_rank": basis.odd_rank,
        "e_labels": basis.e_labels,
        "f_labels": basis.f_labels,
        "pairing_matrix": {f"{e}|Z{i}.{j}": v for (e, (i, j)), v in sh.pairing_matrix().items()},
        "p": sorted(od["p"].terms.items(), key=str),
        "q": sorted(od["q"].terms.items(), key=str),
        "xi_paths": {str(v): path for v, path in od["xi_path"].items()},
        "ring_table": table,
    }
    _emit(data, args.format, f"symplectic cohomology model of {d.name}")
    return EXIT_OK


def _verifier(args):
    """The ``ks.KSVerifier`` of the dimer and options of ``verify`` or ``report``."""
    from .ks import KSVerifier

    d = _load(args.file, args.base_vertex)
    return KSVerifier(d, i0=args.i0, ab=args.ab)


def cmd_verify(args) -> int:
    try:
        v = _verifier(args)
        rep = v.verify_all()
    except PIPELINE_ERRORS as exc:
        _emit(_failure(exc), args.format, "verification")
        return EXIT_CHECK_FAILED
    _emit(rep.as_dict(), args.format, f"verification of {v.dimer.name}")
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    try:
        v = _verifier(args)
    except PIPELINE_ERRORS as exc:
        _emit(_failure(exc), args.format, "report")
        return EXIT_CHECK_FAILED
    d = v.dimer
    mp = v.jac.poly
    g, npunct, chi = surface_invariants(v.sh.dual)
    # the image listings refuse an n_max below 1 before the checks run
    even, odd = v.ks_even_images(args.n_max), v.ks_odd_images(args.n_max)
    rep = v.verify_all()
    data = {
        "dimer": dimer_to_dict(d),
        "zigzag_cycles": [
            {
                "arrows": z.arrows,
                "class_index": z.class_index,
                "parallel_index": z.parallel_index,
                "homology": z.homology,
            }
            for z in zigzag_cycles(d)
        ],
        "surface": {"genus": g, "punctures": npunct, "euler": chi},
        "polytope": {
            "hull": mp.hull,
            "B": mp.boundary_count,
            "I": mp.interior_count,
            "normalized_area": mp.normalized_area,
        },
        "pick_identity": {
            "vertices": len(d.vertices),
            "2I+B-2": 2 * mp.interior_count + mp.boundary_count - 2,
            "2g+N-2": 2 * g + npunct - 2,
        },
        "ks_even_images": even,
        "ks_odd_images": odd,
        "verification": rep.as_dict(),
    }
    _emit(data, args.format, f"full report for {d.name}")
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and shared by later calls."""
    ap = argparse.ArgumentParser(
        prog="dimermirror",
        description="Exact mirror-symmetry invariants of dimer models on the torus.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, base=True, nmax=False, i0=False, ab=False, caps=False):
        p.add_argument("file", help=f"dimer JSON file or bundled name {BUNDLED}")
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        if base:
            p.add_argument("--base-vertex", default=None, help="vertex anchoring strip order")
        if nmax:
            p.add_argument("--n-max", type=int, default=10, dest="n_max")
        if i0:
            p.add_argument("--i0", type=int, default=1, help="distinguished class index")
        if ab:
            p.add_argument("--ab", type=_pair, default=None, help="a,b for the odd combination")
        if caps:
            p.add_argument("--realize-cap", type=int, default=None, dest="realize_cap")

    p = sub.add_parser("validate", help="check the dimer axioms and consistency")
    common(p, base=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("zigzags", help="zigzag cycles, classes, anti-zigzags")
    common(p)
    p.set_defaults(func=cmd_zigzags)

    p = sub.add_parser("matchings", help="perfect matchings with height classes")
    common(p, base=False)
    p.set_defaults(func=cmd_matchings)

    p = sub.add_parser("polytope", help="matching polytope and corner structure")
    common(p, base=False)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("dual", help="dual dimer and surface invariants")
    common(p, base=False)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("jacobi", help="canonical forms, equality, central elements")
    common(p, base=False, caps=True)
    p.add_argument("--canon", help="comma-separated arrow word to normalize")
    p.add_argument("--equal", nargs=2, metavar=("WORD1", "WORD2"))
    p.add_argument("--alpha", type=_pair, help="homology class for x_alpha")
    p.add_argument("--w-report", action="store_true")
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("hh", help="Hochschild generators and second-page basis")
    common(p, nmax=True, i0=True, ab=True, caps=True)
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("sh", help="symplectic cohomology basis and pairings")
    common(p, nmax=True, i0=True)
    p.set_defaults(func=cmd_sh)

    p = sub.add_parser("verify", help="run every correspondence check")
    common(p, i0=True, ab=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="one document with all module outputs")
    common(p, nmax=True, i0=True, ab=True)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): send what is still buffered to
        # devnull, so the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CHECK_FAILED
    except DimerFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PIPELINE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
