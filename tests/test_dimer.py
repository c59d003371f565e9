from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from dimermirror import dimer as dimer_module
from dimermirror import (
    Arrow,
    Dimer,
    DimerError,
    Face,
    anti_zigzag,
    dimer_isomorphic,
    dual_dimer,
    is_zigzag_consistent,
    parallel_classes,
    strips,
    surface_invariants,
    load_bundled,
    zigzag_classes,
    zigzag_cycles,
)
from dimermirror.cli import with_base_vertex
from dimermirror.dimer import _face_structure, _solve_parallel, ccw_angle_key, cyclic_equal, cross, idkey, vec_add, vec_sub
from dimermirror.io import dimer_from_dict, dimer_to_dict
from dimermirror.ks import KSVerifier
from dimermirror.matchings import matching_polytope
from test_cli import run_cli
from test_matchings import ORACLE_ZOO


def codes(report) -> set:
    """The issue codes of a validation report."""
    return {i.code for i in report.issues}


def c3_variant(shift_z=(-1, -1), plus_boundary=("z", "y", "x")):
    return Dimer(
        "c3var",
        vertices=("v",),
        arrows=(
            Arrow("x", "v", "v", (1, 0)),
            Arrow("y", "v", "v", (0, 1)),
            Arrow("z", "v", "v", shift_z),
        ),
        faces=(Face(+1, tuple(plus_boundary)), Face(-1, ("y", "z", "x"))),
    )


def test_bundled_dimers_are_valid(dimers):
    for d in dimers.values():
        assert d.validate().ok


def test_face_too_short_is_reported():
    d = Dimer(
        "bigon",
        vertices=("v",),
        arrows=(Arrow("x", "v", "v", (1, 0)), Arrow("y", "v", "v", (-1, 0))),
        faces=(Face(+1, ("x", "y")), Face(-1, ("x", "y"))),
    )
    rep = d.validate()
    assert not rep.ok
    assert "face_too_short" in codes(rep)


def test_shift_sum_violation_is_reported():
    rep = c3_variant(shift_z=(0, 0)).validate()
    assert not rep.ok
    assert "face_shift" in codes(rep)


def test_short_positive_face_is_reported():
    rep = c3_variant(plus_boundary=("y", "x")).validate()
    assert not rep.ok
    assert "face_too_short" in codes(rep)


def test_unknown_arrow_in_boundary_is_reported():
    d = Dimer(
        "broken",
        vertices=("v",),
        arrows=(Arrow("x", "v", "v", (1, 0)),),
        faces=(Face(+1, ("x", "w", "q")), Face(-1, ("x",) * 3)),
    )
    rep = d.validate()
    assert not rep.ok
    assert "unknown_arrow" in codes(rep)


def test_c3_zigzag_cycles(dimers):
    cycles = zigzag_cycles(dimers["c3"])
    assert len(cycles) == 3
    assert all(len(z.arrows) == 2 for z in cycles)
    total = tuple(sum(c) for c in zip(*(z.homology for z in cycles)))
    assert total == (0, 0)
    # pairwise independent classes
    homs = [z.homology for z in cycles]
    for i in range(3):
        for j in range(i + 1, 3):
            assert homs[i][0] * homs[j][1] - homs[i][1] * homs[j][0] != 0


def test_spp_zigzag_cycles_match_known_words(dimers):
    cycles = zigzag_cycles(dimers["spp"])
    words = [z.arrows for z in cycles]
    expected = [("f", "b"), ("a", "d", "c", "f"), ("e", "c"), ("g", "a"), ("d", "g", "b", "e")]
    assert len(words) == 5
    for w in expected:
        assert any(cyclic_equal(w, got) for got in words), w
    by_class = {}
    for z in cycles:
        by_class.setdefault(z.class_index, []).append(z)
    assert sorted(len(v) for v in by_class.values()) == [1, 1, 1, 2]
    ec = next(z for z in cycles if cyclic_equal(z.arrows, ("e", "c")))
    ga = next(z for z in cycles if cyclic_equal(z.arrows, ("g", "a")))
    assert ec.class_index == ga.class_index
    assert ec.homology == ga.homology == (1, 0)


def test_conifold_zigzag_cycles(dimers):
    cycles = zigzag_cycles(dimers["conifold"])
    assert len(cycles) == 4
    assert all(len(z.arrows) == 2 for z in cycles)
    assert len({z.homology for z in cycles}) == 4


def test_zig_zag_completeness(dimers):
    for d in dimers.values():
        cycles = zigzag_cycles(d)
        assert sum(len(z.arrows) for z in cycles) == 2 * len(d.arrows)
        zigs = sorted((a for z in cycles for a in z.zigs), key=str)
        zags = sorted((a for z in cycles for a in z.zags), key=str)
        allarrows = sorted(d.arrow_by_id, key=str)
        assert zigs == allarrows and zags == allarrows


def test_c3_anti_zigzag_of_x_cycle(dimers):
    d = dimers["c3"]
    z = next(z for z in zigzag_cycles(d) if z.zigs == ("x",))
    assert z.zags == ("y",)
    assert anti_zigzag(d, z, +1) == ("z",)


def test_anti_zigzag_homology(dimers):
    for d in dimers.values():
        for z in zigzag_cycles(d):
            for sign in (+1, -1):
                o = anti_zigzag(d, z, sign)
                assert d.word_shift(o) == (-z.homology[0], -z.homology[1])


def test_spp_anti_zigzag_from_file(dimers):
    d = dimers["spp"]
    ec = next(z for z in zigzag_cycles(d) if cyclic_equal(z.arrows, ("e", "c")))
    assert cyclic_equal(anti_zigzag(d, ec, +1), ("f", "b"))
    ga = next(z for z in zigzag_cycles(d) if cyclic_equal(z.arrows, ("g", "a")))
    assert anti_zigzag(d, ga, +1) == ("d",)


def test_builtins_zigzag_consistent(dimers):
    for d in dimers.values():
        ok, witness = is_zigzag_consistent(d)
        assert ok, witness


def test_parallel_classes(dimers):
    spp = parallel_classes(dimers["spp"])
    assert [len(members) for _, members in spp] == [1, 1, 2, 1]
    assert len(parallel_classes(dimers["c3"])) == 3
    assert len(parallel_classes(dimers["conifold"])) == 4


def test_parallel_cycles_share_no_arrow(dimers):
    for _, members in parallel_classes(dimers["spp"]):
        if len(members) == 2:
            assert not set(members[0].arrows) & set(members[1].arrows)


def test_strips_single_class(dimers):
    for name in ("c3", "conifold"):
        d = dimers[name]
        n = len(parallel_classes(d))
        for i in range(1, n + 1):
            sd = strips(d, i)
            assert len(sd.strips) == 1
            assert set(sd.strips[0]) == set(d.vertices)


def test_spp_strips_partition_vertices(dimers):
    d = dimers["spp"]
    sd = strips(d, 3)
    assert len(sd.strips) == 2
    v1 = set(sd.strips[0])
    v2 = set(sd.strips[1])
    assert v1 | v2 == set(d.vertices) and not v1 & v2
    assert d.vertices[0] in v1


def test_per_dimer_builds_once_per_dimer_and_arguments():
    builds = []

    @dimer_module.per_dimer
    def named(d, k):
        """Doc of the build."""
        builds.append((d, k))
        if k < 0:
            raise ValueError("negative")
        return [d.name, k]

    d = load_bundled("spp")
    first = named(d, 1)
    assert named(d, 1) is first and named(d, 2) == ["spp", 2]
    assert builds == [(d, 1), (d, 2)]
    # the same vertices, arrows and faces in another dimer get their own entry
    other = with_base_vertex(d, d.vertices[0])
    assert named(other, 1) == first and named(other, 1) is not first
    assert builds[-1] == (other, 1) and len(builds) == 3
    for _ in range(2):  # a build that raises keeps nothing, so it runs again
        with pytest.raises(ValueError, match="negative"):
            named(d, -1)
    assert len(builds) == 5
    assert named(d, 1) is first and len(builds) == 5
    assert named.__name__ == "named" and named.__doc__ == "Doc of the build."


def test_derived_structures_belong_to_one_dimer():
    d = load_bundled("spp")
    assert parallel_classes(d) is parallel_classes(d)
    K = KSVerifier(d).K
    for i in range(1, K.n_classes + 1):
        assert K.strips[i] is strips(d, i)
    # same name, arrows and faces, another base vertex: strips must not be shared
    assert strips(with_base_vertex(d, 2), 3).strips[0] == (2, 3)
    assert strips(d, 3).strips[0] == (1,)


# Lattice covers whose zigzag cycles revisit quiver vertices; covers of c3
# are the abelian orbifolds C^3/Gamma.  conifold 2x2 fails later, in xi_v.
COVER_ZOO = [
    ("c3", 2, 1), ("c3", 3, 1), ("c3", 1, 2), ("c3", 2, 2), ("c3", 3, 3),
    ("spp", 2, 1), ("spp", 1, 2), ("spp", 2, 2), ("conifold", 2, 2),
]


@pytest.mark.parametrize("name,k,l", COVER_ZOO)
def test_cover_zoo_strips_and_verify(name, k, l, lattice_cover, tmp_path):
    data = lattice_cover(name, k, l)
    d, base = dimer_from_dict(data), load_bundled(name)
    assert d.validate().ok
    assert is_zigzag_consistent(d)[0]
    for attr in ("vertices", "arrows", "faces"):
        assert len(getattr(d, attr)) == k * l * len(getattr(base, attr))
    for i, (_, members) in enumerate(parallel_classes(d), start=1):
        sd = strips(d, i)
        assert len(sd.strips) == len(members)
        flat = [v for strip in sd.strips for v in strip]
        assert len(flat) == len(set(flat)) and set(flat) == set(d.vertices)
        assert d.vertices[0] in sd.strips[0]
        for strip, (opos, oneg) in zip(sd.strips, sd.boundary):
            assert {d.tail(a) for a in opos + oneg} <= set(strip)
    p = tmp_path / f"{name}_{k}x{l}.json"
    p.write_text(json.dumps(data))
    rc, out, err = run_cli("verify", str(p))
    assert "Traceback" not in err
    if (name, k, l) == ("conifold", 2, 2):
        assert rc == 1 and "error" in json.loads(out)
    else:
        assert rc == 0, out
        assert json.loads(out)["passed"] is True


def test_merged_strip_components_fail_naming_the_class(monkeypatch):
    d = load_bundled("spp")
    parallel_classes(d)  # order the cycles with the true components first
    true_components = dimer_module._class_components
    monkeypatch.setattr(
        dimer_module,
        "_class_components",
        lambda dd, i: {v: 0 for v in dd.vertices} if i == 3 else true_components(dd, i),
    )
    with pytest.raises(DimerError, match="class 3: 1 strips for 2 parallel cycles"):
        strips(d, 3)


def test_swapped_anti_zigzag_sides_fail_the_boundary_check(monkeypatch):
    d = load_bundled("spp")
    z2 = parallel_classes(d)[2][1][1]  # Z_{3,2}
    true_anti_zigzag = dimer_module.anti_zigzag

    def swapped(dd, z, sign):
        return true_anti_zigzag(dd, z, -sign if z is z2 else sign)

    monkeypatch.setattr(dimer_module, "anti_zigzag", swapped)
    with pytest.raises(DimerError, match=r"class 3: O\+\(Z_1\) and O-\(Z_2\)"):
        strips(d, 3)


def test_dual_surfaces(dimers):
    expected = {"c3": (0, 3), "conifold": (0, 4), "spp": (0, 5)}
    for name, d in dimers.items():
        g, n, chi = surface_invariants(d)
        assert (g, n) == expected[name]
        assert chi == 2 - 2 * g


def test_double_duality(dimers):
    for d in dimers.values():
        assert dimer_isomorphic(dual_dimer(dual_dimer(d)), d)


def test_pick_identity(dimers):
    for d in dimers.values():
        mp = matching_polytope(d)
        g, n, _ = surface_invariants(d)
        assert g == mp.interior_count
        assert n == mp.boundary_count
        assert len(d.vertices) == 2 * mp.interior_count + mp.boundary_count - 2
        assert mp.normalized_area == len(d.vertices)


def test_null_homologous_cycle_is_inconsistent():
    # degenerate shift marking: one zigzag cycle has vanishing homology class
    d = Dimer(
        "conifold_degenerate",
        vertices=(1, 2),
        arrows=(
            Arrow("a1", 1, 2, (0, 0)),
            Arrow("a2", 1, 2, (-1, 0)),
            Arrow("b1", 2, 1, (0, 0)),
            Arrow("b2", 2, 1, (1, 0)),
        ),
        faces=(
            Face(+1, ("a1", "b2", "a2", "b1")),
            Face(-1, ("a1", "b1", "a2", "b2")),
        ),
    )
    assert d.validate().ok
    ok, witness = is_zigzag_consistent(d)
    assert not ok
    assert witness[0] == "null_homologous_cycle"


def test_solve_parallel_arithmetic():
    from dimermirror.dimer import _solve_parallel

    assert _solve_parallel(2, 3, 0) == (3, 2)  # smallest nontrivial on the line
    n, m = _solve_parallel(2, 3, 1)
    assert n * 2 - m * 3 == 1 and n >= 0 and m >= 0
    assert _solve_parallel(2, 4, 1) is None  # gcd 2 does not divide 1
    assert _solve_parallel(2, -3, 7) == (2, 1)
    assert _solve_parallel(2, -3, -1) is None  # the form is nonnegative
    assert _solve_parallel(-2, 3, -7) == (2, 1)
    assert _solve_parallel(-2, 3, 5) is None
    n, m = _solve_parallel(-2, -3, 1)
    assert n * -2 - m * -3 == 1 and n >= 0 and m >= 0


def test_inconsistent_detection():
    # two vertices, doubled arrows forming two squares whose zigzag cycles are
    # null-homologous: the consistency check must reject it
    d = Dimer(
        "torus_square",
        vertices=(1, 2),
        arrows=(
            Arrow("p", 1, 2, (0, 0)),
            Arrow("q", 2, 1, (0, 0)),
            Arrow("r", 1, 2, (1, 0)),
            Arrow("s", 2, 1, (-1, 0)),
        ),
        faces=(
            Face(+1, ("p", "q")),
            Face(+1, ("r", "s")),
            Face(-1, ("p", "s")),
            Face(-1, ("r", "q")),
        ),
    )
    rep = d.validate()
    assert not rep.ok  # bigons are rejected before consistency is reached


def test_ray_intersection_witness():
    # subdividing an arrow creates a 2-valent vertex; the dimer stays valid
    # but the zig and zag rays at the first half re-meet at the second half
    d = Dimer(
        "spp_subdivided",
        vertices=(1, 2, 3, "w"),
        arrows=(
            Arrow("a", 3, 1, (0, 0)),
            Arrow("b", 3, 2, (-1, 1)),
            Arrow("c1", 1, "w", (0, 0)),
            Arrow("c2", "w", 2, (0, 0)),
            Arrow("d", 1, 1, (-1, 0)),
            Arrow("e", 2, 1, (1, 0)),
            Arrow("f", 2, 3, (0, -1)),
            Arrow("g", 1, 3, (1, 0)),
        ),
        faces=(
            Face(+1, ("d", "g", "a")),
            Face(+1, ("c1", "c2", "f", "b", "e")),
            Face(-1, ("d", "c1", "c2", "e")),
            Face(-1, ("g", "b", "f", "a")),
        ),
    )
    assert d.validate().ok
    # the zig and zag rays at c1 first meet again at c1, one period along each
    assert is_zigzag_consistent(d) == (False, ("c1", "c1", 1, 1))
    assert reference_consistency(d) == (False, ("c1", "c1", 1, 1))


# -- the orbit-table consistency search against walking both rays -------------


def _ray_occurrences(d, e, as_zig):
    """One period of the zig (or zag) ray at e: [(arrow, translate)] and the period shift."""
    next_pos, next_neg = _face_structure(d)[2:4]
    occ = []
    cum = (0, 0)
    cur = e
    while True:
        occ.append((cur, cum))
        cum = vec_add(cum, d.shift(cur))
        nxt = next_neg[cur] if as_zig else next_pos[cur]
        occ.append((nxt, cum))
        cum = vec_add(cum, d.shift(nxt))
        cur = next_pos[nxt] if as_zig else next_neg[nxt]
        if cur == e:
            break
    return occ, cum


def reference_consistency(d):
    """The ray criterion by walking both rays from every arrow and comparing all occurrence pairs."""
    for z in dimer_module._zigzag_orbits(d)[0]:
        if z.homology == (0, 0):
            return False, ("null_homologous_cycle", z.arrows)
    for e in sorted(d.arrow_by_id, key=idkey):
        occ_zig, t_zig = _ray_occurrences(d, e, as_zig=True)
        occ_zag, t_zag = _ray_occurrences(d, e, as_zig=False)
        det = cross(t_zag, t_zig)
        for (f, u) in occ_zig:
            for (g, v) in occ_zag:
                if f != g:
                    continue
                dd = vec_sub(v, u)
                trivial = f == e and u == v == (0, 0)
                if det != 0:
                    n_num, m_num = cross(t_zag, dd), cross(t_zig, dd)
                    if n_num % det or m_num % det:
                        continue
                    n, m = n_num // det, m_num // det
                    if n < 0 or m < 0 or (trivial and n == m == 0):
                        continue
                    return False, (e, f, n, m)
                gx = gcd(abs(t_zig[0]), abs(t_zig[1]))
                base = (t_zig[0] // gx, t_zig[1] // gx)
                if cross(base, dd) != 0 or cross(base, t_zag) != 0:
                    continue
                p = t_zig[0] // base[0] if base[0] else t_zig[1] // base[1]
                q = t_zag[0] // base[0] if base[0] else t_zag[1] // base[1]
                dv = dd[0] // base[0] if base[0] else dd[1] // base[1]
                sol = _solve_parallel(p, q, dv)
                if sol is None or (trivial and sol == (0, 0)):
                    continue
                return False, (e, f) + tuple(sol)
    return True, None


def _raw(covers, name, k, l):
    base = covers.load_base(name)
    return base if (k, l) == (1, 1) else covers.cover(base, k, l)


def subdivisions(raw):
    """Every dimer made by splitting one arrow in two at a new 2-valent vertex.

    Each arrow gives two: its shift on the first half or on the second.
    """
    for i, a in enumerate(raw["arrows"]):
        w = f"w_{a['id']}"
        for on_first in (True, False):
            halves = [
                {"id": f"{a['id']}_1", "tail": a["tail"], "head": w,
                 "shift": a["shift"] if on_first else [0, 0]},
                {"id": f"{a['id']}_2", "tail": w, "head": a["head"],
                 "shift": [0, 0] if on_first else a["shift"]},
            ]
            faces = [
                {"sign": f["sign"],
                 "boundary": [h["id"] for b in f["boundary"] for h in (halves if b == a["id"] else [{"id": b}])]}
                for f in raw["faces"]
            ]
            yield {
                "name": f"{raw['name']}_split_{a['id']}",
                "vertices": raw["vertices"] + [w],
                "arrows": raw["arrows"][:i] + halves + raw["arrows"][i + 1:],
                "faces": faces,
            }


def assert_surface_is_the_duals(d):
    """surface_invariants(d) is (g, N, chi) counted on the dual dimer, which validates."""
    dd = dual_dimer(d)
    assert dd.validate().ok
    chi = len(dd.vertices) - len(dd.arrows) + len(dd.faces)
    assert chi % 2 == 0
    assert surface_invariants(d) == ((2 - chi) // 2, len(dd.vertices), chi)


@pytest.mark.parametrize("name,k,l", ORACLE_ZOO)
def test_surface_invariants_count_the_dual_dimer(name, k, l, covers):
    raw = _raw(covers, name, k, l)
    for seed in (None, 0, 1, 2):
        assert_surface_is_the_duals(dimer_from_dict(raw if seed is None else covers.relabel(raw, random.Random(seed))))
    checked = 0
    for data in subdivisions(raw):
        d = dimer_from_dict(data)
        try:
            assert_surface_is_the_duals(d)
        except DimerError as exc:
            # an inconsistent dimer whose parallel cycles zigzag_cycles cannot order
            assert str(exc) == "parallel cycle touches several strips on one side", data["name"]
            continue
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("name,k,l", ORACLE_ZOO)
def test_consistency_witness_matches_the_two_ray_search(name, k, l, covers):
    raw = _raw(covers, name, k, l)
    for seed in (None, 0, 1, 2):
        data = raw if seed is None else covers.relabel(raw, random.Random(seed))
        d = dimer_from_dict(data)
        assert is_zigzag_consistent(d) == reference_consistency(d) == (True, None)


# the bundled dimers and their covers with at most 24 arrows
SPLIT_ZOO = [(name, k, l) for name, k, l in ORACLE_ZOO if {"c3": 3, "conifold": 4, "spp": 7}[name] * k * l <= 24]


@pytest.mark.parametrize("name,k,l", SPLIT_ZOO)
def test_subdivided_arrow_witness_matches_the_two_ray_search(name, k, l, covers):
    raw = _raw(covers, name, k, l)
    count = 0
    for data in subdivisions(raw):
        for seed in (None, 0):
            d = dimer_from_dict(data if seed is None else covers.relabel(data, random.Random(seed)))
            assert d.validate().ok
            got = is_zigzag_consistent(d)
            assert not got[0] and got == reference_consistency(d), d.name
        count += 1
    assert count == 2 * len(raw["arrows"])


def test_zigzag_orbits_are_built_once_per_dimer(monkeypatch):
    from dimermirror import cli

    built = []
    original = dimer_module._zigzag_orbits.__wrapped__

    def counted(d):
        built.append(d)
        return original(d)

    monkeypatch.setattr(dimer_module._zigzag_orbits, "__wrapped__", counted)
    assert cli.main(["verify", "conifold"]) == 0
    assert cli.main(["polytope", "conifold"]) == 0
    assert len(built) == 2  # one dimer per command, and one walk each
    assert len({id(d) for d in built}) == 2


# The builders of the per-dimer lookup tables (see the Dimer docstring):
# _zigzag_orbits also builds zigzag_of, and _face_structure the face words.
# _arrow_order runs in the constructor; the others are counted under per_dimer.
TABLE_BUILDERS = ("_arrow_order", "validate_dimer", "_face_structure", "_vertex_incidence", "_zigzag_orbits")


def test_each_lookup_table_is_built_once_per_dimer(monkeypatch):
    from dimermirror import cli

    built = {name: [] for name in TABLE_BUILDERS}
    for name in TABLE_BUILDERS:
        cached = getattr(dimer_module, name)
        original = getattr(cached, "__wrapped__", cached)

        def counted(d, name=name, original=original):
            built[name].append(d)
            return original(d)

        if original is cached:
            monkeypatch.setattr(dimer_module, name, counted)
        else:
            monkeypatch.setattr(cached, "__wrapped__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "conifold"]) == 0
        verified = [d for d in built["_arrow_order"] if d.name == "conifold"]
        assert cli.main(["polytope", "conifold"]) == 0
    assert len(verified) == 1
    for name, dimers in built.items():
        assert len({id(d) for d in dimers}) == len(dimers), name  # at most once per dimer
        assert sum(d is verified[0] for d in dimers) == 1, name  # verify reads every table
    # polytope builds no vertex incidence; verify's dual dimer builds only what validation needs
    assert [d.name for d in built["_vertex_incidence"]] == ["conifold"]
    assert sorted(d.name for d in built["_zigzag_orbits"]) == ["conifold", "conifold"]


def test_polytope_orders_no_parallel_family(monkeypatch, tmp_path, lattice_cover):
    from dimermirror import cli

    calls = []
    for name in ("_parallel_order", "anti_zigzag", "_class_components"):
        original = getattr(dimer_module, name)
        monkeypatch.setattr(
            dimer_module, name, lambda *args, name=name, original=original: calls.append(name) or original(*args)
        )
    cover = tmp_path / "conifold_4x3.json"
    cover.write_text(json.dumps(lattice_cover("conifold", 4, 3)))
    with contextlib.redirect_stdout(io.StringIO()):
        for target in ("c3", "conifold", "spp", str(cover)):
            assert cli.main(["polytope", target]) == 0
        assert calls == []
        # the control: listing the zigzags orders spp's family of two through all three
        assert cli.main(["zigzags", "spp"]) == 0
    assert set(calls) == {"_parallel_order", "anti_zigzag", "_class_components"}


def test_verify_checks_consistency_and_groups_the_classes_once(monkeypatch):
    from dimermirror import cli

    calls = []

    def counted(name, original):
        return lambda d: calls.append(name) or original(d)

    consistent, classes = dimer_module.is_zigzag_consistent, dimer_module.zigzag_classes
    monkeypatch.setattr(dimer_module, "is_zigzag_consistent", counted("is_zigzag_consistent", consistent))
    monkeypatch.setattr(classes, "__wrapped__", counted("zigzag_classes", classes.__wrapped__))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "conifold"]) == 0
    assert sorted(calls) == ["is_zigzag_consistent", "zigzag_classes"]


def test_zigzag_classes_are_the_parallel_classes_unordered(covers):
    for name, k, l in ORACLE_ZOO:
        d = dimer_from_dict(_raw(covers, name, k, l))
        classes, ordered = zigzag_classes(d), parallel_classes(d)
        assert [eta for eta, _ in classes] == [eta for eta, _ in ordered]
        for (_, members), (_, chain) in zip(classes, ordered):
            assert sorted(z.arrows for z in members) == sorted(z.arrows for z in chain)
            assert [z.parallel_index for z in chain] == list(range(1, len(chain) + 1))


def test_lookup_tables_follow_the_arrow_order(covers):
    d = dimer_from_dict(covers.relabel(covers.load_base("spp"), random.Random(0)))
    assert list(d.arrow_ids) == sorted(d.arrow_by_id, key=idkey)
    assert [d.arrow_rank[a] for a in d.arrow_ids] == list(range(len(d.arrows)))
    for v in d.vertices:
        assert d.leaving[v] == [a for a in d.arrow_ids if d.tail(a) == v]
        assert d.entering[v] == [a for a in d.arrow_ids if d.head(a) == v]
    orbits = dimer_module._zigzag_orbits(d)[0]
    assert list(d.zigzag_of) == list(d.arrow_ids)
    for a, (k, l) in d.zigzag_of.items():
        assert a in orbits[k].zigs and a in orbits[l].zags
    assert d.has_shifts and not Dimer("x", (), (Arrow("a", 0, 0, None),), ()).has_shifts


def test_anti_zigzag_is_built_once_per_cycle_and_sign():
    d = load_bundled("spp")
    for z in zigzag_cycles(d):
        for sign in (+1, -1):
            assert anti_zigzag(d, z, sign) is anti_zigzag(d, z, sign)
    with pytest.raises(ValueError, match="sign must be"):
        anti_zigzag(d, zigzag_cycles(d)[0], 0)


def test_anti_zigzag_that_does_not_close_fails_on_the_first_check(monkeypatch):
    # every rotation of a word has the same cyclic adjacent pairs, so one
    # is_closed call decides; no rotation is tried
    d = load_bundled("spp")
    z = max(zigzag_cycles(d), key=lambda c: len(c.arrows))
    calls = []
    monkeypatch.setattr(d, "is_closed", lambda word: calls.append(word) or False)
    with pytest.raises(DimerError, match="anti-zigzag does not close up"):
        anti_zigzag(d, z, +1)
    assert len(calls) == 1


def test_rotations_of_a_word_close_together(dimers):
    for d in dimers.values():
        for z in zigzag_cycles(d):
            for sign in (+1, -1):
                word = anti_zigzag(d, z, sign)
                assert all(d.is_closed(word[k:] + word[:k]) for k in range(len(word)))


def test_unhashable_endpoint_is_an_unknown_vertex():
    raw = dimer_to_dict(load_bundled("conifold"))
    raw["arrows"][0]["tail"] = [1]  # a JSON list names no vertex
    rep = dimer_from_dict(raw).validate()
    assert not rep.ok and codes(rep) == {"unknown_vertex"}


@pytest.mark.parametrize("name,k,l", [("c3", 1, 1), ("c3", 2, 1), ("conifold", 1, 1), ("spp", 1, 1)])
def test_twice_subdivided_witness_matches_the_two_ray_search(name, k, l, covers):
    # two 2-valent vertices put some arrows twice on one zigzag orbit, so the
    # zag ray meets them in an order that differs from their order in the word
    count = 0
    for once in subdivisions(_raw(covers, name, k, l)):
        for data in subdivisions(once):
            d = dimer_from_dict(data)
            got = is_zigzag_consistent(d)
            assert not got[0] and got == reference_consistency(d), d.name
            count += 1
    assert count > 0


# -- the angle order, against the slope key it replaced ------------------------------


def fraction_angle_key(v):
    """The reference: the sector, then the slope -x/y as a Fraction within it."""
    x, y = v
    if y == 0:
        sector = 0 if x > 0 else 2
    elif y > 0:
        sector = 1
    else:
        sector = 3
    return (sector, Fraction(-x, y) if y != 0 else Fraction(0))


def test_ccw_angle_key_orders_as_the_fraction_key():
    vectors = [(x, y) for x in range(-6, 7) for y in range(-6, 7) if (x, y) != (0, 0)]
    for u, w in itertools.product(vectors, repeat=2):
        got, want = ccw_angle_key(u), ccw_angle_key(w)
        ref_u, ref_w = fraction_angle_key(u), fraction_angle_key(w)
        assert (got < want, got == want) == (ref_u < ref_w, ref_u == ref_w), (u, w)
    # sorting is stable, so equal keys must keep the input order under both
    rng = random.Random(0)
    for _ in range(5):
        rng.shuffle(vectors)
        assert sorted(vectors, key=ccw_angle_key) == sorted(vectors, key=fraction_angle_key)
    with pytest.raises(ValueError):
        ccw_angle_key((0, 0))
