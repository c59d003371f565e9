from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
import itertools
import json
import random
from math import gcd

import pytest

from dimermirror import ks, matchings
from dimermirror.cli import main
from dimermirror.dimer import (
    Dimer,
    DimerError,
    Vec,
    ccw_angle_key,
    cross,
    dot,
    idkey,
    parallel_classes,
    per_dimer,
    tree_paths,
    vec_add,
    vec_sub,
    word_key,
)
from dimermirror.io import dimer_from_dict, load_bundled
from dimermirror.jacobi import Jacobi
from dimermirror.matchings import (
    MatchingPolytope,
    PerfectMatching,
    _Span,
    check_against_enumeration,
    corner_matchings_in_order,
    det_int,
    enumerate_perfect_matchings,
    indicator_rank,
    kasteleyn_count,
    kasteleyn_signs,
    matching_basis,
    matching_polytope,
)

# -- the chain scan: the reference the table heights are compared against -------
#
# Heights as the class of P - P0 in H^1 evaluated on two integer cycles of
# classes (1, 0) and (0, 1), built from the fundamental cycles of a spanning
# tree by a Hermite reduction: a computation independent of the face-anchor
# displacements that ``arrow_classes`` reads them off.


@per_dimer
def generating_cycles(d: Dimer):
    """Two integer 1-chains with homology classes (1,0) and (0,1).

    Chains are dicts arrow -> coefficient (reversed traversals count with
    sign -1); they are built from fundamental cycles of the spanning tree
    behind ``tree_paths``.  Computed once per dimer; the chains are shared,
    so do not mutate them.
    """
    paths = tree_paths(d)
    pot = {v: d.path_shift(path) for v, path in paths.items()}
    tree_ids = {path[-1][0] for path in paths.values() if path}
    fundamentals = []
    for a in sorted(d.arrows, key=lambda x: idkey(x.id)):
        if a.id in tree_ids:
            continue
        cls = vec_sub(vec_add(pot[a.tail], a.shift), pot[a.head])
        if cls != (0, 0):
            fundamentals.append((a.id, cls))
    targets = [(1, 0), (0, 1)]
    out = []
    for t in targets:
        combo = _integer_combination([c for _, c in fundamentals], t)
        if combo is None:
            raise DimerError(f"no integer cycle with class {t}; invalid torus marking")
        chain: dict = {}
        for (aid, _), lam in zip(fundamentals, combo):
            if not lam:
                continue
            # close the arrow into a cycle: tree path from its head back to its tail
            a = d.arrow_by_id[aid]
            closure = [(b, -sg) for b, sg in reversed(paths[a.head])] + paths[a.tail]
            for b, sg in [(aid, 1)] + closure:
                chain[b] = chain.get(b, 0) + lam * sg
        out.append({k: v for k, v in chain.items() if v})
    return out


def _integer_combination(vecs: list[Vec], target: Vec):
    """Integer coefficients lam with sum(lam_k * vecs[k]) == target, or None.

    Column-style Hermite reduction on the 2 x K matrix of classes, tracking
    the combinations so coefficients can be reported exactly.
    """
    if not vecs:
        return None
    cols = [(v, tuple(1 if i == j else 0 for j in range(len(vecs)))) for i, v in enumerate(vecs)]

    def combine(c1, c2):
        # replace (c1, c2) by (g-column, 0-x-column) using extended gcd on x
        (v1, l1), (v2, l2) = c1, c2
        a, b = v1[0], v2[0]
        if b == 0:
            return c1, c2
        if a == 0:
            return c2, c1
        # extended euclid: g = s*a + t*b
        s0, s1, t0, t1, r0, r1 = 1, 0, 0, 1, a, b
        while r1:
            q, r0, r1 = r0 // r1, r1, r0 % r1
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        g = r0
        new1 = (
            (g, s0 * v1[1] + t0 * v2[1]),
            tuple(s0 * x + t0 * y for x, y in zip(l1, l2)),
        )
        new2 = (
            (0, (-b // g) * v1[1] + (a // g) * v2[1]),
            tuple((-b // g) * x + (a // g) * y for x, y in zip(l1, l2)),
        )
        return new1, new2

    pivot = None
    rest = []
    for c in cols:
        if pivot is None:
            pivot = c
        else:
            pivot, c2 = combine(pivot, c)
            rest.append(c2)
    if pivot is None or (pivot[0][0] == 0 and target[0] != 0):
        return None
    if pivot[0][0] == 0:
        rest.append(pivot)
        k1, lam1 = 0, tuple(0 for _ in vecs)
    else:
        if target[0] % pivot[0][0]:
            return None
        k1 = target[0] // pivot[0][0]
        lam1 = tuple(k1 * x for x in pivot[1])
    residual_y = target[1] - k1 * (pivot[0][1] if pivot[0][0] else 0)
    g2 = 0
    l2 = tuple(0 for _ in vecs)
    for (v, l) in rest:
        if v[1] == 0:
            continue
        if g2 == 0:
            g2, l2 = v[1], l
        else:
            s0, s1, t0, t1, r0, r1 = 1, 0, 0, 1, g2, v[1]
            while r1:
                q, r0, r1 = r0 // r1, r1, r0 % r1
                s0, s1 = s1, s0 - q * s1
                t0, t1 = t1, t0 - q * t1
            l2 = tuple(s0 * x + t0 * y for x, y in zip(l2, l))
            g2 = r0
    if g2 == 0:
        if residual_y != 0:
            return None
        return list(lam1)
    if residual_y % g2:
        return None
    k2 = residual_y // g2
    return [x + k2 * y for x, y in zip(lam1, l2)]


def evaluate_on_chain(matching: frozenset, chain: dict) -> int:
    return sum(coeff for aid, coeff in chain.items() if aid in matching)


def matching_height(d: Dimer, p: PerfectMatching, p0: PerfectMatching, chains=None) -> Vec:
    """Class of (P - P0) in H^1, evaluated on fixed generating cycles.

    Scans both chains for P and for P0.  A reference that tests compare the
    heights ``matching_polytope`` reads from its ``arrow_class`` table against.
    """
    if chains is None:
        chains = generating_cycles(d)
    return tuple(
        evaluate_on_chain(p.edges, c) - evaluate_on_chain(p0.edges, c) for c in chains
    )


# -- corner structure from the list of every matching ------------------------
#
# The paper's corner claim, read off ``mp.points``.  ``verify`` does not check
# it yet; ROADMAP item 3 computes it from the tight arrows of each edge.


@dataclass
class StructureReport:
    class_index: int
    zig_corner: PerfectMatching  # P_i
    zag_corner: PerfectMatching  # P_{i+1}
    shared: frozenset  # J_{eta_i}
    family_matchings: list  # the 2^{m_i} interpolating matchings
    edge_points: list  # heights on the hull edge, in order


def corner_structure(d: Dimer, class_index: int, mp=None) -> StructureReport:
    """Corner matchings across the hull edge normal to -eta_i.

    Verifies P_i = J u (all zigs), P_{i+1} = J u (all zags), that the 2^{m_i}
    mixed choices exhaust the boundary matchings on the edge, and the corner
    chaining P_{i+1} = zig corner of class i+1.
    """
    if mp is None:
        mp = matching_polytope(d)
    classes = parallel_classes(d)
    if not 1 <= class_index <= len(classes):
        raise DimerError(f"no zigzag class {class_index}")
    eta, members = classes[class_index - 1]
    edge = next(e for e in mp.edges if e.class_index == class_index)
    c_start, c_end = mp.corners[edge.start], mp.corners[edge.end]
    zigs = frozenset(a for z in members for a in z.zigs)
    zags = frozenset(a for z in members for a in z.zags)
    shared = c_start.edges & c_end.edges
    if shared & (zigs | zags):
        raise DimerError(f"class {class_index}: shared corner part meets the cycles")
    if c_start.edges != shared | zigs or c_end.edges != shared | zags:
        raise DimerError(
            f"class {class_index}: corners are not (J u zigs, J u zags): "
            f"{c_start.key()} / {c_end.key()}"
        )
    all_matchings = {p.edges for hs in mp.points.values() for p in hs}
    family = []
    for mask in range(1 << len(members)):
        edges_set = set(shared)
        for j, z in enumerate(members):
            edges_set |= set(z.zigs) if mask >> j & 1 else set(z.zags)
        fs = frozenset(edges_set)
        if fs not in all_matchings:
            raise DimerError(f"class {class_index}: mixed choice {mask:b} is not a matching")
        family.append(PerfectMatching(fs))
    # the family must exhaust the matchings whose heights lie on the edge
    def on_edge(h: Vec) -> bool:
        return (
            cross(vec_sub(edge.end, edge.start), vec_sub(h, edge.start)) == 0
            and dot(vec_sub(h, edge.start), vec_sub(edge.end, edge.start)) >= 0
            and dot(vec_sub(h, edge.end), vec_sub(edge.start, edge.end)) >= 0
        )

    on_edge_matchings = {
        p.edges for h, ps in mp.points.items() if on_edge(h) for p in ps
    }
    if on_edge_matchings != {p.edges for p in family}:
        raise DimerError(f"class {class_index}: boundary matchings are not exhausted")
    edge_points = sorted((h for h in mp.points if on_edge(h)),
                         key=lambda h: dot(vec_sub(h, edge.start), vec_sub(edge.end, edge.start)))
    return StructureReport(
        class_index=class_index,
        zig_corner=c_start,
        zag_corner=c_end,
        shared=shared,
        family_matchings=family,
        edge_points=edge_points,
    )


def test_c3_matchings(dimers):
    pms = enumerate_perfect_matchings(dimers["c3"])
    assert [p.key() for p in pms] == [("x",), ("y",), ("z",)]


def test_conifold_matchings(dimers):
    pms = enumerate_perfect_matchings(dimers["conifold"])
    assert [p.key() for p in pms] == [("a1",), ("a2",), ("b1",), ("b2",)]


def test_spp_matchings_include_boundary_pair(dimers):
    keys = {p.key() for p in enumerate_perfect_matchings(dimers["spp"])}
    assert ("a", "e") in keys and ("c", "g") in keys
    assert len(keys) == 6


def test_every_face_matched_once(dimers):
    for d in dimers.values():
        for p in enumerate_perfect_matchings(d):
            for f in d.faces:
                assert sum(1 for e in f.boundary if e in p.edges) == 1


def brute_force_matchings(d: Dimer) -> list:
    """Every choice of one arrow per positive face that uses each negative face
    exactly once, as sorted keys: a check of the search by plain product.

    The negative face of each arrow is read off ``d.faces`` here, not from the
    dimer's face tables.
    """
    neg = {a: i for i, f in enumerate(d.faces) if f.sign < 0 for a in f.boundary}
    negatives = sorted(i for i, f in enumerate(d.faces) if f.sign < 0)
    rows = [f.boundary for f in d.faces if f.sign > 0]
    return sorted(
        (tuple(sorted(choice, key=idkey)) for choice in itertools.product(*rows)
         if sorted(neg[a] for a in choice) == negatives),
        key=word_key,
    )


# (name, k, l): 1 x 1 is the bundled dimer; at most 20,736 choices each
BRUTE_ZOO = [
    ("c3", 1, 1), ("conifold", 1, 1), ("spp", 1, 1),
    ("c3", 2, 2), ("c3", 3, 2), ("conifold", 2, 2), ("conifold", 4, 1), ("conifold", 3, 2),
    ("spp", 2, 1), ("spp", 1, 2), ("spp", 3, 1), ("spp", 2, 2),
]


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name,k,l", BRUTE_ZOO)
def test_enumeration_is_the_brute_force_product(name, k, l, seed, covers):
    d = zoo_dimer(covers, name, k, l, seed)
    keys = [p.key() for p in enumerate_perfect_matchings(d)]
    assert len(set(keys)) == len(keys), "a matching is listed twice"
    assert sorted(keys, key=word_key) == brute_force_matchings(d)


def uneven_dimer(pos: str, neg: str) -> Dimer:
    """Two triangles of sign ``pos`` and one hexagon of sign ``neg`` on three
    vertices: a valid dimer with unequal face counts, so no perfect matching."""
    ends = {"a": (0, 1), "b": (1, 2), "c": (2, 0), "d": (0, 1), "e": (1, 2), "f": (2, 0)}
    return dimer_from_dict({
        "name": "uneven",
        "vertices": [0, 1, 2],
        "arrows": [{"id": a, "tail": t, "head": h} for a, (t, h) in ends.items()],
        "faces": [
            {"sign": pos, "boundary": ["a", "b", "c"]},
            {"sign": pos, "boundary": ["d", "e", "f"]},
            {"sign": neg, "boundary": ["a", "e", "c", "d", "b", "f"]},
        ],
    })


@pytest.mark.parametrize("pos,neg", [("+", "-"), ("-", "+")])
def test_unequal_face_counts_have_no_perfect_matching(pos, neg):
    # validation lets the dimer through; with one positive hexagon, each of
    # its six arrows alone would use no negative face twice, yet leave one
    # negative triangle unmatched
    d = uneven_dimer(pos, neg)
    assert d.validate().ok
    assert enumerate_perfect_matchings(d) == [] == brute_force_matchings(d)


def test_height_of_reference_is_zero(dimers):
    for d in dimers.values():
        pms = enumerate_perfect_matchings(d)
        assert matching_height(d, pms[0], pms[0]) == (0, 0)


def test_generating_cycle_classes(dimers):
    for d in dimers.values():
        chains = generating_cycles(d)
        for chain, expect in zip(chains, [(1, 0), (0, 1)]):
            total = (0, 0)
            for aid, coeff in chain.items():
                s = d.shift(aid)
                total = (total[0] + coeff * s[0], total[1] + coeff * s[1])
            assert total == expect
            boundary = {v: 0 for v in d.vertices}
            for aid, coeff in chain.items():
                boundary[d.head(aid)] += coeff
                boundary[d.tail(aid)] -= coeff
            assert set(boundary.values()) == {0}


def test_height_independent_of_cycle_choice(dimers):
    # adding a face boundary to a generating chain must not change any height
    for d in dimers.values():
        pms = enumerate_perfect_matchings(d)
        chains = generating_cycles(d)
        face = d.faces[0]
        altered = dict(chains[0])
        for aid in face.boundary:
            altered[aid] = altered.get(aid, 0) + 1
        for p in pms:
            old = evaluate_on_chain(p.edges, chains[0])
            new = evaluate_on_chain(p.edges, altered)
            assert new - old == 1  # exactly one matched edge per face boundary
            base = evaluate_on_chain(pms[0].edges, chains[0])
            base_new = evaluate_on_chain(pms[0].edges, altered)
            assert (new - base_new) == (old - base)


@pytest.mark.parametrize(
    "name, bcount, icount, area",
    [("c3", 3, 0, 1), ("conifold", 4, 0, 2), ("spp", 5, 0, 3)],
)
def test_polytope_shape(dimers, name, bcount, icount, area):
    mp = matching_polytope(dimers[name])
    assert mp.boundary_count == bcount
    assert mp.interior_count == icount
    assert mp.normalized_area == area


def test_hull_edges_match_classes(dimers):
    for d in dimers.values():
        mp = matching_polytope(d)
        assert len(mp.edges) == len({e.class_index for e in mp.edges})
        for e in mp.edges:
            assert e.normal != (0, 0)


def test_corner_structure_all_classes(dimers):
    for d in dimers.values():
        mp = matching_polytope(d)
        for i in range(1, len(mp.edges) + 1):
            sr = corner_structure(d, i, mp)
            assert not sr.shared & frozenset(
                a for mset in sr.family_matchings for a in mset.edges
            ) - sr.shared
            assert len(sr.family_matchings) == 2 ** next(
                e.lattice_length for e in mp.edges if e.class_index == i
            )


def test_corner_chaining(dimers):
    # the zag corner of class i is the zig corner of class i+1
    for d in dimers.values():
        mp = matching_polytope(d)
        n = len(mp.edges)
        order = corner_matchings_in_order(mp)
        for i in range(1, n + 1):
            sr = corner_structure(d, i, mp)
            assert sr.zig_corner.edges == order[i - 1].edges
            assert sr.zag_corner.edges == order[i % n].edges


def test_spp_boundary_matchings_between_P3_P4(dimers):
    d = dimers["spp"]
    mp = matching_polytope(d)
    sr = corner_structure(d, 3, mp)
    strict = {
        p.edges
        for p in sr.family_matchings
        if p.edges not in (sr.zig_corner.edges, sr.zag_corner.edges)
    }
    assert strict == {frozenset({"a", "e"}), frozenset({"c", "g"})}
    # both sit at the single interior lattice point of the edge
    heights = {
        h for h, ps in mp.points.items() if any(p.edges in strict for p in ps)
    }
    assert len(heights) == 1
    assert heights.pop() in sr.edge_points


def test_corner_uniqueness(dimers):
    for d in dimers.values():
        mp = matching_polytope(d)
        for h in mp.hull:
            assert len(mp.points[h]) == 1


def test_boundary_points_equal_total_multiplicity(dimers):
    # B = sum over classes of the parallel multiplicities m_i
    from dimermirror import parallel_classes

    for d in dimers.values():
        mp = matching_polytope(d)
        total = sum(len(members) for _, members in parallel_classes(d))
        assert mp.boundary_count == total
        assert sum(e.lattice_length for e in mp.edges) == total


# -- the polytope from max-weight queries, against enumeration ----------------

# (name, k, l): 1 x 1 is the bundled dimer itself
ORACLE_ZOO = [
    ("c3", 1, 1), ("conifold", 1, 1), ("spp", 1, 1),
    ("c3", 2, 1), ("c3", 3, 1), ("c3", 1, 2), ("c3", 2, 2), ("c3", 3, 3),
    ("spp", 2, 1), ("spp", 1, 2), ("spp", 2, 2),
    ("conifold", 2, 1), ("conifold", 4, 1), ("conifold", 1, 4), ("conifold", 2, 2), ("conifold", 3, 2),
]


def mirrored(raw: dict) -> dict:
    """The dimer with its torus reflected in the x axis: every y shift negated."""
    arrows = [{**a, "shift": [a["shift"][0], -a["shift"][1]]} for a in raw["arrows"]]
    return {**raw, "arrows": arrows}


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("name,k,l", ORACLE_ZOO)
def test_polytope_is_the_hull_of_every_matching(name, k, l, seed, covers):
    raw = covers.cover(covers.load_base(name), k, l) if (k, l) != (1, 1) else covers.load_base(name)
    if seed is not None:
        raw = covers.relabel(raw, random.Random(seed))
    check_hull_of_every_matching(dimer_from_dict(raw))


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("name,k,l", ORACLE_ZOO)
def test_polytope_is_the_hull_of_every_matching_when_mirrored(name, k, l, seed, covers):
    # the torus reflected reverses the orientation of the embedding
    raw = covers.cover(covers.load_base(name), k, l) if (k, l) != (1, 1) else covers.load_base(name)
    if seed is not None:
        raw = covers.relabel(raw, random.Random(seed))
    check_hull_of_every_matching(dimer_from_dict(mirrored(raw)))


def check_hull_of_every_matching(d):
    mp = matching_polytope(d)
    every = enumerate_perfect_matchings(d)
    assert mp.reference.edges == every[0].edges  # P0: least in sorted-id order
    # the polytope's table against the chain scan, matching by matching
    assert [mp.height(p) for p in every] == [matching_height(d, p, every[0]) for p in every]
    assert kasteleyn_count(d) == len(every)
    heights = {matching_height(d, p, every[0]) for p in every}
    hull = mp.hull
    n = len(hull)
    sides = [(hull[i], hull[(i + 1) % n]) for i in range(n)]
    # a strictly convex counterclockwise polygon on matching heights that
    # holds every height is their convex hull
    assert set(hull) <= heights and hull[0] == min(heights)
    for (a, b), (_, c) in zip(sides, sides[1:] + sides[:1]):
        assert (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) > 0
        assert all((b[0] - a[0]) * (h[1] - a[1]) - (b[1] - a[1]) * (h[0] - a[0]) >= 0 for h in heights)
    lengths = [gcd(b[0] - a[0], b[1] - a[1]) for a, b in sides]
    assert [(e.start, e.end, e.lattice_length) for e in mp.edges] == [
        (a, b, g) for (a, b), g in zip(sides, lengths)
    ]
    assert [e.normal for e in mp.edges] == [
        ((b[1] - a[1]) // g, (a[0] - b[0]) // g) for (a, b), g in zip(sides, lengths)
    ]
    twice_area = sum(a[0] * b[1] - a[1] * b[0] for a, b in sides)
    assert (mp.normalized_area, mp.boundary_count) == (twice_area, sum(lengths))
    assert mp.interior_count == (twice_area - sum(lengths) + 2) // 2
    for h in hull:
        at_h = [p for p in every if matching_height(d, p, every[0]) == h]
        assert len(at_h) == 1 and mp.corners[h].edges == at_h[0].edges
    assert set(mp.points) == heights
    assert sum(len(ps) for ps in mp.points.values()) == len(every)


def sparse(w: list) -> list:
    """The solver's rows of (column, -weight) of a weight matrix; None marks a missing pair."""
    return [[(j, -x) for j, x in enumerate(row) if x is not None] for row in w]


def test_max_weight_matching_against_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        w = [[rng.randint(-4, 6) if rng.random() < 0.7 else None for _ in range(n)] for _ in range(n)]
        totals = [
            sum(w[i][perm[i]] for i in range(n))
            for perm in itertools.permutations(range(n))
            if all(w[i][perm[i]] is not None for i in range(n))
        ]
        found = matchings._hungarian(sparse(w))
        if not totals:
            assert found is None
            continue
        match, u, v = found
        assert sorted(match) == list(range(n))
        assert sum(w[i][match[i]] for i in range(n)) == max(totals) == sum(u) + sum(v)
        assert all(
            u[i] + v[j] >= w[i][j] for i in range(n) for j in range(n) if w[i][j] is not None
        )


def parent_max_weight_matching(w: list) -> tuple | None:
    """The dense solver the heap-based one replaced, kept as its reference.

    The textbook shortest-augmenting-path loop in cost form: every step scans
    every column, O(n^3) in all.
    """
    n = len(w)
    u = [0] * (n + 1)  # cost-form row potentials, 1-based
    v = [0] * (n + 1)  # cost-form column potentials; column 0 is the free root
    owner = [0] * (n + 1)  # row matched to each column, 0 if free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv: list = [None] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = owner[j0]
            row = w[i0 - 1]
            delta, j1 = None, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                if row[j - 1] is not None:
                    cur = -row[j - 1] - u[i0] - v[j]
                    if minv[j] is None or cur < minv[j]:
                        minv[j], way[j] = cur, j0
                if minv[j] is not None and (delta is None or minv[j] < delta):
                    delta, j1 = minv[j], j
            if delta is None:
                return None
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if owner[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    match = [0] * n
    for j in range(1, n + 1):
        match[owner[j] - 1] = j - 1
    return match, [-x for x in u[1:]], [-x for x in v[1:]]


def dense(pairs: list) -> list:
    """The weight matrix of the solver's sparse rows of (column, -weight); None marks a missing pair."""
    w = [[None] * len(pairs) for _ in pairs]
    for i, row in enumerate(pairs):
        for j, c in row:
            w[i][j] = -c
    return w


def test_max_weight_matching_gives_the_dense_answer():
    # every tie broken alike: equal matchings and equal potentials, not only equal weight
    rng = random.Random(11)
    solved = 0
    for _ in range(5000):
        n = rng.randint(1, 9)
        density = rng.random()
        scale = rng.choice([0, 1, 3, 2**10, 2**40])  # 0 and 1: nearly every weight ties
        w = [[rng.randint(-scale, scale) if rng.random() < density else None for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.1:
            w[rng.randrange(n)] = [None] * n  # a row with no pair
        found = matchings._hungarian(sparse(w))
        assert found == parent_max_weight_matching(w), w
        solved += found is not None
    assert 1000 < solved < 4000  # both outcomes are well represented


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("name,k,l", ORACLE_ZOO)
def test_every_oracle_query_gets_the_dense_answer(name, k, l, seed, covers, monkeypatch):
    queries = []
    original = matchings._hungarian

    def checked(pairs):
        # one pair per column a row reaches, in column order
        assert all([j for j, _ in row] == sorted({j for j, _ in row}) for row in pairs)
        w = dense(pairs)
        queries.append(w)
        found = original(pairs)
        assert found == parent_max_weight_matching(w)
        return found

    monkeypatch.setattr(matchings, "_hungarian", checked)
    d = zoo_dimer(covers, name, k, l, seed)
    edges = matching_polytope(d).edges
    basis = matching_basis(d)
    # P0, one query per normal, and one or two per basis step
    assert len(queries) >= 1 + len(edges) + basis.rank


def test_polytope_and_jacobi_never_enumerate(monkeypatch, tmp_path, lattice_cover):
    calls = []
    original = matchings.enumerate_perfect_matchings

    def counted(d):
        calls.append(d.name)
        return original(d)

    monkeypatch.setattr(matchings, "enumerate_perfect_matchings", counted)
    cover = tmp_path / "conifold_4x3.json"
    cover.write_text(json.dumps(lattice_cover("conifold", 4, 3)))
    for target in ("c3", "conifold", "spp", str(cover)):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["polytope", target]) == 0
    jacobis = [Jacobi(load_bundled(name)) for name in ("c3", "conifold", "spp")]
    assert calls == []
    # the listing still enumerates, once, when it is first read
    spp = jacobis[2].poly
    assert sum(len(ps) for ps in spp.points.values()) == 6
    assert spp.points is spp.points and calls == ["spp"]


def test_verify_runs_the_exact_cover_search_once(monkeypatch):
    # the cross-check (mp.points) and the listing share the one enumerated list
    searches, calls = [], []
    listing = matchings.enumerate_perfect_matchings
    search = listing.__wrapped__
    monkeypatch.setattr(listing, "__wrapped__", lambda d: searches.append(d.name) or search(d))
    monkeypatch.setattr(matchings, "enumerate_perfect_matchings", lambda d: calls.append(d.name) or listing(d))
    monkeypatch.setattr(ks, "enumerate_perfect_matchings", matchings.enumerate_perfect_matchings)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "conifold"]) == 0
    assert json.loads(out.getvalue())["passed"]
    assert calls == ["conifold", "conifold"] and searches == ["conifold"]


@pytest.mark.parametrize("name,k,l", [("c3", 6, 6), ("conifold", 5, 5)])
def test_polytope_of_large_covers(name, k, l, covers, tmp_path):
    # 263,640 matchings on c3 6x6; enumerating conifold 5x5 runs out of memory
    raw = covers.cover(covers.load_base(name), k, l)
    path = tmp_path / f"{name}_{k}x{l}.json"
    path.write_text(json.dumps(raw))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["polytope", str(path)]) == 0
    data = json.loads(out.getvalue())
    area = data["normalized_area"]
    assert area == k * l * covers.BASE_AREA[name] == len(raw["vertices"])
    assert area == 2 * data["interior_lattice_points"] + data["boundary_lattice_points"] - 2


def test_non_optimal_solver_answer_fails_the_dual_certificate(monkeypatch):
    # after the P0 query come the edge-normal queries; the first of them
    # gets a strictly lighter perfect matching, with the optimal potentials
    original = matchings._hungarian
    calls, swapped = [], []

    def lighter(pairs):
        w = dense(pairs)
        calls.append(w)
        match, u, v = original(pairs)
        if len(calls) > 1 and not swapped:
            n = len(w)
            best = sum(w[i][match[i]] for i in range(n))
            for perm in itertools.permutations(range(n)):
                if all(w[i][perm[i]] is not None for i in range(n)):
                    if sum(w[i][perm[i]] for i in range(n)) < best:
                        swapped.append(len(calls))
                        return list(perm), u, v
        return match, u, v

    monkeypatch.setattr(matchings, "_hungarian", lighter)
    with pytest.raises(DimerError, match="not certified optimal"):
        matching_polytope(load_bundled("spp"))
    assert swapped == [2]  # on spp, the first edge-normal query


@pytest.mark.parametrize(
    "name, c1, c2",
    [
        # two matchings at one corner that differ by an alternating 4-cycle
        ("spp", {"a": 1, "b": 1}, {"e": 1, "b": 1}),
        # parallel arrows a2 and b2 (same two faces), both tight at one corner
        ("conifold", {"a1": 1}, {"b1": 1}),
    ],
)
def test_corner_with_two_optimal_matchings_fails(monkeypatch, name, c1, c2):
    # heights read on the chains c1 and c2, and zigzag classes whose normals
    # and lengths are those of the hull of these heights: the corner step
    # then sees both matchings at (0, 0) among its doubly tight arrows
    d = load_bundled(name)
    heights = {}
    for p in enumerate_perfect_matchings(d):
        h = (evaluate_on_chain(p.edges, c1), evaluate_on_chain(p.edges, c2))
        heights[h] = heights.get(h, 0) + 1
    hull = matchings._convex_hull(list(heights))
    assert heights[(0, 0)] == 2 and (0, 0) in hull and len(hull) >= 3
    classes = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        normal, length = matchings._outward_normal(a, b)
        classes.append(((-normal[0], -normal[1]), [None] * length))
    monkeypatch.setattr(matchings, "arrow_classes", lambda d: {a: (c1.get(a, 0), c2.get(a, 0)) for a in d.arrow_by_id})
    monkeypatch.setattr(matchings, "zigzag_classes", lambda _: classes)
    with pytest.raises(DimerError, match="carries more than one matching"):
        matching_polytope(d)


def turned_classes(classes):
    """Each zigzag class turned, one at a time: by 1, 2 and 3 quarter turns, and toward each other class."""
    for i, ((x, y), members) in enumerate(classes):
        turns = [(-y, x), (-x, -y), (y, -x)]
        turns += [(x + u, y + v) for j, ((u, v), _) in enumerate(classes) if j != i and cross((x, y), (u, v))]
        for t in turns:
            g = gcd(*t)
            yield classes[:i] + [((t[0] // g, t[1] // g), members)] + classes[i + 1:]


@pytest.mark.parametrize("name,k,l", [("c3", 1, 1), ("conifold", 1, 1), ("spp", 1, 1), ("conifold", 4, 3)])
def test_a_turned_zigzag_class_fails_the_edge_certificate(name, k, l, covers, monkeypatch):
    d = zoo_dimer(covers, name, k, l)
    classes = parallel_classes(d)
    mp = matching_polytope(d)
    assert sorted(e.normal for e in mp.edges) == sorted((-x, -y) for (x, y), _ in classes)
    seen = set()
    for turned in turned_classes(classes):
        monkeypatch.setattr(matchings, "zigzag_classes", lambda _, c=turned: c)
        with pytest.raises(DimerError, match="share no corner|do not turn once around a polygon") as err:
            matching_polytope(zoo_dimer(covers, name, k, l))
        seen.add("share no corner" in str(err.value))
    # on a triangle every turn breaks the counterclockwise order; with more
    # classes some reach the corner step
    assert seen == ({False} if len(classes) == 3 else {True, False})


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_an_extra_or_short_zigzag_class_fails_the_edge_certificate(name, monkeypatch):
    d = load_bundled(name)
    classes = parallel_classes(d)
    edges = sorted(matching_polytope(d).edges, key=lambda e: ccw_angle_key(e.normal))
    # a class normal to a corner's cone, between two edges, puts a corner where an edge should be
    (x, y), (u, v) = edges[0].normal, edges[1].normal
    extra = classes + [((-x - u, -y - v), classes[0][1])]
    monkeypatch.setattr(matchings, "zigzag_classes", lambda _: extra)
    with pytest.raises(DimerError, match=f"the edge normal to -eta_{len(extra)} collapses to the corner"):
        matching_polytope(load_bundled(name))
    short = [(eta, members[:-1] if i == 0 else members) for i, (eta, members) in enumerate(classes)]
    monkeypatch.setattr(matchings, "zigzag_classes", lambda _: short)
    with pytest.raises(DimerError, match="to -eta_1 has lattice length"):
        matching_polytope(load_bundled(name))


@pytest.mark.parametrize(
    "name,k,l,solves", [("c3", 1, 1, 4), ("conifold", 1, 1, 5), ("spp", 1, 1, 5), ("conifold", 4, 3, 5)]
)
def test_polytope_makes_one_solve_per_zigzag_class(name, k, l, solves, covers, monkeypatch):
    d = zoo_dimer(covers, name, k, l)
    calls = []
    original = matchings._hungarian
    monkeypatch.setattr(matchings, "_hungarian", lambda pairs: calls.append(pairs) or original(pairs))
    matching_polytope(d)
    assert len(calls) == 1 + len(parallel_classes(d)) == solves  # P0, then one per edge


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_verify_builds_the_oracle_and_the_chains_once(name, monkeypatch):
    from dimermirror.ks import KSVerifier

    built = []
    oracle_init, table = matchings._MatchingOracle.__init__, matchings.arrow_classes.__wrapped__

    def counted_init(self, d):
        built.append("oracle")
        oracle_init(self, d)

    monkeypatch.setattr(matchings._MatchingOracle, "__init__", counted_init)
    monkeypatch.setattr(matchings.arrow_classes, "__wrapped__", lambda d: built.append("table") or table(d))
    assert KSVerifier(load_bundled(name)).verify_all().passed
    assert sorted(built) == ["oracle", "table"]


def polytope_with(mp: MatchingPolytope, hull=None, corners=None) -> MatchingPolytope:
    """mp with its hull or its corners replaced and every other field kept."""
    return MatchingPolytope(
        mp.hull if hull is None else hull,
        mp.edges,
        mp.boundary_count,
        mp.interior_count,
        mp.corners if corners is None else corners,
        mp.normalized_area,
        mp.dimer,
        mp.arrow_class,
        mp.reference,
        mp.reference_class,
        mp._points,
    )


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_enumeration_cross_check_catches_a_wrong_hull_or_corner(name):
    mp = matching_polytope(load_bundled(name))
    check_against_enumeration(mp)
    corner = mp.hull[0]
    # a hull missing a corner, and a corner carrying a matching of another height
    other = next(p for h, ps in mp.points.items() if h != corner for p in ps)
    with pytest.raises(DimerError, match="is not the hull"):
        check_against_enumeration(polytope_with(mp, hull=mp.hull[1:]))
    wrong = {**mp.corners, corner: PerfectMatching(other.edges, corner)}
    with pytest.raises(DimerError, match="not the certified one alone"):
        check_against_enumeration(polytope_with(mp, corners=wrong))


def test_verify_fails_when_the_polygon_disagrees_with_enumeration(monkeypatch):
    from dimermirror import jacobi

    def shrunk(d):
        mp = matching_polytope(d)
        return polytope_with(mp, hull=mp.hull[1:])

    monkeypatch.setattr(jacobi, "matching_polytope", shrunk)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "conifold", "--format", "json"]) == 1
    data = json.loads(out.getvalue())
    assert data["stage"] == "matchings" and "is not the hull" in data["error"]


# -- the Kasteleyn count and the matching basis, against enumeration ------------

COUNT_ZOO = [
    ("c3", 1, 1), ("conifold", 1, 1), ("spp", 1, 1),
    ("c3", 2, 2), ("c3", 3, 3), ("c3", 4, 4),
    ("conifold", 2, 2), ("conifold", 3, 2), ("conifold", 4, 1), ("conifold", 4, 3),
    ("spp", 2, 1), ("spp", 2, 2),
]


def zoo_dimer(covers, name, k, l, seed=None):
    raw = covers.cover(covers.load_base(name), k, l) if (k, l) != (1, 1) else covers.load_base(name)
    if seed is not None:
        raw = covers.relabel(raw, random.Random(seed))
    return dimer_from_dict(raw)


def indicator(d, p) -> list:
    return [1 if a in p.edges else 0 for a in sorted(d.arrow_by_id, key=idkey)]


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("name,k,l", COUNT_ZOO)
def test_kasteleyn_count_and_matching_basis_against_enumeration(name, k, l, seed, covers):
    # the conifold 2x2 and 3x2 covers fail verify on xi_v; they are counted all the same
    d = zoo_dimer(covers, name, k, l, seed)
    every = enumerate_perfect_matchings(d)
    assert kasteleyn_count(d) == len(every)
    # the solved signs meet the Kasteleyn condition at every quiver vertex
    signs = kasteleyn_signs(d)
    for v in d.vertices:
        at_v = [a for a in d.arrow_by_id for end in (d.tail(a), d.head(a)) if end == v]
        product = 1
        for a in at_v:
            product *= signs[a]
        assert product == (-1) ** (len(at_v) // 2 + 1), v
    basis = matching_basis(d)
    assert basis.rank == basis.dim_W == len(d.vertices) + 2
    assert {p.edges for p in basis.matchings} <= {p.edges for p in every}
    assert indicator_rank(basis, every) == basis.rank
    if len(every) <= 500:
        # the same span in plain arrow coordinates: every indicator is a
        # combination of the basis indicators
        full = _Span(len(d.arrow_by_id))
        assert all(full.add(indicator(d, p)) for p in basis.matchings)
        assert not any(full.add(indicator(d, p)) for p in every)


def test_span_rank_and_normal_against_gram_determinants():
    rng = random.Random(0)

    def gram(vs):
        return det_int([[sum(x * y for x, y in zip(u, v)) for v in vs] for u in vs])

    for _ in range(200):
        width = rng.randint(1, 5)
        span = _Span(width)
        vecs = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(rng.randint(0, 7))]
        kept = [v for v in vecs if span.add(v)]
        assert span.rank == len(kept) and gram(kept) != 0
        assert all(gram(kept + [v]) == 0 for v in vecs)
        w = span.normal()
        if len(kept) == width:
            assert w is None
        else:
            assert any(w) and all(sum(x * y for x, y in zip(w, v)) == 0 for v in vecs)


def test_matching_basis_stops_short_when_the_oracle_repeats_itself(monkeypatch):
    # an oracle that always returns its first answer spans one dimension only
    first = []
    best = matchings._MatchingOracle.best

    def stuck(self, weight, label):
        if not first:
            first.append(best(self, weight, label))
        return first[0]

    monkeypatch.setattr(matchings._MatchingOracle, "best", stuck)
    basis = matching_basis(load_bundled("spp"))
    assert (basis.rank, basis.dim_W) == (1, 5)


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("name,k,l", [("spp", 1, 1), ("conifold", 2, 2), ("c3", 3, 1)])
def test_table_heights_match_the_chain_scan(name, k, l, seed, covers):
    raw = covers.cover(covers.load_base(name), k, l) if (k, l) != (1, 1) else covers.load_base(name)
    if seed is not None:
        raw = covers.relabel(raw, random.Random(seed))
    d = dimer_from_dict(raw)
    mp = matching_polytope(d)
    chains = generating_cycles(d)
    for h, corner in mp.corners.items():
        assert matching_height(d, corner, mp.reference, chains) == h
    for p in enumerate_perfect_matchings(d):
        assert mp.height(p) == matching_height(d, p, mp.reference, chains)
    # an arrow on neither chain adds nothing, as in the chain scan
    assert mp.height(PerfectMatching(mp.reference.edges | {"not-an-arrow"})) == (0, 0)


# -- the old scans, kept as references for the per-dimer lookup tables ------------
#
# kasteleyn_signs scanned every arrow at each vertex, enumeration found each
# arrow's faces by scanning every face, the pairing kept one zig-minus-zag
# count table per cycle, and face_word_at scanned the faces on each call.


def parent_kasteleyn_signs(d: Dimer) -> dict:
    arrows = sorted(d.arrow_by_id, key=idkey)
    bit = {a: 1 << r for r, a in enumerate(arrows)}
    pivots = []
    for v in d.vertices:
        eq, deg = 0, 0
        for a in arrows:
            at_v = (d.tail(a), d.head(a)).count(v)
            deg += at_v
            if at_v == 1:
                eq |= bit[a]
        rhs = (deg // 2 + 1) & 1
        for p, e, r in pivots:
            if eq & p:
                eq, rhs = eq ^ e, rhs ^ r
        if eq:
            pivots.append((eq & -eq, eq, rhs))
        elif rhs:
            raise DimerError(f"no Kasteleyn signs: the condition at vertex {v!r} contradicts the others")
    odd = 0
    for p, e, r in reversed(pivots):
        if r ^ (bin(e & odd).count("1") & 1):
            odd |= p
    return {a: -1 if odd & bit[a] else 1 for a in arrows}


def parent_enumerate_perfect_matchings(d: Dimer) -> list:
    face_sets = [frozenset(f.boundary) for f in d.faces]
    arrows = sorted(d.arrow_by_id, key=idkey)
    faces_of = {a: [i for i, fs in enumerate(face_sets) if a in fs] for a in arrows}
    results = []

    def search(chosen: list, covered: int, forbidden: frozenset):
        if covered == (1 << len(face_sets)) - 1:
            results.append(frozenset(chosen))
            return
        best_cands = None
        for i, fs in enumerate(face_sets):
            if covered >> i & 1:
                continue
            cands = [a for a in fs if a not in forbidden]
            if best_cands is None or len(cands) < len(best_cands):
                best_cands = cands
            if not cands:
                return
        for a in sorted(best_cands, key=idkey):
            mask = covered
            ok = True
            for i in faces_of[a]:
                if mask >> i & 1:
                    ok = False
                    break
                mask |= 1 << i
            if not ok:
                continue
            newly = frozenset(b for i in faces_of[a] for b in face_sets[i] if b not in forbidden)
            search(chosen + [a], mask, forbidden | newly)

    search([], 0, frozenset())
    return sorted(set(results), key=lambda s: word_key(sorted(s, key=idkey)))


def parent_pairing_matrix(sh) -> dict:
    pairings = {}
    for key, z in sh.cycles.items():
        counts: dict = {}
        for a in z.zigs:
            counts[a] = counts.get(a, 0) + 1
        for a in z.zags:
            counts[a] = counts.get(a, 0) - 1
        pairings[key] = counts
    return {
        (e, key): pairings[key].get(e, 0)
        for e in sorted(sh.dimer.arrow_by_id, key=idkey)
        for key in sorted(sh.cycles)
    }


def parent_face_word_at(d: Dimer, v) -> tuple:
    for f in d.faces:
        for k, aid in enumerate(f.boundary):
            if d.tail(aid) == v:
                return f.boundary[k:] + f.boundary[:k]
    raise DimerError(f"vertex {v!r} on no face")


def mixed_ids(raw: dict) -> dict:
    """The same dimer with every other vertex and arrow id an int, so idkey orders ints before strings."""
    vmap = {v: i * 7 % 11 if i % 2 else v for i, v in enumerate(raw["vertices"])}
    amap = {a["id"]: i * 5 % 13 + 100 * (i % 3) if i % 2 else a["id"] for i, a in enumerate(raw["arrows"])}
    return {
        "name": raw["name"],
        "vertices": [vmap[v] for v in raw["vertices"]],
        "arrows": [{**a, "id": amap[a["id"]], "tail": vmap[a["tail"]], "head": vmap[a["head"]]} for a in raw["arrows"]],
        "faces": [{**f, "boundary": [amap[x] for x in f["boundary"]]} for f in raw["faces"]],
    }


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("name,k,l", ORACLE_ZOO)
def test_lookup_tables_give_the_old_scans(name, k, l, seed, mirror, covers):
    from dimermirror.dimer import face_word_at
    from dimermirror.mirror_sh import MirrorSH

    raw = covers.cover(covers.load_base(name), k, l) if (k, l) != (1, 1) else covers.load_base(name)
    if seed is not None:
        raw = mixed_ids(covers.relabel(raw, random.Random(seed)))
    d = dimer_from_dict(mirrored(raw) if mirror else raw)
    assert list(kasteleyn_signs(d).items()) == list(parent_kasteleyn_signs(d).items())
    assert [p.edges for p in enumerate_perfect_matchings(d)] == parent_enumerate_perfect_matchings(d)
    got = MirrorSH(d).pairing_matrix()
    assert list(got.items()) == list(parent_pairing_matrix(MirrorSH(d)).items())
    assert {type(x) for x in got.values()} == {int}
    for v in d.vertices:
        assert face_word_at(d, v) == parent_face_word_at(d, v)
