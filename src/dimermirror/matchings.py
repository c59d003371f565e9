"""Perfect matchings, height classes, and the matching polytope."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .dimer import (
    Dimer,
    DimerError,
    Vec,
    ccw_angle_key,
    cross,
    dot,
    idkey,
    parallel_classes,
    tree_paths,
    vec_add,
    vec_neg,
    vec_sub,
)


@dataclass(frozen=True)
class PerfectMatching:
    edges: frozenset
    height: Optional[Vec] = None  # class of (P - P0) in H^1, once assigned

    def key(self):
        return tuple(sorted(self.edges, key=idkey))


@dataclass(frozen=True)
class HullEdge:
    class_index: int  # the zigzag class -eta_i normal to this edge
    normal: Vec  # outward, primitive (= -eta_i)
    start: Vec  # corner heights, counterclockwise
    end: Vec
    lattice_length: int


@dataclass
class MatchingPolytope:
    points: dict  # height -> list[PerfectMatching]
    hull: list[Vec]  # corner heights in counterclockwise order
    edges: list[HullEdge]
    boundary_count: int  # B
    interior_count: int  # I
    corners: dict  # height -> PerfectMatching (unique per corner)
    normalized_area: int  # twice the Euclidean area


def enumerate_perfect_matchings(d: Dimer) -> list[PerfectMatching]:
    """Exact-cover search: each face boundary contains exactly one chosen arrow."""
    d.require_valid()
    face_sets = [frozenset(f.boundary) for f in d.faces]
    arrows = sorted(d.arrow_by_id, key=idkey)
    faces_of = {a: [i for i, fs in enumerate(face_sets) if a in fs] for a in arrows}
    results = []

    def search(chosen: list, covered: int, forbidden: frozenset):
        if covered == (1 << len(face_sets)) - 1:
            results.append(frozenset(chosen))
            return
        # most constrained uncovered face
        best, best_cands = None, None
        for i, fs in enumerate(face_sets):
            if covered >> i & 1:
                continue
            cands = [a for a in fs if a not in forbidden]
            if best_cands is None or len(cands) < len(best_cands):
                best, best_cands = i, cands
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
            # arrows sharing a face with `a` can no longer be used
            newly = frozenset(
                b for i in faces_of[a] for b in face_sets[i] if b not in forbidden
            )
            search(chosen + [a], mask, forbidden | newly)

    search([], 0, frozenset())
    uniq = sorted({r for r in results}, key=lambda s: tuple(sorted(s, key=idkey)))
    return [PerfectMatching(edges=s) for s in uniq]


def generating_cycles(d: Dimer):
    """Two integer 1-chains with homology classes (1,0) and (0,1).

    Chains are dicts arrow -> coefficient (reversed traversals count with
    sign -1); they are built from fundamental cycles of the spanning tree
    behind ``tree_paths``.
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
    """Class of (P - P0) in H^1, evaluated on fixed generating cycles."""
    if chains is None:
        chains = generating_cycles(d)
    return tuple(
        evaluate_on_chain(p.edges, c) - evaluate_on_chain(p0.edges, c) for c in chains
    )


def _convex_hull(points: list[Vec]) -> list[Vec]:
    """Andrew's monotone chain; counterclockwise corners, no collinear points."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and cross(vec_sub(lower[-1], lower[-2]), vec_sub(p, lower[-2])) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(vec_sub(upper[-1], upper[-2]), vec_sub(p, upper[-2])) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def matching_polytope(d: Dimer) -> MatchingPolytope:
    """Convex hull of matching heights with the class <-> edge correspondence."""
    matchings = enumerate_perfect_matchings(d)
    if not matchings:
        raise DimerError("dimer has no perfect matching")
    chains = generating_cycles(d)
    p0 = matchings[0]
    with_heights = [
        PerfectMatching(p.edges, matching_height(d, p, p0, chains)) for p in matchings
    ]
    points: dict = {}
    for p in with_heights:
        points.setdefault(p.height, []).append(p)
    hull = _convex_hull(list(points))
    if len(hull) < 3:
        raise DimerError("matching polytope is degenerate")
    # lattice boundary / interior counts
    boundary = 0
    for i in range(len(hull)):
        delta = vec_sub(hull[(i + 1) % len(hull)], hull[i])
        boundary += gcd(abs(delta[0]), abs(delta[1]))
    twice_area = sum(cross(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))
    if twice_area <= 0:
        raise DimerError("hull orientation error")
    interior = (twice_area - boundary + 2) // 2
    corners = {}
    for h in hull:
        reps = points[h]
        if len(reps) != 1:
            raise DimerError(f"corner {h} carries {len(reps)} matchings, expected exactly 1")
        corners[h] = reps[0]

    classes = parallel_classes(d)
    edges = []
    normals_seen = []
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        delta = vec_sub(b, a)
        g = gcd(abs(delta[0]), abs(delta[1]))
        normal = (delta[1] // g, -delta[0] // g)  # outward for ccw hull
        normals_seen.append(normal)
        matched = [
            ci for ci, (eta, _) in enumerate(classes, start=1) if vec_neg(eta) == normal
        ]
        if len(matched) != 1:
            raise DimerError(
                f"hull edge normal {normal} matches {len(matched)} zigzag classes"
            )
        edges.append(
            HullEdge(class_index=matched[0], normal=normal, start=a, end=b, lattice_length=g)
        )
    if sorted(normals_seen, key=ccw_angle_key) != sorted(
        [vec_neg(eta) for eta, _ in classes], key=ccw_angle_key
    ):
        raise DimerError("hull edge normals do not match the zigzag classes")
    for e in edges:
        eta, members = classes[e.class_index - 1]
        if e.lattice_length != len(members):
            raise DimerError(
                f"edge normal to -eta_{e.class_index} has lattice length "
                f"{e.lattice_length} != m_i = {len(members)}"
            )
    return MatchingPolytope(
        points=points,
        hull=hull,
        edges=edges,
        boundary_count=boundary,
        interior_count=interior,
        corners=corners,
        normalized_area=twice_area,
    )


@dataclass
class StructureReport:
    class_index: int
    zig_corner: PerfectMatching  # P_i
    zag_corner: PerfectMatching  # P_{i+1}
    shared: frozenset  # J_{eta_i}
    family_matchings: list  # the 2^{m_i} interpolating matchings
    edge_points: list  # heights on the hull edge, in order


def corner_structure(d: Dimer, class_index: int, mp: Optional[MatchingPolytope] = None) -> StructureReport:
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


def corner_matchings_in_order(mp: MatchingPolytope) -> list[PerfectMatching]:
    """P_1, ..., P_N: the zig corner of class i sits at the ccw start of edge i."""
    by_class = {e.class_index: e for e in mp.edges}
    return [mp.corners[by_class[i].start] for i in range(1, len(mp.edges) + 1)]
