"""Perfect matchings, height classes, and the matching polytope.

A perfect matching picks one arrow on every face: it is a perfect matching
of the bipartite graph whose two sides are the positive and the negative
faces and whose edges are the arrows.  Its height is its class in H^1
relative to the reference matching P0: the dual of the homology class of
the bipartite cycle P - P0.

``matching_polytope`` never lists the matchings, and it solves no weighted
problem:

* P0 is the least matching in sorted-id order, found once per dimer
  (``_reference``) with no weights by ``_MatchingOracle.least``: any perfect
  matching by augmenting paths, then the arrows in id order, each joining
  when an alternating cycle among the faces still open runs through it.  P0
  maximises sum 2^(|Q1| - 1 - rank(a)), and potentials certify that as they
  certify the corners.
* The polygon's edges are the zigzag classes (``zigzag_classes``, which
  leaves each class's cycles unordered): edge i has outward normal -eta_i
  and lattice length m_i (Gulotta, arXiv:0807.3012).  The normals nu_k are
  sorted counterclockwise.
* Corner k, between nu_{k-1} and nu_k, is read off the zigzag directions
  (``_zigzag_corners``): every arrow whose zig and zag homologies enclose
  theta = nu_{k-1} + nu_k, on the arc that the orientation of the embedding
  picks (Broomhead, arXiv:0901.4662).
* Nothing is taken on trust.  Each corner must be a perfect matching.
  Normal k is certified from corner k alone (``_MatchingOracle.certify``):
  Bellman-Ford on the corner's exchange graph gives integer potentials, and
  LP duality checks them as it checks P0's.  Corner k must then be tight
  for normal k - 1 too, so it is optimal for both of its normals, and the
  absence of an alternating cycle among the arrows tight for both proves
  it the only matching at its height.
* Each pair of consecutive corners spans an edge of the normal between them
  (both are optimal for it), which must have lattice length m_i.  The
  corners are then realized heights at every vertex of the intersection of
  the half-planes <nu_k, h> <= <nu_k, h_k>, h_k being corner k's height, so
  that polygon is the hull.

A wrong normal or a wrong corner raises ``DimerError`` instead of shrinking
the hull: a rule set that is no perfect matching, a certificate that fails,
two consecutive normals with no common optimum, or a corner where an edge
should be.

Heights come from one table per dimer, ``arrow_classes``, whose entries
are also the weights of the certificates.  Each arrow's entry is read off the
shift prefixes of the arrow in the stored boundaries of its two faces, one
pass over the faces (Kenyon, Okounkov and Sheffield, math-ph/0311005).  A
matching's height is the sum of its arrows' entries minus that of P0, which
is summed once; ``MatchingPolytope.height`` reads the same table.  Before
the table is built, ``_check_marking`` refuses shifts whose cycles miss the
class (1, 0) or (0, 1) of the torus.

Two more polynomial computations stand in for the list of all matchings:

* ``matching_basis`` returns matchings whose indicator vectors span those of
  every matching, which all lie in W = {x in Z^Q1 : every face sum equal}, of
  dimension |Q0| + 2: P0, and P0 Δ C for one directed cycle C of P0's
  alternating digraph per ear of its ear decomposition.  It searches for
  nothing beyond P0, and its rank is exact by construction.  A linear
  identity that holds on the basis holds on every matching.
* ``kasteleyn_count`` counts the matchings from four determinants of a
  Kasteleyn-signed matrix (Kenyon, Okounkov and Sheffield).

The oracle is built once per dimer and shared by the polygon and the count,
and so is the table; P0, found once, is shared by the polygon and the
basis.
Enumeration (``enumerate_perfect_matchings``, once per dimer) still runs for
``MatchingPolytope.points``, read on first use by the ``matchings`` listing
(which refuses dimers above ``ENUMERATION_GATE``) and by
``check_against_enumeration``.  ``ks.KSVerifier`` runs it only as an oracle,
on dimers whose Kasteleyn count is at most ``ENUMERATION_GATE``.  It reads
only the face tables, none of the structures above.
"""

from __future__ import annotations

from itertools import groupby
from math import gcd
from operator import attrgetter, itemgetter

from .dimer import (
    Dimer,
    DimerError,
    Vec,
    _ext_gcd,
    _face_structure,
    _Frozen,
    _Record,
    _set,
    _zigzag_orbits,
    ccw_angle_key,
    cross,
    dot,
    idkey,
    per_dimer,
    tree_paths,
    vec_add,
    vec_neg,
    vec_sub,
    zigzag_classes,
)


class PerfectMatching(_Frozen):
    _fields = ("edges", "height")
    _key = attrgetter(*_fields)

    def __init__(self, edges: frozenset, height: Vec | None = None):
        _set(self, "edges", edges)
        _set(self, "height", height)  # class of (P - P0) in H^1, once assigned

    def key(self):
        return tuple(sorted(self.edges, key=idkey))


class HullEdge(_Frozen):
    _fields = ("class_index", "normal", "start", "end", "lattice_length")
    _key = attrgetter(*_fields)

    def __init__(self, class_index: int, normal: Vec, start: Vec, end: Vec, lattice_length: int):
        _set(self, "class_index", class_index)  # the zigzag class -eta_i normal to this edge
        _set(self, "normal", normal)  # outward, primitive (= -eta_i)
        _set(self, "start", start)  # corner heights, counterclockwise
        _set(self, "end", end)
        _set(self, "lattice_length", lattice_length)


class MatchingPolytope(_Record):
    """The matching polygon; its repr shows the first six fields."""

    _fields = ("hull", "edges", "boundary_count", "interior_count", "corners", "normalized_area")
    _key = attrgetter(*_fields, "dimer", "arrow_class", "reference", "reference_class")

    def __init__(
        self,
        hull: list[Vec],
        edges: list[HullEdge],
        boundary_count: int,
        interior_count: int,
        corners: dict,
        normalized_area: int,
        dimer: Dimer,
        arrow_class: dict,
        reference: PerfectMatching,
        reference_class: Vec,
        _points: dict | None = None,
    ):
        self.hull = hull  # corner heights in counterclockwise order
        self.edges = edges
        self.boundary_count = boundary_count  # B
        self.interior_count = interior_count  # I
        self.corners = corners  # height -> PerfectMatching (unique per corner)
        self.normalized_area = normalized_area  # twice the Euclidean area
        self.dimer = dimer
        self.arrow_class = arrow_class  # arrow -> its height entry, the table arrow_classes(dimer)
        self.reference = reference  # P0, at height (0, 0)
        self.reference_class = reference_class  # _class_sum(P0.edges, arrow_class), taken once
        self._points = _points

    @property
    def points(self) -> dict:
        """height -> list[PerfectMatching], from enumerating every matching on first read."""
        if self._points is None:
            points: dict = {}
            for p in enumerate_perfect_matchings(self.dimer):
                h = self.height(p)
                points.setdefault(h, []).append(PerfectMatching(p.edges, h))
            self._points = points
        return self._points

    def height(self, matching: PerfectMatching) -> Vec:
        """Class of (matching - P0), read from the table the polytope was built with."""
        return vec_sub(_class_sum(matching.edges, self.arrow_class), self.reference_class)


# The ``matchings`` listing and the verifier's ``matchings.count`` row
# enumerate every perfect matching only on dimers with at most this many (by
# the Kasteleyn count): the c3 4x4 cover (417 matchings) passes the gate, the
# c3 5x5 cover (7,623) does not.
ENUMERATION_GATE = 1000


@per_dimer
def enumerate_perfect_matchings(d: Dimer) -> list[PerfectMatching]:
    """Every perfect matching: one arrow per positive face, no negative face twice.

    A row-by-row search: each positive face is a row of arrows, one allowed
    while its negative face is free, and the open row with the fewest allowed
    arrows is filled next, so each matching is reached once.  Sorted by the
    matchings' sorted arrow ranks; [] when the face counts differ.

    The search runs once per dimer: every call returns the same list, kept
    in the dimer's cache and shared by ``MatchingPolytope.points`` and
    ``ks.KSVerifier``, so callers must not mutate it.
    """
    d.require_valid()
    rows = [[(a, d.neg_face_of(a)) for a in f.boundary] for f in d.faces if f.sign > 0]
    if 2 * len(rows) != len(d.faces):
        return []
    taken = [False] * len(d.faces)  # by face index: the negative faces used so far
    chosen, found = [], []

    def search(open_rows: list) -> None:
        if not open_rows:
            found.append(frozenset(chosen))
            return
        best = None
        for i, row in enumerate(open_rows):
            allowed = [(a, f) for a, f in row if not taken[f]]
            if best is None or len(allowed) < len(best):
                best, at = allowed, i
                if not allowed:
                    return
        rest = open_rows[:at] + open_rows[at + 1 :]
        for a, f in best:
            taken[f] = True
            chosen.append(a)
            search(rest)
            chosen.pop()
            taken[f] = False

    search(rows)
    found.sort(key=lambda s: sorted(map(d.arrow_rank.__getitem__, s)))
    return [PerfectMatching(edges=s) for s in found]


@per_dimer
def arrow_classes(d: Dimer) -> dict:
    """arrow -> its entry in the height table: the class of P - P0 is the sum over P minus that over P0.

    A face's stored boundary, lifted to the plane from the tail of its first
    arrow, puts each arrow's tail at its shift prefix: the total shift of the
    arrows before it.  So s(a), a's prefix in its positive face minus its
    prefix in its negative face, is the translate between the lifts of the
    two faces that a joins, and s summed over P minus P0 is the homology
    class of the bipartite cycle P - P0 (Kenyon, Okounkov and Sheffield,
    math-ph/0311005).  Its dual in H^1 is sigma * (-s_y, s_x), sigma being
    the orientation of the embedding (``_orientation``).  Computed once per
    dimer, after ``_check_marking``; the table is shared, so do not mutate it.
    """
    _check_marking(d)
    s: dict = {}
    for f in d.faces:
        x = y = 0
        for a in f.boundary:
            px, py = s.get(a, (0, 0))
            s[a] = (px + f.sign * x, py + f.sign * y)
            dx, dy = d.arrow_by_id[a].shift
            x, y = x + dx, y + dy
    sigma = _orientation(d)
    return {a: (-sigma * s[a][1], sigma * s[a][0]) for a in d.arrow_ids}


def _check_marking(d: Dimer) -> None:
    """Raise DimerError unless cycles of the quiver have the classes (1, 0) and (0, 1).

    The fundamental cycles of the spanning tree behind ``tree_paths`` span
    the classes of all cycles.  Their lattice is kept in Hermite form, with
    rows (g, y) and (0, g2): (1, 0) lies in it when g == 1 and g2 divides y,
    and (0, 1) when g2 == 1.
    """
    paths = tree_paths(d)
    pot = {v: d.path_shift(path) for v, path in paths.items()}
    tree_ids = {path[-1][0] for path in paths.values() if path}
    g = y = g2 = 0
    for aid in d.arrow_ids:
        if aid in tree_ids:
            continue
        a = d.arrow_by_id[aid]
        cx, cy = vec_sub(vec_add(pot[a.tail], d.shift(aid)), pot[a.head])
        h, s, t = _ext_gcd(g, cx)
        if h:
            # rows (g, y), (cx, cy) -> (h, s*y + t*cy) and (0, (cx*y - g*cy) / h)
            g, y, g2 = h, s * y + t * cy, gcd(g2, (cx * y - g * cy) // h)
        else:
            g2 = gcd(g2, cy)
    if g != 1 or (y % g2 if g2 else y):
        raise DimerError("no integer cycle with class (1, 0); invalid torus marking")
    if g2 != 1:
        raise DimerError("no integer cycle with class (0, 1); invalid torus marking")


def _orientation(d: Dimer) -> int:
    """The sign of cross(zig class, zag class) at the first arrow, in id order, where they are independent.

    On a consistent dimer every such arrow gives the same sign, the
    orientation of the embedding.  Without one the zigzag classes span no
    polygon, and ``matching_polytope`` refuses the dimer before it reads a
    height; the sign is then +1.
    """
    orbits, orbit_of = _zigzag_orbits(d)
    for a in d.arrow_ids:
        zig, zag = orbit_of[a]
        c = cross(orbits[zig].homology, orbits[zag].homology)
        if c:
            return 1 if c > 0 else -1
    return 1


def _class_sum(edges, arrow_class: dict) -> Vec:
    """The sum of the table entries of a set of arrows; an arrow not in the table adds 0."""
    x = y = 0
    for a in edges:
        cx, cy = arrow_class.get(a, (0, 0))
        x += cx
        y += cy
    return (x, y)


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


@per_dimer
def _oracle(d: Dimer) -> "_MatchingOracle":
    """The dimer's matching oracle, built once per dimer and shared."""
    return _MatchingOracle(d)


@per_dimer
def _reference(d: Dimer) -> frozenset:
    """The arrows of P0, the least matching in sorted-id order, read by the polygon and the basis.

    Found by ``_MatchingOracle.least`` and not taken on trust: P0 outweighs
    every other matching under the weights 2^(|Q1| - 1 - rank(a)), and
    ``certify`` proves it optimal under them.  Raises DimerError when the
    dimer has no perfect matching.
    """
    oracle = _oracle(d)
    found = oracle.least()
    if found is None:
        raise DimerError("dimer has no perfect matching")
    top = len(oracle.arrows) - 1
    if oracle.certify(found, {a: 1 << (top - r) for r, a in enumerate(oracle.arrows)}, "P0") is None:
        raise DimerError("query P0: the search returned no perfect matching")
    return found


class _MatchingOracle:
    """The perfect matchings of one dimer: the least one, and certificates of optimality.

    Rows are the positive faces and columns the negative faces; arrow a joins
    the row of its positive face to the column of its negative face.
    """

    def __init__(self, d: Dimer):
        self.arrows = d.arrow_ids
        pos = [fi for fi, f in enumerate(d.faces) if f.sign > 0]
        neg = [fi for fi, f in enumerate(d.faces) if f.sign < 0]
        row = {fi: i for i, fi in enumerate(pos)}
        col = {fi: j for j, fi in enumerate(neg)}
        self.n = len(pos) if len(pos) == len(neg) else None
        pos_face, neg_face = _face_structure(d)[:2]
        self.ends = {a: (row[pos_face[a]], col[neg_face[a]]) for a in self.arrows}

    def least(self) -> frozenset | None:
        """The least perfect matching in sorted-id order, or None if there is none.

        Any perfect matching is found first, by augmenting paths, one
        breadth-first search per row.  The arrows are then walked in id
        order.  An arrow a from an open row i to an open column j joins when
        an alternating cycle runs through it among the open rows: a path from
        the row matched at j to the column matched at i.  The matching is
        flipped along the cycle, and row i and column j close.  Otherwise a
        is refused.  So a joins exactly when some perfect matching holds it
        and every arrow joined before it, and the joined arrows are P0.
        """
        if self.n is None:
            return None
        ends = self.ends
        out: list = [[] for _ in range(self.n)]  # row -> its arrows, in id order
        for a in self.arrows:
            out[ends[a][0]].append(a)
        owner: list = [None] * self.n  # column -> its matched arrow
        matched: list = [None] * self.n  # row -> its matched column
        closed = [False] * self.n  # by column; a closed row is matched to a closed column

        def augment(start: int, reached) -> bool:
            """Flip a shortest path of open columns from row start to the first column where reached(column) holds."""
            via: dict = {}  # column -> the arrow the search reached it by
            rows = [start]
            for i in rows:  # grows while it is read
                for a in out[i]:
                    j = ends[a][1]
                    if j in via or closed[j]:
                        continue
                    via[j] = a
                    if reached(j):
                        # each column on the path takes the arrow that reached it
                        while True:
                            i = ends[via[j]][0]
                            owner[j], matched[i], j = via[j], j, matched[i]
                            if i == start:
                                return True
                    rows.append(ends[owner[j]][0])
            return False

        for r in range(self.n):
            if not augment(r, lambda j: owner[j] is None):
                return None
        for a in self.arrows:
            i, j = ends[a]
            if closed[j] or closed[matched[i]]:
                continue
            if owner[j] != a:
                # owner[j] is never parallel to a: each search reaches a column
                # first through the least-id arrow from a row, so a parallel
                # owner[j] precedes a and was walked first, and it joined,
                # closing j, since a refused arrow is in no matching found.
                # No rank floor is needed either: a refused arrow lies in no
                # perfect matching of the open part, which only shrinks, so
                # no path found holds one.
                target = matched[i]
                if not augment(ends[owner[j]][0], lambda c: c == target):
                    continue
                owner[j], matched[i] = a, j
            closed[j] = True
        return frozenset(owner)

    def certify(self, edges: frozenset, weight: dict, label) -> set | None:
        """The arrows tight under potentials that prove ``edges`` a perfect matching of greatest weight.

        None when ``edges`` is no perfect matching.  The row potentials u are
        longest-path lengths, from 0 at every row, in the matching's exchange
        graph (Bellman-Ford, at most n rounds): an arrow a off the matching,
        from row i to the column of row k's matched arrow m_k, is an arc
        k -> i of gain weight[a] - weight[m_k].  The column of m_k takes
        weight[m_k] - u[k], so every matched arrow is tight.  A heavier
        matching is a cycle of positive gain, which leaves some arrow violated
        however the rounds end.

        The proof is LP duality: u[i] + v[j] >= weight[a] on every arrow a
        from row i to column j, and the matching's weight equals
        sum(u) + sum(v); DimerError otherwise.  Every optimal matching then
        uses only the tight arrows, u[i] + v[j] == weight[a].
        """
        col = {}  # column -> (its matched row, the matched arrow's weight)
        for a in edges:
            i, j = self.ends[a]
            col[j] = (i, weight[a])
        if len(col) != self.n or len({i for i, _ in col.values()}) != self.n or len(edges) != self.n:
            return None
        arcs = []
        for a in self.arrows:
            if a not in edges:
                i, j = self.ends[a]
                k, wk = col[j]
                arcs.append((k, i, weight[a] - wk))
        u = [0] * self.n
        for _ in range(self.n):
            changed = False
            for k, i, gain in arcs:
                if u[k] + gain > u[i]:
                    u[i] = u[k] + gain
                    changed = True
            if not changed:
                break
        v = [0] * self.n
        for j, (k, wk) in col.items():
            v[j] = wk - u[k]
        bound = {a: u[i] + v[j] for a, (i, j) in self.ends.items()}
        violated = sum(1 for a in self.arrows if bound[a] < weight[a])
        total = sum(weight[a] for a in edges)
        if violated or total != sum(u) + sum(v):
            raise DimerError(
                f"query {label}: matching of weight {total} is not certified optimal "
                f"(dual bound {sum(u) + sum(v)}, violated on {violated} arrows)"
            )
        return {a for a, b in bound.items() if b == weight[a]}

    def is_unique(self, edges: frozenset, tight: set) -> bool:
        """True when no other matching is optimal: the tight arrows admit no alternating cycle.

        On rows, i -> k for each tight arrow outside the matching that joins
        row k to the column matched to row i; a parallel tight arrow is a
        loop.  A cycle there swaps into a second optimal matching.
        """
        row_of_col = {self.ends[a][1]: self.ends[a][0] for a in edges}
        succ: dict = {i: [] for i in range(self.n)}
        indegree = [0] * self.n
        for a in tight:
            if a not in edges:
                k, j = self.ends[a]
                succ[row_of_col[j]].append(k)
                indegree[k] += 1
        # Kahn's algorithm removes every row exactly when there is no cycle
        ready = [i for i in range(self.n) if indegree[i] == 0]
        removed = 0
        while ready:
            i = ready.pop()
            removed += 1
            for k in succ[i]:
                indegree[k] -= 1
                if indegree[k] == 0:
                    ready.append(k)
        return removed == self.n


def _outward_normal(a: Vec, b: Vec) -> tuple[Vec, int]:
    """Primitive outward normal of the counterclockwise hull edge a -> b, and its lattice length."""
    delta = vec_sub(b, a)
    g = gcd(abs(delta[0]), abs(delta[1]))
    return (delta[1] // g, -delta[0] // g), g


def _zigzag_corners(d: Dimer, normals: list) -> list:
    """Corner k's arrows by the zigzag rule, for each k: the corner between normals k - 1 and k.

    Every arrow a is the zig of one zigzag orbit and the zag of another
    (``d.zigzag_of``), of homologies h_zig(a) and h_zag(a).  Corner k is
    every arrow a for which theta = nu_{k-1} + nu_k lies strictly inside the
    counterclockwise arc from h_zag(a) to h_zig(a), when the embedding's
    orientation (``_orientation``) is -1, and from h_zig(a) to h_zag(a) when
    it is +1 (Gulotta, arXiv:0807.3012; Broomhead, arXiv:0901.4662).
    Directions are compared by their rank under ``ccw_angle_key``, exactly.
    The sets are not checked here: ``matching_polytope`` certifies them.
    """
    orbits, orbit_of = _zigzag_orbits(d)
    thetas = [vec_add(normals[k - 1], normals[k]) for k in range(len(normals))]
    keyed = sorted((ccw_angle_key(h), h) for h in {*(z.homology for z in orbits), *thetas})
    rank = {h: r for r, (_, same) in enumerate(groupby(keyed, itemgetter(0))) for _, h in same}
    at = [rank[z.homology] for z in orbits]
    sigma = _orientation(d)
    arcs: dict = {}  # (rank where the arc starts, rank where it ends) -> its arrows
    for a, (zig, zag) in orbit_of.items():
        arcs.setdefault((at[zag], at[zig]) if sigma < 0 else (at[zig], at[zag]), []).append(a)
    corners = []
    for theta in thetas:
        t = rank[theta]
        inside = [arrows for (p, q), arrows in arcs.items() if p < t < q or t < q < p or q < p < t]
        corners.append(frozenset(a for arrows in inside for a in arrows))
    return corners


def matching_polytope(d: Dimer) -> MatchingPolytope:
    """Convex hull of matching heights with the class <-> edge correspondence.

    Built from P0, found once, and the corners of the zigzag rule, each
    certified by potentials (see the module docstring); no matching is
    enumerated.
    """
    d.require_valid()
    oracle = _oracle(d)
    p0 = PerfectMatching(_reference(d), (0, 0))
    arrow_class = arrow_classes(d)
    p0_class = _class_sum(p0.edges, arrow_class)

    classes = zigzag_classes(d)
    # edge k has outward normal -eta of class order[k]; counterclockwise
    order = sorted(range(len(classes)), key=lambda i: ccw_angle_key(vec_neg(classes[i][0])))
    normals = [vec_neg(classes[i][0]) for i in order]
    if len(normals) < 3 or any(cross(normals[k - 1], normals[k]) <= 0 for k in range(len(normals))):
        raise DimerError(f"zigzag normals {normals} do not turn once around a polygon")
    # corner k, between normals k - 1 and k, by the zigzag rule; normal k is
    # certified by corner k, and corner k must be tight for normal k - 1 too
    rule = _zigzag_corners(d, normals)
    tight = []
    for k, nu in enumerate(normals):
        weight = {a: dot(nu, c) for a, c in arrow_class.items()}
        found = oracle.certify(rule[k], weight, f"direction {nu}")
        if found is None:
            raise DimerError(
                f"normals {normals[k - 1]} and {nu} share no corner: "
                f"the zigzag rule's {len(rule[k])} arrows are not a perfect matching"
            )
        tight.append(found)
    corner_at = []
    for k, arrows in enumerate(rule):
        both = tight[k - 1] & tight[k]
        if not arrows <= both:
            raise DimerError(
                f"normals {normals[k - 1]} and {normals[k]} share no corner: "
                f"the zigzag rule's matching is not optimal for {normals[k - 1]}"
            )
        h = vec_sub(_class_sum(arrows, arrow_class), p0_class)
        if not oracle.is_unique(arrows, both):
            raise DimerError(f"corner {h} carries more than one matching, expected exactly 1")
        corner_at.append(PerfectMatching(arrows, h))

    edges = []
    for k, nu in enumerate(normals):
        a, b = corner_at[k].height, corner_at[(k + 1) % len(normals)].height
        ci = order[k] + 1
        if a == b:
            raise DimerError(f"the edge normal to -eta_{ci} collapses to the corner {a}")
        # the outward normal is nu: both corners are optimal for nu, a also for
        # the normal before, and nu is primitive, so only the length can differ
        length = _outward_normal(a, b)[1]
        members = classes[order[k]][1]
        if length != len(members):
            raise DimerError(
                f"edge normal to -eta_{ci} has lattice length {length} != m_i = {len(members)}"
            )
        edges.append(HullEdge(class_index=ci, normal=nu, start=a, end=b, lattice_length=length))
    # the hull starts at its least corner, as the monotone chain does
    s = min(range(len(edges)), key=lambda k: edges[k].start)
    edges = edges[s:] + edges[:s]
    hull = [e.start for e in edges]
    corners = {p.height: p for p in corner_at[s:] + corner_at[:s]}
    boundary = sum(e.lattice_length for e in edges)
    twice_area = sum(cross(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull)))
    interior = (twice_area - boundary + 2) // 2
    return MatchingPolytope(
        hull=hull,
        edges=edges,
        boundary_count=boundary,
        interior_count=interior,
        corners=corners,
        normalized_area=twice_area,
        dimer=d,
        arrow_class=arrow_class,
        reference=p0,
        reference_class=p0_class,
    )


def check_against_enumeration(mp: MatchingPolytope) -> None:
    """Cross-check the certified polygon against every perfect matching.

    The hull of all enumerated heights must be ``mp.hull``, and each corner
    must carry exactly one matching, ``mp.corners[h]``; otherwise
    ``DimerError``.  Exponential in the size of the dimer, like every read of
    ``mp.points``.
    """
    hull = _convex_hull(list(mp.points))
    if hull != mp.hull:
        raise DimerError(f"certified hull {mp.hull} is not the hull {hull} of every matching")
    for h, corner in mp.corners.items():
        if [p.edges for p in mp.points[h]] != [corner.edges]:
            raise DimerError(
                f"corner {h} carries {len(mp.points[h])} enumerated matchings, "
                "not the certified one alone"
            )


# -- a basis of the matching span ----------------------------------------------


class _Span:
    """The span of integer vectors, kept row-reduced over the rationals with exact integers.

    Each row has a pivot column where every other row is zero, so a vector
    lies in the span exactly when reducing it by the rows leaves zero.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: dict = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        """Adds vec and returns True, unless it already lies in the span."""
        v = list(vec)
        for c, row in self.rows.items():
            if v[c]:
                k, p = v[c], row[c]
                v = [p * x - k * y for x, y in zip(v, row)]
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            return False
        g = gcd(*v)
        v = [x // g for x in v]
        for pc, row in self.rows.items():
            if row[c]:
                k, p = row[c], v[c]
                row = [p * x - k * y for x, y in zip(row, v)]
                g = gcd(*row)
                self.rows[pc] = [x // g for x in row]
        self.rows[c] = v
        return True


def _free_arrows(d: Dimer) -> list:
    """The arrows outside a spanning tree of the face graph, in id order.

    Faces are joined by the arrows between them, and the tree grows from face
    0, each tree arrow reaching a new face.  A vector with every face sum
    equal to t is fixed by t and its values on the other arrows (solve the
    tree from its leaves), so these are coordinates on W and dim W is their
    number plus one.
    """
    arrows = d.arrow_ids
    pos_face, neg_face = _face_structure(d)[:2]
    ends = {a: (pos_face[a], neg_face[a]) for a in arrows}
    at_face: dict = {}
    for a in arrows:
        for f in ends[a]:
            at_face.setdefault(f, []).append(a)
    tree, reached, frontier = set(), {0}, [0]
    while frontier:
        for a in at_face.get(frontier.pop(), []):
            for f in ends[a]:
                if f not in reached:
                    reached.add(f)
                    tree.add(a)
                    frontier.append(f)
    if len(reached) != len(d.faces):
        raise DimerError(f"arrows join only {len(reached)} of {len(d.faces)} faces")
    return [a for a in arrows if a not in tree]


def _coordinates(edges: frozenset, free: list) -> list:
    """A matching's point of W: its face sum 1, then its indicator on the free arrows."""
    return [1] + [1 if a in edges else 0 for a in free]


class MatchingBasis(_Record):
    """P0 and its ear-cycle flips P0 Δ C (``matching_basis``), with independent indicators.

    The rank is their number, which equals ``dim_W`` exactly when they span
    every perfect matching's indicator; ``free`` gives the coordinates on W
    that ``indicator_rank`` reads.
    """

    _fields = ("matchings", "dim_W")
    _key = attrgetter(*_fields, "free")

    def __init__(self, matchings: list, dim_W: int, free: list):
        self.matchings = matchings  # PerfectMatching, with independent indicator vectors
        self.dim_W = dim_W  # dimension of W = {x : every face sum equal}
        self.free = free  # coordinates on W besides the face sum

    @property
    def rank(self) -> int:
        return len(self.matchings)


def _alternating_arcs(d: Dimer, p0: frozenset) -> list:
    """P0's alternating digraph on the face indices: (arrow, tail face, head face), in id order.

    P0's arrows run from their positive to their negative face, every other
    arrow back.  A directed cycle C alternates between P0 and the rest, so
    P0 minus C plus the rest of C is again a perfect matching, P0 Δ C.
    """
    pos_face, neg_face = _face_structure(d)[:2]
    ends = ((a, pos_face[a], neg_face[a]) for a in d.arrow_ids)
    return [(a, pos, neg) if a in p0 else (a, neg, pos) for a, pos, neg in ends]


def _strong_components(out: list, arcs: list) -> list:
    """node -> a label shared exactly by the nodes of its strongly connected component.

    Kosaraju: nodes by finishing time of a depth-first search along the arcs
    (``out[v]`` lists the indices of the arcs out of v), then one flood per
    label against the arcs, latest finish first.
    """
    n = len(out)
    into: list = [[] for _ in range(n)]
    for _, t, h in arcs:
        into[h].append(t)
    order, seen = [], [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(out[s]))]
        while stack:
            v, later = stack[-1]
            for k in later:
                w = arcs[k][2]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    label = [-1] * n
    for s in reversed(order):
        if label[s] < 0:
            label[s], flood = s, [s]
            for v in flood:  # grows while it is read
                for t in into[v]:
                    if label[t] < 0:
                        label[t] = s
                        flood.append(t)
    return label


def _bfs_path(arcs: list, out: list, source: int, reached) -> list:
    """The arc indices of a shortest path along ``out`` from source to the first node where reached(node) holds.

    Only nodes where it fails are left, so the path's inner nodes all fail it;
    [] when it holds at source.  The target must be reachable.
    """
    via, queue = {source: None}, [source]
    for x in queue:  # grows while it is read
        if reached(x):
            break
        for k in out[x]:
            w = arcs[k][2]
            if w not in via:
                via[w] = k
                queue.append(w)
    path = []
    while via[x] is not None:
        path.append(via[x])
        x = arcs[via[x]][1]
    return path[::-1]


def _ear_cycles(n: int, arcs: list) -> list:
    """One simple directed cycle, as a list of arrows, per ear of each strongly connected component.

    ``arcs`` lists (arrow, tail, head) on the nodes 0..n-1.  Each component
    is grown from the tail of its first arc: the first unused arc leaving the
    grown part, in list order, starts an ear, which a breadth-first path
    through new nodes returns to the grown part; a breadth-first path along
    the grown arcs closes it into a cycle, and the ear's arcs and nodes join
    the grown part.  A component ends when every arc out of it is used, after
    (arcs - nodes + 1) ears: its cyclomatic number.  Cycle k holds the first
    arc of ear k, which no earlier cycle holds, so the cycles are
    independent, and together they span the cycle space of the components.
    """
    from heapq import heappop, heappush  # imported here: a cold start builds no basis

    out: list = [[] for _ in range(n)]
    for k, (_, t, _) in enumerate(arcs):
        out[t].append(k)
    label = _strong_components(out, arcs)
    inner = [label[t] == label[h] for _, t, h in arcs]
    out = [[k for k in ks if inner[k]] for ks in out]
    grown = [False] * n
    used = [False] * len(arcs)
    grown_out: list = [[] for _ in range(n)]  # the used arcs out of each node
    cycles = []
    for first, (_, start, _) in enumerate(arcs):
        if grown[start] or not inner[first]:
            continue
        grown[start] = True
        heap = list(out[start])  # in list order, so already a heap
        while heap:
            k = heappop(heap)
            if used[k]:
                continue
            _, u, v = arcs[k]
            ear = [k, *_bfs_path(arcs, out, v, grown.__getitem__)]
            closing = _bfs_path(arcs, grown_out, arcs[ear[-1]][2], lambda x: x == u)
            for j in ear:
                used[j] = True
                grown_out[arcs[j][1]].append(j)
                w = arcs[j][2]
                if not grown[w]:
                    grown[w] = True
                    for i in out[w]:
                        heappush(heap, i)
            cycles.append([arcs[j][0] for j in ear + closing])
    return cycles


@per_dimer
def matching_basis(d: Dimer) -> MatchingBasis:
    """Perfect matchings whose indicators span those of every perfect matching: P0, and P0 Δ C per ear cycle C.

    P Δ P0 is a union of directed cycles of P0's alternating digraph
    (``_alternating_arcs``) for every matching P, and P0 Δ C is a matching
    for every such cycle C, so the indicators of P0 and of the P0 Δ C span
    those of every matching (Lovász and Plummer, *Matching Theory*).  The
    cycles of ``_ear_cycles`` span the cycle space and are independent, and
    so are P0 (face sum 1) and the differences P0 Δ C - P0 (face sum 0), so
    the rank is exact with no search beyond P0's: it falls below dim W exactly
    when some arrow lies on no alternating cycle.  Points of W are read in
    the coordinates of ``_free_arrows``.
    """
    free = _free_arrows(d)
    p0 = _reference(d)
    arcs = _alternating_arcs(d, p0)
    found = [PerfectMatching(p0)]
    found += (PerfectMatching(p0.symmetric_difference(c)) for c in _ear_cycles(len(d.faces), arcs))
    return MatchingBasis(found, len(free) + 1, free)


def indicator_rank(basis: MatchingBasis, matchings) -> int:
    """Rank of the indicator vectors of perfect matchings, in the coordinates of ``basis``."""
    span = _Span(basis.dim_W)
    for p in matchings:
        if span.rank == span.width:
            break
        span.add(_coordinates(p.edges, basis.free))
    return span.rank


# -- the Kasteleyn count -----------------------------------------------------------


def det_int(matrix: list) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def kasteleyn_signs(d: Dimer) -> dict:
    """arrow -> +1 or -1, a Kasteleyn sign for each arrow, solved over GF(2).

    The faces of the bipartite graph are the quiver vertices.  At each vertex
    v the arrows at v, a loop counted twice, must have sign product
    (-1)^(deg/2 + 1).  A loop enters that product squared, so only the other
    arrows are unknowns; free unknowns take the sign +1.
    """
    rank, leaving, entering = d.arrow_rank, d.leaving, d.entering
    pivots = []  # (pivot bit, equation, right-hand side), each free of earlier pivots
    for v in d.vertices:
        at_v = leaving[v] + entering[v]
        eq = 0
        for a in at_v:
            eq ^= 1 << rank[a]  # a loop enters twice and cancels
        rhs = (len(at_v) // 2 + 1) & 1
        for p, e, r in pivots:
            if eq & p:
                eq, rhs = eq ^ e, rhs ^ r
        if eq:
            pivots.append((eq & -eq, eq, rhs))
        elif rhs:
            raise DimerError(f"no Kasteleyn signs: the condition at vertex {v!r} contradicts the others")
    odd = 0  # arrows of sign -1
    for p, e, r in reversed(pivots):
        if r ^ (bin(e & odd).count("1") & 1):
            odd |= p
    return {a: -1 if odd >> r & 1 else 1 for a, r in rank.items()}


def kasteleyn_count(d: Dimer) -> int:
    """The number of perfect matchings, from four Kasteleyn determinants.

    Each arrow enters K(t) with its Kasteleyn sign times t = (t1, t2) in
    {+1, -1}^2 raised to the parities of its ``arrow_classes`` entry.  A
    matching M then carries t^c(M), c(M) being the parity of its entries'
    sum: its height parity plus that of P0's sum, one constant for every
    matching, which only permutes the four parity classes.  So det K(t) is
    the sum over matchings of s(M) t^c(M), where the sign s(M) depends only
    on c(M) (Kenyon, Okounkov and Sheffield, math-ph/0311005), and for each
    parity class rho, sum_t t^rho det K(t) is 4 times plus or minus the number
    of matchings in rho; no choice among the four sign patterns is needed.  A
    sum that is not a multiple of 4 raises ``DimerError``.
    """
    d.require_valid()
    oracle = _oracle(d)
    if oracle.n is None:
        return 0
    signs = kasteleyn_signs(d)
    parity = {a: (cx & 1, cy & 1) for a, (cx, cy) in arrow_classes(d).items()}
    thetas = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    dets = []
    for t in thetas:
        k = [[0] * oracle.n for _ in range(oracle.n)]
        for a in oracle.arrows:
            i, j = oracle.ends[a]
            k[i][j] += signs[a] * t[0] ** parity[a][0] * t[1] ** parity[a][1]
        dets.append(det_int(k))
    total = 0
    for rho in ((0, 0), (0, 1), (1, 0), (1, 1)):
        s = sum(t[0] ** rho[0] * t[1] ** rho[1] * det for t, det in zip(thetas, dets))
        if s % 4:
            raise DimerError(f"Kasteleyn sum {s} of parity class {rho} is not a multiple of 4")
        total += abs(s) // 4
    return total


def corner_matchings_in_order(mp: MatchingPolytope) -> list[PerfectMatching]:
    """P_1, ..., P_N: the zig corner of class i sits at the ccw start of edge i."""
    by_class = {e.class_index: e for e in mp.edges}
    return [mp.corners[by_class[i].start] for i in range(1, len(mp.edges) + 1)]
