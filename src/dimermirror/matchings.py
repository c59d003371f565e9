"""Perfect matchings, height classes, and the matching polytope.

A perfect matching picks one arrow on every face: it is a perfect matching
of the bipartite graph whose two sides are the positive and the negative
faces and whose edges are the arrows.  Its height is its class in H^1
relative to the reference matching P0: the dual of the homology class of
the bipartite cycle P - P0.

``matching_polytope`` never lists the matchings.  It asks one exact-integer
oracle, ``_MatchingOracle.best`` (the Hungarian method with integer
potentials, ``_hungarian``: one heap-based Dijkstra per row over the face
pairs an arrow joins, O(n (n + E log E)) for n rows and E such pairs), for a
matching of greatest weight <nu, height>:

* P0 is the least matching in sorted-id order, the maximiser of
  sum 2^(|Q1| - 1 - rank(a)).
* The polygon's edges are the zigzag classes (``zigzag_classes``, which
  leaves each class's cycles unordered): edge i has outward normal -eta_i
  and lattice length m_i (Gulotta, arXiv:0807.3012).  The normals are
  sorted counterclockwise and each is queried once; its potentials bound
  every height by b_i = max <-eta_i, h>.
* A corner is a matching optimal for two consecutive normals.  Such a
  matching uses only arrows tight under both sets of potentials, and every
  perfect matching on those arrows is optimal for both, so augmenting paths
  on that sparse set find it without another solve.  The summed potentials
  certify it for the sum of the two normals, and the absence of an
  alternating cycle among the doubly tight arrows proves it the only
  matching at its height.
* Each pair of consecutive corners spans an edge of the queried normal (both
  are optimal for it), which must have lattice length m_i.  The corners are
  then realized heights at every vertex of the intersection of
  {<-eta_i, h> <= b_i}, so that polygon is the hull.

Every answer is checked against its potentials (LP duality), so a wrong
answer raises ``DimerError`` instead of shrinking the hull; so does a wrong
normal, which leaves two consecutive normals with no common optimum or a
corner where an edge should be.

Heights come from one table per dimer, ``arrow_classes``, whose entries
are also the weights of the queries.  Each arrow's entry is read off the
shift prefixes of the arrow in the stored boundaries of its two faces, one
pass over the faces (Kenyon, Okounkov and Sheffield, math-ph/0311005).  A
matching's height is the sum of its arrows' entries minus that of P0, which
is summed once; ``MatchingPolytope.height`` reads the same table.  Before
the table is built, ``_check_marking`` refuses shifts whose cycles miss the
class (1, 0) or (0, 1) of the torus.

Two more polynomial computations stand in for the list of all matchings:

* ``matching_basis`` asks the same oracle for matchings whose indicator
  vectors span those of every matching.  They all lie in
  W = {x in Z^Q1 : every face sum equal}, of dimension |Q0| + 2; each query
  maximises a direction orthogonal to the span so far, and exact integer
  elimination certifies the rank.  A linear identity that holds on the basis
  holds on every matching.
* ``kasteleyn_count`` counts the matchings from four determinants of a
  Kasteleyn-signed matrix (Kenyon, Okounkov and Sheffield).

The oracle is built once per dimer and shared by all three, and the table by
the polygon and the count.
Enumeration (``enumerate_perfect_matchings``, once per dimer) still runs for
``MatchingPolytope.points``, read on first use by the ``matchings`` listing
(which refuses dimers above ``ENUMERATION_GATE``) and by
``check_against_enumeration``.  ``ks.KSVerifier`` runs it only as an oracle,
on dimers whose Kasteleyn count is at most ``ENUMERATION_GATE``.  It reads
only the face tables, none of the structures above.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import attrgetter

from .dimer import (
    Dimer,
    DimerError,
    Vec,
    _ext_gcd,
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


def _hungarian(pairs: list) -> tuple | None:
    """Hungarian method on the present pairs alone: pairs[i] lists row i's (column, -weight).

    Returns ``(match, u, v)``: row i is matched to column ``match[i]`` in a
    perfect matching of greatest total weight, and the integer potentials
    satisfy u[i] + v[j] >= weight on every present pair (i, j), with
    equality on the matching.  Returns None when no perfect matching exists.

    Works in the cost form (cost = -weight) of the shortest-augmenting-path
    algorithm, with exact integers throughout: each row is added by Dijkstra
    on the reduced costs of the present pairs, with a heap, and the columns
    it settled have their potentials moved once, when it ends.  With E
    present pairs that is O(n (n + E log E)) in all, against O(n^3) for the
    textbook loop that scans every column at each step.

    Ties are broken as that loop breaks them, so the answer is the same
    (match, u, v): among the columns of least tentative distance the least
    column is settled first, and a column keeps the first settled row that
    reached it at its least distance.
    """
    from heapq import heappop, heappush  # imported here: a cold start never solves

    n = len(pairs)
    u = [0] * n  # cost-form row potentials
    v = [0] * n  # cost-form column potentials
    owner = [-1] * n  # row matched to each column, -1 if free
    for r in range(n):
        dist: list = [None] * n  # column -> least distance found so far from row r
        way = [-1] * n  # column -> the settled column whose row reached it; -1 for row r
        done = [False] * n  # settled for good, as the textbook loop's used columns
        settled = []  # the owned columns settled, in order
        heap: list = []
        i, di, j0 = r, 0, -1
        while True:
            base = di - u[i]
            for j, c in pairs[i]:
                if done[j]:
                    continue
                t = base + c - v[j]
                dj = dist[j]
                if dj is None or t < dj:
                    dist[j], way[j] = t, j0
                    heappush(heap, (t, j))
            while heap:
                dj, j = heappop(heap)
                if dist[j] == dj:  # a stale entry has a distance since lowered
                    break
            else:
                return None
            if owner[j] < 0:
                break
            done[j] = True
            settled.append(j)
            i, di, j0 = owner[j], dj, j
        # potentials: each settled column moves by how much sooner it was reached
        u[r] += dj
        for k in settled:
            s = dj - dist[k]
            u[owner[k]] += s
            v[k] -= s
        while j >= 0:
            j1 = way[j]
            owner[j] = owner[j1] if j1 >= 0 else r
            j = j1
    match = [0] * n
    for j, i in enumerate(owner):
        match[i] = j
    return match, [-x for x in u], [-x for x in v]


@per_dimer
def _oracle(d: Dimer) -> "_MatchingOracle":
    """The dimer's matching oracle, built once per dimer and shared."""
    return _MatchingOracle(d)


class _MatchingOracle:
    """Certified max-weight perfect matchings of one dimer.

    Rows are the positive faces and columns the negative faces; arrow a joins
    the row of its positive face to the column of its negative face.  Among
    parallel arrows of a face pair the heaviest, then the least id, is used.
    """

    def __init__(self, d: Dimer):
        self.arrows = d.arrow_ids
        pos = [fi for fi, f in enumerate(d.faces) if f.sign > 0]
        neg = [fi for fi, f in enumerate(d.faces) if f.sign < 0]
        row = {fi: i for i, fi in enumerate(pos)}
        col = {fi: j for j, fi in enumerate(neg)}
        self.n = len(pos) if len(pos) == len(neg) else None
        self.ends = {a: (row[d.pos_face_of(a)], col[d.neg_face_of(a)]) for a in self.arrows}
        # by (row, column), and in id order among parallel arrows
        self.by_pair = sorted(self.arrows, key=self.ends.__getitem__)

    def best(self, weight: dict, label) -> tuple | None:
        """(matched arrows, tight arrows) of greatest total weight, or None if there is no matching.

        Each row's (column, -weight) pairs come straight from its arrows, in
        column order, so the solver (``_hungarian``) reads about four pairs a
        row rather than a dense n x n matrix.  Raises DimerError unless the
        solver's potentials prove the answer optimal: u[i] + v[j] >= weight[a]
        on every arrow a from row i to column j, and the matching's weight
        equals sum(u) + sum(v).  The tight arrows are those with
        u[i] + v[j] == weight[a]; every optimal matching uses only them.
        """
        if self.n is None:
            return None
        pairs: list = [[] for _ in range(self.n)]
        pick: dict = {}
        for a in self.by_pair:
            i, j = self.ends[a]
            row = pairs[i]
            if row and row[-1][0] == j:  # a parallel arrow: the heaviest, then the least id
                if weight[a] <= -row[-1][1]:
                    continue
                row.pop()
            row.append((j, -weight[a]))
            pick[i, j] = a
        found = _hungarian(pairs)
        if found is None:
            return None
        match, u, v = found
        if sorted(match) != list(range(self.n)) or any((i, j) not in pick for i, j in enumerate(match)):
            raise DimerError(f"query {label}: the solver returned no perfect matching")
        edges = frozenset(pick[i, j] for i, j in enumerate(match))
        bound = {a: u[self.ends[a][0]] + v[self.ends[a][1]] for a in self.arrows}
        violated = sum(1 for a in self.arrows if bound[a] < weight[a])
        total = sum(weight[a] for a in edges)
        if violated or total != sum(u) + sum(v):
            raise DimerError(
                f"query {label}: matching of weight {total} is not certified optimal "
                f"(dual bound {sum(u) + sum(v)}, violated on {violated} arrows)"
            )
        return edges, [a for a in self.arrows if bound[a] == weight[a]]

    def perfect_on(self, arrows: list) -> frozenset | None:
        """A perfect matching that uses only the given arrows, or None if there is none.

        Augmenting paths, one breadth-first search per row: O(n |arrows|)
        with no weights, for the sparse sets of tight arrows.
        """
        out: dict = {i: [] for i in range(self.n)}
        for a in arrows:
            out[self.ends[a][0]].append(a)
        owner: dict = {}  # column -> the matched arrow into it
        matched: dict = {}  # row -> its matched column
        for r in range(self.n):
            via: dict = {}  # column -> the arrow the search reached it by
            rows, free = [r], None
            for i in rows:  # grows while it is read
                for a in out[i]:
                    j = self.ends[a][1]
                    if j in via:
                        continue
                    via[j] = a
                    if j not in owner:
                        free = j
                        break
                    rows.append(self.ends[owner[j]][0])
                if free is not None:
                    break
            if free is None:
                return None
            # flip the path: each column on it takes the arrow that reached it
            j = free
            while j is not None:
                a = via[j]
                i = self.ends[a][0]
                owner[j], j = a, matched.get(i)
                matched[i] = self.ends[a][1]
        return frozenset(owner.values())

    def is_unique(self, edges: frozenset, tight: list) -> bool:
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


def matching_polytope(d: Dimer) -> MatchingPolytope:
    """Convex hull of matching heights with the class <-> edge correspondence.

    Built from P0 and one certified max-weight matching query per zigzag
    class (see the module docstring); no matching is enumerated.
    """
    d.require_valid()
    oracle = _oracle(d)
    # P0, the least matching in sorted-id order, outweighs every other one
    top = len(oracle.arrows) - 1
    found = oracle.best({a: 1 << (top - r) for r, a in enumerate(oracle.arrows)}, "P0")
    if found is None:
        raise DimerError("dimer has no perfect matching")
    arrow_class = arrow_classes(d)
    p0 = PerfectMatching(found[0], (0, 0))
    p0_class = _class_sum(p0.edges, arrow_class)

    classes = zigzag_classes(d)
    # edge k has outward normal -eta of class order[k]; counterclockwise
    order = sorted(range(len(classes)), key=lambda i: ccw_angle_key(vec_neg(classes[i][0])))
    normals = [vec_neg(classes[i][0]) for i in order]
    if len(normals) < 3 or any(cross(normals[k - 1], normals[k]) <= 0 for k in range(len(normals))):
        raise DimerError(f"zigzag normals {normals} do not turn once around a polygon")
    tight = []  # per normal, the arrows tight under its certified potentials
    for nu in normals:
        weight = {a: dot(nu, c) for a, c in arrow_class.items()}
        tight.append(oracle.best(weight, f"direction {nu}")[1])

    # corner k: the one matching optimal for normals k - 1 and k
    corner_at = []
    for k in range(len(normals)):
        later = set(tight[k])
        both = [a for a in tight[k - 1] if a in later]
        arrows = oracle.perfect_on(both)
        if arrows is None:
            raise DimerError(
                f"normals {normals[k - 1]} and {normals[k]} share no corner: "
                "no matching is optimal for both"
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

    def normal(self) -> list | None:
        """A nonzero integer vector orthogonal to every row, or None if the rows span everything."""
        free = next((i for i in range(self.width) if i not in self.rows), None)
        if free is None:
            return None
        scale = lcm(*(row[c] for c, row in self.rows.items()))
        w = [0] * self.width
        w[free] = scale
        for c, row in self.rows.items():
            w[c] = -row[free] * scale // row[c]
        return w


def _free_arrows(d: Dimer) -> list:
    """The arrows outside a spanning tree of the face graph, in id order.

    Faces are joined by the arrows between them, and the tree grows from face
    0, each tree arrow reaching a new face.  A vector with every face sum
    equal to t is fixed by t and its values on the other arrows (solve the
    tree from its leaves), so these are coordinates on W and dim W is their
    number plus one.
    """
    arrows = d.arrow_ids
    ends = {a: (d.pos_face_of(a), d.neg_face_of(a)) for a in arrows}
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
    _fields = ("matchings", "dim_W")
    _key = attrgetter(*_fields, "free")

    def __init__(self, matchings: list, dim_W: int, free: list):
        self.matchings = matchings  # PerfectMatching, with independent indicator vectors
        self.dim_W = dim_W  # dimension of W = {x : every face sum equal}
        self.free = free  # coordinates on W besides the face sum

    @property
    def rank(self) -> int:
        return len(self.matchings)


@per_dimer
def matching_basis(d: Dimer) -> MatchingBasis:
    """Perfect matchings whose indicators span those of every perfect matching.

    Points of W are read in the coordinates of ``_free_arrows``.  Each step
    takes a direction w orthogonal to the span so far and asks the oracle for
    a matching of greatest, then of least, <w, x>.  If neither answer extends
    the span, both give <w, x> = 0, so every matching lies on that hyperplane:
    the matchings do not span W, and the rank stays below dim W.  The rank is
    exact, since ``_Span`` keeps only independent rows.
    """
    free = _free_arrows(d)
    oracle = _oracle(d)
    span = _Span(len(free) + 1)
    found: list = []
    while span.rank < span.width:
        direction = span.normal()[1:]  # the face sum is 1 on every matching
        for sign in (1, -1):
            weight = dict.fromkeys(oracle.arrows, 0)
            weight.update((a, sign * w) for a, w in zip(free, direction))
            answer = oracle.best(weight, f"basis step {len(found) + 1}")
            if answer is None:
                raise DimerError("dimer has no perfect matching")
            if span.add(_coordinates(answer[0], free)):
                found.append(PerfectMatching(answer[0]))
                break
        else:
            break
    return MatchingBasis(found, span.width, free)


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
