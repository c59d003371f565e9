"""Jacobi-algebra calculus: canonical path classes and central elements.

Paths are traversal tuples of arrow ids (first arrow first).  The
superpotential W is the signed sum of the dimer's face boundaries, read
straight from ``Dimer.faces``; each arrow's relation equates its complements
on its two faces.  In the Jacobi algebra of a consistent dimer a path's class
is its four invariants (endpoints, homology class, degree under a fixed
reference corner matching), and a ``PathClass`` is exactly that 4-tuple, a
``tuple`` subclass with named fields, so the Koszul kernels hash and compare
classes in C.  The tests guard this decision procedure with a brute-force
rewrite oracle at small scale.  Words are searched for only on request, by
``realize_path``.
"""

from __future__ import annotations

from collections import _tuplegetter, deque
from collections.abc import Iterable

from .dimer import (
    Dimer,
    JacobiError,
    Vec,
    _Combination,
    dot,
    face_word_at,
    idkey,
    tree_paths,
    vec_add,
    vec_sub,
)
from .matchings import (
    MatchingPolytope,
    PerfectMatching,
    corner_matchings_in_order,
    matching_polytope,
)

_tuple_new = tuple.__new__


# -- path classes ------------------------------------------------------------


class PathClass(tuple):
    """A class of paths: endpoints, homology class and reference degree.

    The tuple ``(tail, head, h1, w0)`` with its fields named: hashing,
    equality and field reads run in C, and ``tuple.__new__(PathClass, fields)``
    builds one with no Python call.  A class equals the plain 4-tuple of its
    fields and ``isinstance(cls, tuple)`` holds, so ``cli._write`` would print
    one as a JSON list.
    """

    __slots__ = ()

    def __new__(cls, tail: object, head: object, h1: Vec, w0: int):
        return _tuple_new(cls, (tail, head, h1, w0))

    tail = _tuplegetter(0, "the vertex the paths start at")
    head = _tuplegetter(1, "the vertex the paths end at")
    h1 = _tuplegetter(2, "the homology class of the paths")
    w0 = _tuplegetter(3, "the degree under the reference corner matching")

    def __repr__(self):
        tail, head, h1, w0 = self
        return f"PathClass(tail={tail!r}, head={head!r}, h1={h1!r}, w0={w0!r})"

    def __getnewargs__(self):
        return tuple(self)  # copy and pickle call __new__ with the four fields


class JElement(_Combination):
    """Finite integer combination of path classes (no zero coefficients stored)."""

    __slots__ = ()

    def __repr__(self):
        if not self.terms:
            return "JElement(0)"
        bits = [
            f"{k}*({c.tail}->{c.head}, h1={c.h1}, w0={c.w0})"
            for c, k in sorted(self.terms.items(), key=lambda t: (idkey(t[0].tail), t[0].h1, t[0].w0))
        ]
        return "JElement(" + " + ".join(bits) + ")"


class Jacobi:
    """Canonical forms and central elements for one consistent dimer."""

    def __init__(self, d: Dimer, realize_cap: int | None = None):
        d.require_valid()
        self.dimer = d
        self.poly: MatchingPolytope = matching_polytope(d)
        self.corners = corner_matchings_in_order(self.poly)  # P_1 ... P_N
        self.ref = self.corners[0]  # reference corner P*
        # height of P_i minus height of P*, used in the degree formula
        self.corner_offsets = [
            vec_sub(p.height, self.ref.height) for p in self.corners
        ]
        self.realize_cap = realize_cap if realize_cap is not None else 4 * len(d.arrows)
        # tree paths from the base vertex, for the open-path degree correction
        self._tree_paths = tree_paths(d)
        self._central_W: dict | None = None
        self.corner_phis = [self._phi(p) for p in self.corners]

    # -- degrees ---------------------------------------------------------

    def _phi(self, matching: PerfectMatching) -> dict:
        """Vertex potential of the cochain (P - P*) minus its harmonic part, for P with its height.

        On an open path p the cochain evaluates to <height(P) - height(P*),
        h1(p)> + phi(head) - phi(tail); on loops the correction cancels.
        """
        off = vec_sub(matching.height, self.ref.height)
        phi = {}
        for v, path in self._tree_paths.items():
            val = 0
            for aid, sgn in path:
                val += sgn * (
                    (1 if aid in matching.edges else 0) - (1 if aid in self.ref.edges else 0)
                )
            phi[v] = val - dot(off, self.dimer.path_shift(path))
        return phi

    def class_degree(self, cls: PathClass, corner_index: int) -> int:
        phi = self.corner_phis[corner_index - 1]
        return (
            cls.w0
            + dot(self.corner_offsets[corner_index - 1], cls.h1)
            + phi[cls.head]
            - phi[cls.tail]
        )

    def corner_degrees(self, cls: PathClass) -> tuple:
        return tuple(self.class_degree(cls, i) for i in range(1, len(self.corners) + 1))

    # -- canonical forms ---------------------------------------------------

    def canonical_form(self, word: Iterable) -> PathClass:
        """The class of a composable word: endpoints, total shift and P* degree.

        One pass over the word reads each arrow once.  Composability is
        decided for the whole word before a missing shift raises
        ``DimerError``, as ``is_composable`` and then ``word_shift`` would.
        """
        word = tuple(word)
        d = self.dimer
        arrow_by_id, ref = d.arrow_by_id, self.ref.edges
        x = y = w0 = 0
        unshifted = None  # the first arrow without shift data
        prev = None
        for aid in word:
            a = arrow_by_id.get(aid)
            if a is None or (prev is not None and prev.head != a.tail):
                # is_composable raises the same TypeError on an unhashable id further on
                d.is_composable(word)
                raise JacobiError(f"word {word!r} is not a composable path")
            if a.shift is None:
                if unshifted is None:
                    unshifted = aid
            else:
                x += a.shift[0]
                y += a.shift[1]
            if aid in ref:
                w0 += 1
            prev = a
        if prev is None:
            raise JacobiError(f"word {word!r} is not a composable path")
        if unshifted is not None:
            d.shift(unshifted)  # raises DimerError naming the arrow
        return PathClass(arrow_by_id[word[0]].tail, prev.head, (x, y), w0)

    def idempotent(self, v) -> PathClass:
        if v not in self.dimer.vertices:
            raise JacobiError(f"unknown vertex {v!r}")
        return PathClass(v, v, (0, 0), 0)

    def compose(self, first: PathClass, second: PathClass) -> PathClass:
        """Class of (first path, then second path)."""
        if first.head != second.tail:
            raise JacobiError("paths do not compose")
        return PathClass(
            first.tail,
            second.head,
            vec_add(first.h1, second.h1),
            first.w0 + second.w0,
        )

    def path_equal(self, p: Iterable, q: Iterable) -> bool:
        return self.canonical_form(p) == self.canonical_form(q)

    # -- relations ---------------------------------------------------------

    def jacobi_relations(self) -> list:
        """(arrow, positive arc, negative arc) for every arrow.

        The two arcs are the complements of the arrow on its positive and
        negative faces; equating them is the relation from the cyclic
        derivative of W at the arrow.
        """
        d = self.dimer
        out = []
        for aid in d.arrow_ids:
            arcs = []
            for fi in (d.pos_face_of(aid), d.neg_face_of(aid)):
                b = d.faces[fi].boundary
                i = b.index(aid)
                arcs.append(b[i + 1 :] + b[:i])
            out.append((aid, arcs[0], arcs[1]))
        return out

    # -- central elements ---------------------------------------------------

    def central_W(self) -> dict:
        """The potential: at each vertex v, the class of the face boundary
        ``face_word_at(d, v)``, which is every adjacent face's class.

        Computed on first use and shared by every later call.  A class holds
        no word; ``face_word_at`` reads one from the dimer's face table.
        """
        if self._central_W is None:
            d = self.dimer
            self._central_W = {v: self.canonical_form(face_word_at(d, v)) for v in d.vertices}
        return self._central_W

    def x_alpha_w0(self, alpha: Vec) -> int:
        return max(-dot(off, alpha) for off in self.corner_offsets)

    def central_x_alpha(self, alpha: Vec) -> dict:
        """The central element of homology class alpha that is not a multiple of W.

        Its degree under some corner matching is exactly zero, which pins the
        reference degree to max_i(-<h_i, alpha>).
        """
        alpha = tuple(alpha)
        if alpha == (0, 0):
            raise JacobiError("alpha must be nonzero")
        w0 = self.x_alpha_w0(alpha)
        return {v: PathClass(v, v, alpha, w0) for v in self.dimer.vertices}

    def x_alpha_witnesses(self, alpha: Vec) -> dict:
        """A shortest word in each class of ``central_x_alpha``: {v: word}."""
        out = {}
        for v, cls in self.central_x_alpha(alpha).items():
            word = self.realize_path(v, v, cls.h1, cls.w0)
            if word is None:
                raise JacobiError(
                    f"no witness found for x_alpha at {v!r} within cap {self.realize_cap}"
                )
            out[v] = word
        return out

    # -- witness search ------------------------------------------------------

    def realize_path(self, tail, head, h1: Vec, w0: int):
        """Shortest composable word with the given class data, or None within ``realize_cap``.

        Search states are (vertex, shift, reference degree); a partial path is
        pruned when its degree under any corner matching exceeds the target.
        """
        h1 = tuple(h1)
        target = PathClass(tail, head, h1, w0)
        targets = self.corner_degrees(target)
        if w0 < 0 or min(targets) < 0:
            raise JacobiError("target degrees must be nonnegative")
        d, leaving = self.dimer, self.dimer.leaving
        start = (tail, (0, 0), 0)
        if tail == head and h1 == (0, 0) and w0 == 0:
            return ()
        prev: dict = {start: None}
        frontier = deque([(start, 0)])
        while frontier:
            (v, sh, deg), length = frontier.popleft()
            if length >= self.realize_cap:
                continue
            for aid in leaving[v]:
                a = d.arrow_by_id[aid]
                sh2 = vec_add(sh, a.shift)
                deg2 = deg + (1 if a.id in self.ref.edges else 0)
                state = (a.head, sh2, deg2)
                cur = PathClass(tail, a.head, sh2, deg2)
                if any(
                    self.class_degree(cur, i + 1) > t for i, t in enumerate(targets)
                ):
                    continue
                if state in prev:
                    continue
                prev[state] = ((v, sh, deg), a.id)
                if state == (head, h1, w0):
                    word = []
                    s = state
                    while prev[s] is not None:
                        s, aid = prev[s]
                        word.append(aid)
                    return tuple(reversed(word))
                frontier.append((state, length + 1))
        return None
