"""Jacobi-algebra calculus: superpotential, rewrites, canonical path classes.

Paths are traversal tuples of arrow ids (first arrow first).  Equality in the
Jacobi algebra of a consistent dimer is decided by the invariant data
(endpoints, homology class, degree under a fixed reference corner matching);
a brute-force rewrite oracle guards the decision procedure at small scale.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .dimer import (
    Dimer,
    Vec,
    _Frozen,
    _set,
    canonical_rotation,
    cyclic_arc,
    dot,
    face_word_at,
    idkey,
    tree_paths,
    vec_add,
    vec_sub,
    word_key,
)
from .matchings import (
    MatchingPolytope,
    PerfectMatching,
    corner_matchings_in_order,
    matching_polytope,
)

Word = tuple


class JacobiError(Exception):
    pass


# -- cyclic polynomials ------------------------------------------------------


class CyclicPoly(_Frozen):
    """Integer combination of cyclic words, each stored as a canonical traversal."""

    _fields = ("terms",)

    def __init__(self, terms: tuple):
        _set(self, "terms", terms)  # ((coeff, word), ...) sorted

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.terms,))

    @staticmethod
    def from_terms(terms: Iterable) -> "CyclicPoly":
        acc: dict = {}
        for coeff, word in terms:
            key = canonical_rotation(tuple(word))
            acc[key] = acc.get(key, 0) + coeff
        cleaned = tuple(
            sorted(((c, w) for w, c in acc.items() if c), key=lambda t: word_key(t[1]))
        )
        return CyclicPoly(cleaned)


def superpotential(d: Dimer) -> CyclicPoly:
    """One +1 term per positive face boundary, one -1 term per negative face."""
    d.require_valid()
    return CyclicPoly.from_terms(
        (f.sign, f.boundary) for f in d.faces
    )


def cyclic_derivative(poly: CyclicPoly, e) -> list:
    """All (coefficient, path) contributions of the cyclic derivative at arrow e.

    For each occurrence of e in a cyclic word, the emitted path continues
    around the cycle from just after e back to just before it.
    """
    out = []
    for coeff, word in poly.terms:
        for i, a in enumerate(word):
            if a == e:
                out.append((coeff, word[i + 1 :] + word[:i]))
    return out


def hessian_rows(poly: CyclicPoly, y) -> list:
    """Every split of a term at an occurrence of y: (coeff, x, left, right).

    Each other position of the term gives one row, with x the arrow there.
    ``left`` runs from the head of x to the tail of y and ``right`` from the
    head of y to the tail of x; the x and y occurrences themselves are
    discarded (distinct positions, even when x == y).
    """
    out = []
    for coeff, word in poly.terms:
        for j, a in enumerate(word):
            if a != y:
                continue
            for l, x in enumerate(word):
                if l != j:
                    out.append((coeff, x, cyclic_arc(word, l, j), cyclic_arc(word, j, l)))
    return out


# -- path classes ------------------------------------------------------------


class PathClass(_Frozen):
    """A class of paths: endpoints, homology class and reference degree.

    ``witness``, a word in the class, is carried along but is not part of
    the class: equality and hashing leave it out.
    """

    __slots__ = _fields = ("tail", "head", "h1", "w0", "witness")

    def __init__(self, tail: object, head: object, h1: Vec, w0: int, witness: Optional[Word] = None):
        _set(self, "tail", tail)
        _set(self, "head", head)
        _set(self, "h1", h1)
        _set(self, "w0", w0)
        _set(self, "witness", witness)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.tail, self.head, self.h1, self.w0) == (
                other.tail, other.head, other.h1, other.w0
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.tail, self.head, self.h1, self.w0))


class JElement:
    """Finite integer combination of path classes (no zero coefficients stored)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {c: k for c, k in (terms or {}).items() if k}

    @staticmethod
    def _nonzero(terms: dict) -> "JElement":
        """The element on ``terms``, whose coefficients are all nonzero already."""
        out = JElement.__new__(JElement)
        out.terms = terms
        return out

    @staticmethod
    def of(cls: PathClass, coeff: int = 1) -> "JElement":
        return JElement._nonzero({cls: coeff} if coeff else {})

    def __add__(self, other: "JElement") -> "JElement":
        out = dict(self.terms)
        for c, k in other.terms.items():
            total = out.get(c, 0) + k
            if total:
                out[c] = total
            else:
                del out[c]
        return JElement._nonzero(out)

    def __sub__(self, other: "JElement") -> "JElement":
        return self + other.scale(-1)

    def scale(self, k: int) -> "JElement":
        return JElement._nonzero({c: k * v for c, v in self.terms.items()} if k else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, JElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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

    def __init__(self, d: Dimer, realize_cap: Optional[int] = None):
        d.require_valid()
        self.dimer = d
        self.poly: MatchingPolytope = matching_polytope(d)
        self.corners = corner_matchings_in_order(self.poly)  # P_1 ... P_N
        self.ref = self.corners[0]  # reference corner P*
        # height of P_i minus height of P*, used in the degree formula
        self.corner_offsets = [
            vec_sub(p.height, self.ref.height) for p in self.corners
        ]
        self.superpotential = superpotential(d)
        self.realize_cap = realize_cap if realize_cap is not None else 4 * len(d.arrows)
        # tree paths from the base vertex, for the open-path degree correction
        self._tree_paths = tree_paths(d)
        self._central_W: Optional[dict] = None
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
        return PathClass(
            tail=arrow_by_id[word[0]].tail,
            head=prev.head,
            h1=(x, y),
            w0=w0,
            witness=word,
        )

    def idempotent(self, v) -> PathClass:
        if v not in self.dimer.vertices:
            raise JacobiError(f"unknown vertex {v!r}")
        return PathClass(v, v, (0, 0), 0, witness=())

    def compose(self, first: PathClass, second: PathClass) -> PathClass:
        """Class of (first path, then second path)."""
        if first.head != second.tail:
            raise JacobiError("paths do not compose")
        witness = None
        if first.witness is not None and second.witness is not None:
            witness = first.witness + second.witness
        return PathClass(
            first.tail,
            second.head,
            vec_add(first.h1, second.h1),
            first.w0 + second.w0,
            witness=witness,
        )

    def path_equal(self, p: Iterable, q: Iterable) -> bool:
        return self.canonical_form(p) == self.canonical_form(q)

    # -- rewrite oracle ----------------------------------------------------

    def jacobi_relations(self) -> list:
        """(arrow, positive arc, negative arc) for every arrow.

        The two arcs are the complements of the arrow on its positive and
        negative faces; equating them is the relation from the cyclic
        derivative of the superpotential at the arrow.
        """
        d = self.dimer
        out = []
        for aid in sorted(d.arrow_by_id, key=idkey):
            arcs = []
            for fi in (d.pos_face_of(aid), d.neg_face_of(aid)):
                b = d.faces[fi].boundary
                i = b.index(aid)
                arcs.append(b[i + 1 :] + b[:i])
            out.append((aid, arcs[0], arcs[1]))
        return out

    def rewrite_neighbors(self, word: Word, cap: int) -> list:
        """Words reachable by one relation rewrite, length-capped."""
        word = tuple(word)
        out = []
        for _, lhs, rhs in self.jacobi_relations():
            for src, dst in ((lhs, rhs), (rhs, lhs)):
                if len(word) - len(src) + len(dst) > cap:
                    continue
                n = len(src)
                for i in range(len(word) - n + 1):
                    if word[i : i + n] == src:
                        out.append(word[:i] + dst + word[i + n :])
        return out

    def reduce_oracle(self, word: Iterable, cap: int) -> set:
        """Breadth-first closure of a word under single rewrites (length <= cap)."""
        word = tuple(word)
        if not self.dimer.is_composable(word):
            raise JacobiError(f"word {word!r} is not a composable path")
        if cap < len(word):
            raise JacobiError("cap shorter than the starting word")
        seen = {word}
        frontier = deque([word])
        while frontier:
            w = frontier.popleft()
            for nb in self.rewrite_neighbors(w, cap):
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        return seen

    # -- central elements ---------------------------------------------------

    def central_W(self) -> dict:
        """The potential: at each vertex, the class of any adjacent face boundary.

        Computed on first use and shared by every later call.
        """
        if self._central_W is None:
            self._central_W = self._build_central_W()
        return self._central_W

    def _build_central_W(self) -> dict:
        return {v: self.canonical_form(face_word_at(self.dimer, v)) for v in self.dimer.vertices}

    def x_alpha_w0(self, alpha: Vec) -> int:
        return max(-dot(off, alpha) for off in self.corner_offsets)

    def central_x_alpha(self, alpha: Vec, want_witness: bool = True) -> dict:
        """The central element of homology class alpha that is not a multiple of W.

        Its degree under some corner matching is exactly zero, which pins the
        reference degree to max_i(-<h_i, alpha>).
        """
        alpha = tuple(alpha)
        if alpha == (0, 0):
            raise JacobiError("alpha must be nonzero")
        w0 = self.x_alpha_w0(alpha)
        out = {}
        for v in self.dimer.vertices:
            witness = None
            if want_witness:
                witness = self.realize_path(v, v, alpha, w0)
                if witness is None:
                    raise JacobiError(
                        f"no witness found for x_alpha at {v!r} within cap {self.realize_cap}"
                    )
            out[v] = PathClass(v, v, alpha, w0, witness=witness)
        return out

    # -- witness search ------------------------------------------------------

    def realize_path(self, tail, head, h1: Vec, w0: int, cap: Optional[int] = None):
        """Shortest composable word with the given class data, or None within the cap.

        Search states are (vertex, shift, reference degree); a partial path is
        pruned when its degree under any corner matching exceeds the target.
        """
        cap = cap if cap is not None else self.realize_cap
        h1 = tuple(h1)
        target = PathClass(tail, head, h1, w0)
        targets = self.corner_degrees(target)
        if w0 < 0 or min(targets) < 0:
            raise JacobiError("target degrees must be nonnegative")
        d = self.dimer
        arrows = sorted(d.arrows, key=lambda a: idkey(a.id))
        out_arrows: dict = {}
        for a in arrows:
            out_arrows.setdefault(a.tail, []).append(a)
        start = (tail, (0, 0), 0)
        if tail == head and h1 == (0, 0) and w0 == 0:
            return ()
        prev: dict = {start: None}
        frontier = deque([(start, 0)])
        while frontier:
            (v, sh, deg), length = frontier.popleft()
            if length >= cap:
                continue
            for a in out_arrows.get(v, []):
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
