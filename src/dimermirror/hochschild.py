"""The four-term Koszul-type Hochschild complex of the Jacobi algebra.

Cochains carry Jacobi-algebra coefficients on slots indexed by vertices
(degrees 0 and 3) and arrows (degrees 1 and 2): the unit, X, Xbar and point
slots.

The differentials d0, d1 and d2 are one sandwich kernel over per-slot row
tables: each row puts an input coefficient between a left and a right class
and adds it, signed, on one output slot.  The rows depend on the dimer only
through the class of each arrow, the arrows at each vertex and the Hessian
rows of the superpotential, and each ``KoszulComplex`` builds them once.  The
second differential d_W contracts a derivation with the potential through a
second table, the splits of the face word of W at each vertex.  The product
of degrees 1 and 2 pairs X_a with Xbar_a and composes their coefficients.

d0, d1, d2, d_W and the product add their terms on plain keys: each output
slot sums coefficients in a dict keyed by the tuple (tail, head, h1, w0) of
the composed class, and keeps beside each key the witness parts of the first
term added under it.  Most of these sums cancel, so a ``PathClass`` is built
only for each nonzero total, with the first term's witness (the parts
joined, or None when one of them is None), even when the running total
passed through 0 on the way.  Composability is checked term by term, as
``Jacobi.compose`` would.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from .dimer import Vec, _Frozen, _set, dot, face_word_at, idkey, parallel_classes, strips, vec_add, vec_sub
from .jacobi import Jacobi, JacobiError, JElement, PathClass, hessian_rows

UNIT, X, XBAR, PT = "unit", "X", "Xbar", "pt"
_SLOT_DEGREE = {UNIT: 0, X: 1, XBAR: 2, PT: 3}


class HochschildError(Exception):
    pass


class CochainElement:
    """Homogeneous element of the complex: JElement coefficients per slot."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Optional[dict] = None):
        self.degree = degree
        self.terms = {}
        for slot, elem in (terms or {}).items():
            if not isinstance(elem, JElement):
                raise HochschildError("coefficients must be JElements")
            if not elem.is_zero():
                if _SLOT_DEGREE[slot[0]] != degree:
                    raise HochschildError(f"slot {slot} has wrong degree for {degree}")
                self.terms[slot] = elem

    @staticmethod
    def _nonzero(degree: int, terms: dict) -> "CochainElement":
        """The element on ``terms``: nonzero coefficients on slots of this degree."""
        out = CochainElement.__new__(CochainElement)
        out.degree = degree
        out.terms = terms
        return out

    @staticmethod
    def zero(degree: int) -> "CochainElement":
        return CochainElement(degree, {})

    @staticmethod
    def from_terms(degree: int, terms) -> "CochainElement":
        """The sum of (slot, class, coefficient) terms, added up in one pass."""
        sums: dict = {}
        for slot, cls, k in terms:
            out = sums.setdefault(slot, {})
            out[cls] = out.get(cls, 0) + k
        return CochainElement(degree, {slot: JElement(t) for slot, t in sums.items()})

    @staticmethod
    def sum_of(degree: int, elements) -> "CochainElement":
        """The sum of elements of one degree, added up in one pass."""
        return CochainElement.from_terms(
            degree,
            (
                (slot, cls, k)
                for c in elements
                for slot, elem in c.terms.items()
                for cls, k in elem.terms.items()
            ),
        )

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, slot, elem: JElement) -> "CochainElement":
        out = dict(self.terms)
        out[slot] = out.get(slot, JElement()) + elem
        return CochainElement(self.degree, out)

    def __add__(self, other: "CochainElement") -> "CochainElement":
        if self.degree != other.degree:
            raise HochschildError("degree mismatch")
        out = dict(self.terms)
        for slot, elem in other.terms.items():
            out[slot] = out.get(slot, JElement()) + elem
        return CochainElement(self.degree, out)

    def __sub__(self, other: "CochainElement") -> "CochainElement":
        return self + other.scale(-1)

    def scale(self, k: int) -> "CochainElement":
        return CochainElement(self.degree, {s: e.scale(k) for s, e in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainElement)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, frozenset((s, e) for s, e in self.terms.items())))

    def __repr__(self):
        bits = [f"{slot}: {elem}" for slot, elem in sorted(self.terms.items(), key=str)]
        return f"Cochain(deg={self.degree}, " + "; ".join(bits) + ")"


def _cochain(degree: int, sums: dict) -> CochainElement:
    """The element of ``sums``: slot -> {(tail, head, h1, w0): [coefficient, witness parts]}.

    A class is built only for a nonzero total.  Its witness is that of the
    first term added under its key: the parts joined, or None when one is None.
    """
    terms = {}
    for slot, acc in sums.items():
        elem = {
            PathClass(*key, None if None in parts else sum(parts, ())): k
            for key, (k, parts) in acc.items()
            if k
        }
        if elem:
            if _SLOT_DEGREE[slot[0]] != degree:
                raise HochschildError(f"slot {slot} has wrong degree for {degree}")
            terms[slot] = JElement._nonzero(elem)
    return CochainElement._nonzero(degree, terms)


def _row(sign: int, out, left: PathClass, right: PathClass) -> tuple:
    """A row (sign, out, outer, (left, right)) of d0, d1 or d2.

    A coefficient c on the row's input slot lands on output slot ``out`` as
    sign times the class of left c right; ``outer`` is (tail, head, h1, w0) of
    left and right composed once, so each term builds one key.
    """
    outer = (left.tail, right.head, vec_add(left.h1, right.h1), left.w0 + right.w0)
    return (sign, out, outer, (left, right))


def _sandwich(c: CochainElement, in_kind: str, rows: dict, out_kind: str, degree: int):
    """The cochain of degree ``degree``: each coefficient on an ``in_kind`` slot
    put between the left and right of every row of that slot's index."""
    sums: dict = {}
    for (kind, s), elem in c.terms.items():
        if kind != in_kind:
            raise HochschildError(f"degree-{degree - 1} terms must sit on {in_kind} slots")
        for sign, x, (tail, head, (o0, o1), w0), (left, right) in rows[s]:
            out = sums.setdefault((out_kind, x), {})
            for cls, k in elem.terms.items():
                if left.head != cls.tail or cls.head != right.tail:
                    raise JacobiError("paths do not compose")
                h = cls.h1
                key = (tail, head, (o0 + h[0], o1 + h[1]), w0 + cls.w0)
                entry = out.get(key)
                if entry is None:
                    out[key] = [sign * k, (left.witness, cls.witness, right.witness)]
                else:
                    entry[0] += sign * k
    return _cochain(degree, sums)


class E2Label(_Frozen):
    """Additive basis label of the second page (unit / x_eta^n / Psi / U / V / x^n W / Theta)."""

    _fields = ("kind", "i", "j", "n", "v")
    _key = attrgetter(*_fields)

    def __init__(self, kind: str, i: int = 0, j: int = 0, n: int = 0, v: object = None):
        _set(self, "kind", kind)  # unit | x_eta | psi | U | V | xW | theta
        _set(self, "i", i)  # zigzag class index
        _set(self, "j", j)  # strip index within the class
        _set(self, "n", n)  # winding
        _set(self, "v", v)  # vertex (winding-zero theta only)


class KoszulComplex:
    """Differentials, distinguished cocycles, and second-page bookkeeping."""

    def __init__(self, jac: Jacobi, i0: int = 1, ab: Optional[tuple] = None):
        self.jac = jac
        self.dimer = jac.dimer
        self.classes = parallel_classes(self.dimer)
        self.n_classes = len(self.classes)
        if not 1 <= i0 <= self.n_classes:
            raise HochschildError(f"i0 must be in 1..{self.n_classes}")
        self.i0 = i0
        self.base_vertex = self.dimer.vertices[0]
        self.strips = {
            i: strips(self.dimer, i) for i in range(1, self.n_classes + 1)
        }
        # U, V as height classes: differences of consecutive corner matchings
        corners = jac.corners
        N = self.n_classes
        h = [p.height for p in corners]
        self.U_vec = vec_sub(h[(i0 - 2) % N], h[(i0 - 1) % N])
        self.V_vec = vec_sub(h[(i0 - 1) % N], h[i0 % N])
        self.ab = ab if ab is not None else self._choose_ab()
        if any(self.w_odd_eval(eta) == 0 for eta, _ in self.classes):
            raise HochschildError(f"(a, b) = {self.ab} degenerates on some eta_i")
        # The dimer-only data of the differentials: the class of each arrow,
        # the arrows leaving and entering each vertex, and per input slot the
        # rows (see ``_row``) of d0 (e_v m a for a out of v, -a m e_v for a
        # into v), d1 (the Hessian rows of W) and d2 (e c y, -y c e on Xbar_y).
        d = self.dimer
        arrows = sorted(d.arrow_by_id, key=idkey)
        # each face arc is the left of one Hessian row and the right of its
        # mirror row, and the W splits and BV deletions repeat them
        self._canon: dict = {}  # word -> its class, normalised once
        cls_of = self._class_of
        self._arrow_cls = {a: cls_of((a,)) for a in arrows}
        self._leaving = {v: [] for v in d.vertices}
        self._entering = {v: [] for v in d.vertices}
        for a in arrows:
            self._leaving[d.tail(a)].append(a)
            self._entering[d.head(a)].append(a)
        unit, cls = {v: jac.idempotent(v) for v in d.vertices}, self._arrow_cls
        self._d0_rows = {
            v: [_row(1, a, unit[v], cls[a]) for a in self._leaving[v]]
            + [_row(-1, a, cls[a], unit[v]) for a in self._entering[v]]
            for v in d.vertices
        }
        self._hessian = {y: [] for y in arrows}
        for y in arrows:
            for sign, x, left, right in hessian_rows(jac.superpotential, y):
                left = cls_of(left) if left else unit[d.head(x)]
                right = cls_of(right) if right else unit[d.tail(x)]
                self._hessian[y].append(_row(sign, x, left, right))
        self._d2_rows = {
            y: [
                _row(1, d.head(y), unit[d.head(y)], cls[y]),
                _row(-1, d.tail(y), cls[y], unit[d.tail(y)]),
            ]
            for y in arrows
        }
        # For each vertex v, the splits (arrow, left class, right class) of the
        # face word of W at v, one per position of the word.
        self._W_splits = {}
        for v in d.vertices:
            word = face_word_at(d, v)
            self._W_splits[v] = [
                (
                    a,
                    cls_of(word[:p]) if p else unit[v],
                    cls_of(word[p + 1 :]) if p + 1 < len(word) else unit[v],
                )
                for p, a in enumerate(word)
            ]

    def eta(self, i: int) -> Vec:
        return self.classes[i - 1][0]

    def m(self, i: int) -> int:
        return len(self.classes[i - 1][1])

    def U_eval(self, eta: Vec) -> int:
        return dot(self.U_vec, eta)

    def V_eval(self, eta: Vec) -> int:
        return dot(self.V_vec, eta)

    def w_odd_eval(self, eta: Vec) -> int:
        a, b = self.ab
        return a * self.U_eval(eta) + b * self.V_eval(eta)

    # The label coefficient multiplying each winding family must stay nonzero
    # both on the second page (a U + b V) and on the symplectic side, where the
    # parallel multiplicities weight the two summands.
    def _choose_ab(self) -> tuple:
        N = self.n_classes
        m0, m_prev = self.m(self.i0), self.m((self.i0 - 2) % N + 1)
        cands = [
            (a, b)
            for a in range(-(N + 1), N + 2)
            for b in range(-(N + 1), N + 2)
        ]
        cands.sort(key=lambda t: (abs(t[0]) + abs(t[1]), t))
        for a, b in cands:
            if (a, b) == (0, 0):
                continue
            if all(
                a * self.U_eval(eta) + b * self.V_eval(eta) != 0
                and a * m_prev * self.U_eval(eta) + b * m0 * self.V_eval(eta) != 0
                for eta, _ in self.classes
            ):
                return (a, b)
        raise HochschildError("no (a, b) valid on both sides for every eta_i")

    # -- differentials -----------------------------------------------------

    def d(self, c: CochainElement) -> CochainElement:
        if c.degree == 0:
            return self.d0(c)
        if c.degree == 1:
            return self.d1(c)
        if c.degree == 2:
            return self.d2(c)
        raise HochschildError(f"no differential out of degree {c.degree}")

    def d0(self, c: CochainElement) -> CochainElement:
        """m |-> sum over arrows of (x m - m x) on the arrow slots."""
        return _sandwich(c, UNIT, self._d0_rows, X, 1)

    def d1(self, c: CochainElement) -> CochainElement:
        """Hessian sandwich: polygons with one marked corner and the coefficient inserted."""
        return _sandwich(c, X, self._hessian, XBAR, 2)

    def d2(self, c: CochainElement) -> CochainElement:
        """Commutator with the slot arrow, landing on point slots."""
        return _sandwich(c, XBAR, self._d2_rows, PT, 3)

    # -- BV operator on degree 3 --------------------------------------------

    def _class_of(self, word: tuple) -> PathClass:
        """``Jacobi.canonical_form`` of a word, computed once per word."""
        if word not in self._canon:
            self._canon[word] = self.jac.canonical_form(word)
        return self._canon[word]

    def bv_delta_deg3(self, word) -> CochainElement:
        """Cyclic deletion of one arrow at a time; input is a closed traversal."""
        word = tuple(word)
        jac = self.jac
        d = self.dimer
        if word and not d.is_closed(word):
            raise HochschildError(f"{word!r} is not a closed path")
        terms = []
        for i, a in enumerate(word):
            rest = word[i + 1 :] + word[:i]
            cls = self._class_of(rest) if rest else jac.idempotent(d.head(a))
            terms.append(((XBAR, a), cls, 1))
        return CochainElement.from_terms(2, terms)

    # -- distinguished cochains ----------------------------------------------

    def unit_cochain(self, per_vertex: dict) -> CochainElement:
        return CochainElement(0, {(UNIT, v): JElement.of(cls) for v, cls in per_vertex.items()})

    def W_cochain(self) -> CochainElement:
        return self.unit_cochain(self.jac.central_W())

    def x_alpha_cochain(self, alpha: Vec, want_witness: bool = False) -> CochainElement:
        return self.unit_cochain(self.jac.central_x_alpha(alpha, want_witness=want_witness))

    def partial_P(self, i: int) -> CochainElement:
        """The corner-matching derivation: sum of e X_e over e in P_i."""
        p = self.jac.corners[i - 1]
        return self.partial_of_matching(p.edges)

    def partial_of_matching(self, edges) -> CochainElement:
        return CochainElement(
            1, {(X, e): JElement.of(self._arrow_cls[e]) for e in sorted(edges, key=idkey)}
        )

    def zero_corner_of(self, alpha: Vec) -> int:
        """The unique corner matching with vanishing x_alpha degree."""
        jac = self.jac
        w0 = jac.x_alpha_w0(alpha)
        zeros = [
            i
            for i, off in enumerate(jac.corner_offsets, start=1)
            if w0 + dot(off, alpha) == 0
        ]
        if len(zeros) != 1:
            raise HochschildError(
                f"alpha {alpha} lies on a cone boundary ({len(zeros)} minimizing corners)"
            )
        return zeros[0]

    def partial_alpha(self, alpha: Vec) -> CochainElement:
        """x_alpha W^{-1} times the derivation of the alpha-minimizing corner."""
        alpha = tuple(alpha)
        jac = self.jac
        i = self.zero_corner_of(alpha)
        w0 = jac.x_alpha_w0(alpha)
        terms = []
        for e in sorted(jac.corners[i - 1].edges, key=idkey):
            cls = PathClass(
                self.dimer.tail(e),
                self.dimer.head(e),
                vec_add(alpha, self.dimer.shift(e)),
                w0 - 1 + (1 if e in jac.ref.edges else 0),
            )
            if min(jac.corner_degrees(cls)) < 0:
                raise HochschildError(f"partial_alpha({alpha}): coefficient on {e} not in J")
            terms.append(((X, e), cls, 1))
        return CochainElement.from_terms(1, terms)

    def theta(self, v) -> CochainElement:
        return CochainElement(3, {(PT, v): JElement.of(self.jac.idempotent(v))})

    def psi(self, i: int, j: int):
        """BV image of the positive anti-zigzag of Z_{i,j}, with its chosen vertex.

        Returns (CochainElement, vertex, word); the word is the anti-zigzag
        rotated to end at the chosen vertex and represents x_{eta_i} theta_v.
        """
        sd = self.strips[i]
        if not 1 <= j <= len(sd.cycles):
            raise HochschildError(f"class {i} has no parallel index {j}")
        word = sd.boundary[j - 1][0]  # O+(Z_{i,j})
        d = self.dimer
        verts = sorted({d.head(a) for a in word}, key=idkey)
        v = verts[0]
        rotations = [word[k + 1 :] + word[: k + 1] for k in range(len(word))]
        word_at_v = next(r for r in rotations if d.head(r[-1]) == v)
        cls = self._class_of(word_at_v)
        expect = PathClass(v, v, self.eta(i), self.jac.x_alpha_w0(self.eta(i)))
        if cls != expect:
            raise HochschildError(
                f"anti-zigzag of Z_{i},{j} does not represent x_eta theta_v: {cls} vs {expect}"
            )
        return (self.bv_delta_deg3(word_at_v), v, word_at_v)

    def generators(self) -> dict:
        """The distinguished cocycles, keyed by family."""
        out = {
            "x_alpha": {
                self.eta(i): self.x_alpha_cochain(self.eta(i))
                for i in range(1, self.n_classes + 1)
            },
            "partial_P": {
                i: self.partial_P(i) for i in range(1, self.n_classes + 1)
            },
            "partial_alpha": {},
            "theta": {v: self.theta(v) for v in self.dimer.vertices},
            "psi": {},
        }
        for i in range(1, self.n_classes + 1):
            alpha = vec_add(self.eta(i), self.eta(i % self.n_classes + 1))
            try:
                out["partial_alpha"][alpha] = self.partial_alpha(alpha)
            except HochschildError:
                pass
        for i in range(1, self.n_classes + 1):
            for j in range(1, self.m(i) + 1):
                out["psi"][(i, j)] = self.psi(i, j)
        return out

    # -- the second differential and the product of degrees 1 and 2 -----------

    def d_W(self, c: CochainElement) -> CochainElement:
        """Minus the derivation c applied to W: each X_a coefficient spliced into
        the face word of W at each vertex, landing on unit slots."""
        if c.degree != 1:
            raise HochschildError(f"d_W is computed on degree 1, not degree {c.degree}")
        sums: dict = {}
        for v, splits in self._W_splits.items():
            out = sums.setdefault((UNIT, v), {})
            for a, left, right in splits:
                elem = c.terms.get((X, a))
                if elem is None:
                    continue
                tail, head, w0 = left.tail, right.head, left.w0 + right.w0
                o0, o1 = vec_add(left.h1, right.h1)
                for cls, k in elem.terms.items():
                    if left.head != cls.tail or cls.head != right.tail:
                        raise JacobiError("paths do not compose")
                    h = cls.h1
                    key = (tail, head, (o0 + h[0], o1 + h[1]), w0 + cls.w0)
                    entry = out.get(key)
                    if entry is None:
                        out[key] = [-k, (left.witness, cls.witness, right.witness)]
                    else:
                        entry[0] -= k
        return _cochain(0, sums)

    def d_W_theta(self, v) -> CochainElement:
        """Delta(W theta_v): BV of the face word of W at v."""
        return self.bv_delta_deg3(face_word_at(self.dimer, v))

    def bracket_partialP_central(self, i: int, f: JElement) -> JElement:
        """{partial_{P_i}, f} = deg_{P_i}(f) f for degree-0 classes f."""
        degs = {self.jac.class_degree(cls, i) for cls in f.terms}
        if len(degs) > 1:
            raise HochschildError("bracket oracle needs a P_i-homogeneous input")
        return f.scale(degs.pop()) if degs else JElement()

    def cup(self, a: CochainElement, b: CochainElement) -> CochainElement:
        """Degree 1 times degree 2: X_e paired with Xbar_e.

        The two coefficients compose to a closed path at tail(e), which is
        added on the point slot there.
        """
        if (a.degree, b.degree) != (1, 2):
            raise HochschildError(f"cup is computed on degrees 1 x 2, not {a.degree} x {b.degree}")
        sums: dict = {}
        for (_, e), x in a.terms.items():
            y = b.terms.get((XBAR, e))
            if y is None:
                continue
            out = sums.setdefault((PT, self.dimer.tail(e)), {})
            for c1, k1 in x.terms.items():
                for c2, k2 in y.terms.items():
                    if c1.head != c2.tail:
                        raise JacobiError("paths do not compose")
                    h1, h2 = c1.h1, c2.h1
                    key = (c1.tail, c2.head, (h1[0] + h2[0], h1[1] + h2[1]), c1.w0 + c2.w0)
                    entry = out.get(key)
                    if entry is None:
                        out[key] = [k1 * k2, (c1.witness, c2.witness)]
                    else:
                        entry[0] += k1 * k2
        return _cochain(3, sums)

    # -- second page -----------------------------------------------------------

    def e2_basis(self, parity: str, n_max: int) -> list:
        """Additive basis labels of the second page up to winding n_max."""
        if n_max < 1:
            raise HochschildError("n_max must be >= 1")
        if parity not in ("even", "odd"):
            raise HochschildError("parity must be 'even' or 'odd'")
        out = []
        if parity == "even":
            out.append(E2Label("unit"))
            for i in range(1, self.n_classes + 1):
                for n in range(1, n_max + 1):
                    out.append(E2Label("x_eta", i=i, n=n))
                for j in range(2, self.m(i) + 1):
                    for n in range(0, n_max):
                        out.append(E2Label("psi", i=i, j=j, n=n))
            return out
        out.append(E2Label("U"))
        out.append(E2Label("V"))
        v0 = self.base_vertex
        for v in self.dimer.vertices:
            if v != v0:
                out.append(E2Label("theta", n=0, v=v))
        for i in range(1, self.n_classes + 1):
            for n in range(1, n_max + 1):
                out.append(E2Label("xW", i=i, n=n))
            for j in range(2, self.m(i) + 1):
                for n in range(1, n_max + 1):
                    out.append(E2Label("theta", i=i, j=j, n=n))
        return out
