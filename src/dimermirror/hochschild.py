"""The four-term Koszul-type Hochschild complex of the Jacobi algebra.

Cochains carry Jacobi-algebra coefficients on slots indexed by vertices
(degrees 0 and 3) and arrows (degrees 1 and 2): the unit, X, Xbar and point
slots, one kind per degree.  A ``CochainElement`` is one flat dict keyed by
(slot, tail, head, h0, h1, w0), a slot index and the fields of a
``PathClass`` with h1 split, with a nonzero integer on each key; so
``len(terms)`` counts (slot, class) terms, not slots.
``CochainElement(degree)`` is the zero, and ``from_terms`` builds every
other cochain from (slot, ``PathClass``, coefficient) terms; no kernel
builds a ``PathClass`` or a ``JElement``.

The differentials d0, d1 and d2, the second differential d_W and the
product of degrees 1 and 2 are one sandwich kernel over row tables: each row
puts an input coefficient between a left and a right class and adds it,
signed, on one output slot.  The rows of d0, d1, d2 and d_W depend on the
dimer only through the class of each arrow, the arrows at each vertex and
the face words, and each ``KoszulComplex`` builds them once.  W is the signed
sum of the face boundaries, so d1 (the Hessian of W) and d_W read one split
of face words.  The product reads its rows off its degree-2 factor once, for
every degree-1 factor (``cup_with``): X_a is paired with Xbar_a, whose terms
are the rows at tail(a).  The kernel only translates a coefficient's offsets
by a row's, so composing two tables row by row decides d1 d0 = 0 and
d2 d1 = 0 for every cochain (``_composite_vanishes``).

Each input slot's table is (lh, rt, rows), each row a flat tuple (sign,
out, tail, head, o0, o1, w0, left, right).  Every row of a slot puts its
coefficient between the same two vertices, its left ending at lh and its
right starting at rt; the constructor checks that and names the slot when a
row disagrees.  So the kernel checks composability once per term, as
``Jacobi.compose`` would, and the degree of the output slots once per call.
It adds every term through every row of its slot into one dict keyed by the
output's flat key, and the nonzero totals are the output's terms.  An input
slot the complex does not have is a named ``HochschildError``; the product's
table holds only the slots of its degree-2 factor, and the other arrows are
known slots with no rows.  Every other sum of cochains runs through
``CochainElement.from_terms`` or ``CochainElement.sum_of``, which add in one
pass over the same keys.
"""

from __future__ import annotations

from operator import attrgetter

from .dimer import (
    HochschildError,
    JacobiError,
    Vec,
    _Frozen,
    _set,
    dot,
    face_word_at,
    idkey,
    parallel_classes,
    strips,
    vec_add,
    vec_sub,
)
from .jacobi import Jacobi, JElement, PathClass

UNIT, X, XBAR, PT = "unit", "X", "Xbar", "pt"
_KINDS = (UNIT, X, XBAR, PT)  # the slot kind of each degree
_SLOT_DEGREE = {kind: degree for degree, kind in enumerate(_KINDS)}


def _key(s, cls: PathClass) -> tuple:
    """The flat key (s, tail, head, h0, h1, w0) of ``cls`` on slot index ``s``."""
    tail, head, (h0, h1), w0 = cls
    return (s, tail, head, h0, h1, w0)


class CochainElement:
    """Homogeneous element of the complex: one flat dict of coefficients.

    ``terms`` maps (slot, tail, head, h0, h1, w0), a slot index and the
    fields of a ``PathClass`` with h1 split, to a nonzero integer; the slot
    kind is the degree's (0 unit, 1 X, 2 Xbar, 3 pt).
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int):
        """The zero element of degree ``degree``; ``from_terms`` builds every other."""
        self.degree = degree
        self.terms = {}

    @staticmethod
    def _nonzero(degree: int, terms: dict) -> "CochainElement":
        """The element on ``terms``: flat keys with nonzero coefficients."""
        out = CochainElement.__new__(CochainElement)
        out.degree = degree
        out.terms = terms
        return out

    @staticmethod
    def from_terms(degree: int, terms) -> "CochainElement":
        """The sum of (slot, class, coefficient) terms, added up in one pass;
        the slot of each term is checked against ``degree``."""
        sums: dict = {}
        get = sums.get
        for slot, cls, k in terms:
            if _SLOT_DEGREE.get(slot[0]) != degree:
                raise HochschildError(f"slot {slot!r} is not a degree-{degree} slot")
            key = _key(slot[1], cls)
            sums[key] = get(key, 0) + k
        return CochainElement._nonzero(degree, {key: k for key, k in sums.items() if k})

    @staticmethod
    def sum_of(degree: int, elements) -> "CochainElement":
        """The sum of elements of degree ``degree``, added up in one pass; a
        nonzero element of another degree names its first slot."""
        sums: dict = {}
        get = sums.get
        for c in elements:
            if c.degree != degree and c.terms:
                slot = (_KINDS[c.degree], next(iter(c.terms))[0])
                raise HochschildError(f"slot {slot!r} is not a degree-{degree} slot")
            for key, k in c.terms.items():
                sums[key] = get(key, 0) + k
        return CochainElement._nonzero(degree, {key: k for key, k in sums.items() if k})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CochainElement") -> "CochainElement":
        if self.degree != other.degree:
            raise HochschildError("degree mismatch")
        return CochainElement.sum_of(self.degree, (self, other))

    def __sub__(self, other: "CochainElement") -> "CochainElement":
        return self + other.scale(-1)

    def scale(self, k: int) -> "CochainElement":
        return CochainElement._nonzero(
            self.degree, {key: k * n for key, n in self.terms.items()} if k else {}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainElement)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        bits = [f"{k}*{key}" for key, k in sorted(self.terms.items(), key=str)]
        return f"Cochain(deg={self.degree}, " + " + ".join(bits) + ")"


def _row(sign: int, out, left: PathClass, right: PathClass) -> tuple:
    """A flat row (sign, out, tail, head, o0, o1, w0, left, right) of the
    sandwich kernel.

    A coefficient c on the row's input slot lands on output slot ``out`` as
    sign times the class of left c right, (tail, head, (o0, o1) + h1(c),
    w0 + w0(c)): the endpoints and offsets of left and right are composed
    once, so each term adds three integers.
    """
    (l0, l1), (r0, r1) = left.h1, right.h1
    return (sign, out, left.tail, right.head, l0 + r0, l1 + r1, left.w0 + right.w0, left, right)


def _table(slot: tuple, lh, rt, rows: list) -> tuple:
    """The kernel's entry (lh, rt, rows) of one input slot.

    A coefficient composes with every row of the slot exactly when it runs
    from lh to rt, so the kernel checks it once; a row whose left does not
    end at lh or whose right does not start at rt is refused here.
    """
    for *_, left, right in rows:
        if left.head != lh or right.tail != rt:
            raise HochschildError(
                f"a row of slot {slot} does not put its coefficient between {lh!r} and {rt!r}"
            )
    return (lh, rt, rows)


def _ab_order(n: int):
    """The pairs (a, b) != (0, 0) with |a|, |b| <= n, by |a| + |b|, then a,
    then b, generated in that order rather than sorted."""
    for s in range(1, 2 * n + 1):
        for a in range(max(-s, -n), min(s, n) + 1):
            r = s - abs(a)
            if r <= n:
                yield from ((a, -r), (a, r)) if r else ((a, 0),)


def _sandwich(c: CochainElement, in_kind: str, rows: dict, out_kind: str, degree: int, known=()):
    """The cochain of degree ``degree``: each coefficient on an ``in_kind`` slot
    put between the left and right of every row of that slot's index.

    ``rows`` maps each index to its ``_table`` entry (lh, rt, rows); an index
    in ``known`` but not in ``rows`` has no rows, and any other is named.
    Each term is checked against (lh, rt), as ``Jacobi.compose`` would, and then
    added through every row into one dict keyed by the flat tuple (out, tail,
    head, h0, h1, w0), which is the output's ``terms`` once zeros are dropped.
    """
    if _SLOT_DEGREE[out_kind] != degree:
        raise HochschildError(f"{out_kind} slots have wrong degree for {degree}")
    if c.degree != _SLOT_DEGREE[in_kind] and c.terms:
        raise HochschildError(f"degree-{degree - 1} terms must sit on {in_kind} slots")
    sums: dict = {}
    get = sums.get
    for (s, ct, ch, h0, h1, cw), k in c.terms.items():
        entry = rows.get(s)
        if entry is None:
            if s in known:
                continue
            raise HochschildError(f"no {in_kind} slot {s!r} in this complex")
        lh, rt, slot_rows = entry
        if not slot_rows:  # nothing to add, so nothing to check
            continue
        if ct != lh or ch != rt:
            raise JacobiError("paths do not compose")
        for sign, x, tail, head, o0, o1, w0, _, _ in slot_rows:
            key = (x, tail, head, o0 + h0, o1 + h1, w0 + cw)
            sums[key] = get(key, 0) + sign * k
    return CochainElement._nonzero(degree, {key: k for key, k in sums.items() if k})


def _composite_vanishes(first: dict, second: dict) -> bool:
    """Whether the kernel of ``second`` after that of ``first`` is zero on
    every cochain.

    The kernel keeps a coefficient's endpoints out of the rows and only
    translates its (h0, h1, w0) by theirs, so on a coefficient c of input
    slot s the composite is the sum, over each row of s and each row of that
    row's output slot, of the product of their signs on the composed key (out,
    tail, head, o0, o1, w0) translated by c.  It vanishes for every c exactly
    when the composed keys of each slot cancel, which is what is checked; a
    row of ``first`` that does not end where its output slot's coefficients
    start does not compose, as in the kernel.
    """
    for _, _, rows in first.values():
        sums: dict = {}
        get = sums.get
        for sign, y, tail, head, o0, o1, w0, _, _ in rows:
            lh, rt, next_rows = second[y]
            if not next_rows:
                continue
            if tail != lh or head != rt:
                raise JacobiError("paths do not compose")
            for next_sign, x, t, h, p0, p1, pw, _, _ in next_rows:
                key = (x, t, h, o0 + p0, o1 + p1, w0 + pw)
                sums[key] = get(key, 0) + sign * next_sign
        if any(sums.values()):
            return False
    return True


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

    def __init__(self, jac: Jacobi, i0: int = 1, ab: tuple | None = None):
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
        # The dimer-only data of the kernels: the class of each arrow, the
        # arrows leaving and entering each vertex, and per input slot the
        # ``_table`` entry (lh, rt, flat rows, see ``_row``) of d0 (e_v m a
        # for a out of v, -a m e_v for a into v; lh = rt = v), d1 (the cyclic
        # derivative of each face at y split around each x; tail(y), head(y)),
        # d2 (e c y, -y c e on Xbar_y; head(y), tail(y)) and d_W (minus the
        # face word at v split around each position of a; tail(a), head(a)).
        # d1 and d_W split with ``_splits``.
        d = self.dimer
        arrows = d.arrow_ids
        tail, head = d.tail, d.head
        # each face arc is the left of one Hessian row and the right of its
        # mirror row, and the W splits and BV deletions repeat them
        self._canon: dict = {}  # word -> its class, normalised once
        cls_of = self._class_of
        self._arrow_cls = {a: cls_of((a,)) for a in arrows}
        self._leaving, self._entering = d.leaving, d.entering
        self._unit = unit = {v: jac.idempotent(v) for v in d.vertices}
        cls = self._arrow_cls
        self._d0_rows = {
            v: _table(
                (UNIT, v),
                v,
                v,
                [_row(1, a, unit[v], cls[a]) for a in self._leaving[v]]
                + [_row(-1, a, cls[a], unit[v]) for a in self._entering[v]],
            )
            for v in d.vertices
        }
        hessian: dict = {y: [] for y in arrows}
        for f in d.faces:
            b = f.boundary
            for j, y in enumerate(b):
                hessian[y] += [
                    _row(f.sign, x, after, before) for x, before, after in self._splits(b[j + 1 :] + b[:j])
                ]
        self._hessian = {y: _table((X, y), tail(y), head(y), rows) for y, rows in hessian.items()}
        self._d2_rows = {
            y: _table(
                (XBAR, y),
                head(y),
                tail(y),
                [_row(1, head(y), unit[head(y)], cls[y]), _row(-1, tail(y), cls[y], unit[tail(y)])],
            )
            for y in arrows
        }
        W_rows: dict = {a: [] for a in arrows}
        for v in d.vertices:
            for a, before, after in self._splits(face_word_at(d, v)):
                W_rows[a].append(_row(-1, v, before, after))
        self._W_rows = {a: _table((X, a), tail(a), head(a), rows) for a, rows in W_rows.items()}

    def _splits(self, word: tuple) -> list:
        """(x, before, after) for each position of ``word``: x the arrow there,
        before and after the classes of the words on either side of it, the
        unit at tail(x) or head(x) when that side is empty."""
        cls_of, unit, d = self._class_of, self._unit, self.dimer
        return [
            (
                x,
                cls_of(word[:p]) if p else unit[d.tail(x)],
                cls_of(word[p + 1 :]) if p + 1 < len(word) else unit[d.head(x)],
            )
            for p, x in enumerate(word)
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
        uv = [(self.U_eval(eta), self.V_eval(eta)) for eta, _ in self.classes]
        for a, b in _ab_order(N + 1):
            if all(a * u + b * v != 0 and a * m_prev * u + b * m0 * v != 0 for u, v in uv):
                return (a, b)
        raise HochschildError("no (a, b) valid on both sides for every eta_i")

    # -- differentials -----------------------------------------------------

    def d0(self, c: CochainElement) -> CochainElement:
        """m |-> sum over arrows of (x m - m x) on the arrow slots."""
        return _sandwich(c, UNIT, self._d0_rows, X, 1)

    def d1(self, c: CochainElement) -> CochainElement:
        """Hessian sandwich: polygons with one marked corner and the coefficient inserted."""
        return _sandwich(c, X, self._hessian, XBAR, 2)

    def d2(self, c: CochainElement) -> CochainElement:
        """Commutator with the slot arrow, landing on point slots."""
        return _sandwich(c, XBAR, self._d2_rows, PT, 3)

    def d1d0_vanishes(self) -> bool:
        """Whether d1 d0 = 0 on every cochain, decided on the composed rows."""
        return _composite_vanishes(self._d0_rows, self._hessian)

    def d2d1_vanishes(self) -> bool:
        """Whether d2 d1 = 0 on every cochain, decided on the composed rows."""
        return _composite_vanishes(self._hessian, self._d2_rows)

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
        return CochainElement._nonzero(0, {_key(v, cls): 1 for v, cls in per_vertex.items()})

    def W_cochain(self) -> CochainElement:
        return self.unit_cochain(self.jac.central_W())

    def x_alpha_cochain(self, alpha: Vec) -> CochainElement:
        return self.unit_cochain(self.jac.central_x_alpha(alpha))

    def partial_P(self, i: int) -> CochainElement:
        """The corner-matching derivation: sum of e X_e over e in P_i."""
        p = self.jac.corners[i - 1]
        return self.partial_of_matching(p.edges)

    def partial_of_matching(self, edges) -> CochainElement:
        rank = self.dimer.arrow_rank
        cls = self._arrow_cls
        return CochainElement._nonzero(1, {_key(e, cls[e]): 1 for e in sorted(edges, key=rank.__getitem__)})

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
        for e in sorted(jac.corners[i - 1].edges, key=self.dimer.arrow_rank.__getitem__):
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
        return CochainElement._nonzero(3, {_key(v, self.jac.idempotent(v)): 1})

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
        heads = [d.head(a) for a in word]
        v = min(heads, key=idkey)
        k = heads.index(v)
        word_at_v = word[k + 1 :] + word[: k + 1]
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
        the face word of W at each vertex, landing on unit slots.

        Each position of a in the face word at v is one row of ``_W_rows``:
        the word before a on the left, the word after it on the right.
        """
        if c.degree != 1:
            raise HochschildError(f"d_W is computed on degree 1, not degree {c.degree}")
        return _sandwich(c, X, self._W_rows, UNIT, 0)

    def d_W_theta(self, v) -> CochainElement:
        """Delta(W theta_v): BV of the face word of W at v."""
        return self.bv_delta_deg3(face_word_at(self.dimer, v))

    def bracket_partialP_central(self, i: int, f: JElement) -> JElement:
        """{partial_{P_i}, f} = deg_{P_i}(f) f for degree-0 classes f."""
        degs = {self.jac.class_degree(cls, i) for cls in f.terms}
        if len(degs) > 1:
            raise HochschildError("bracket oracle needs a P_i-homogeneous input")
        return f.scale(degs.pop()) if degs else JElement()

    def cup_with(self, b: CochainElement):
        """The product of degree 1 times degree 2 with b as the second factor:
        the function a |-> a cup b, pairing X_e with Xbar_e.  b's rows are
        built once here, for every first factor.

        The X_e coefficient, which must start at tail(e), and the Xbar_e
        coefficient compose to a closed path at tail(e), which is added on the
        point slot there: each term k c2 of Xbar_e is a flat row weighted by
        k, with the unit at tail(e) on the left, so its offsets are c2's own.
        The kernel reads no class of these rows, so they carry none.  The
        terms of Xbar_e must share their tail, the rt that each X_e
        coefficient is checked against; when they do not, rt is None and no
        coefficient composes.  Unknown slots are named.
        """
        if b.degree != 2:
            raise HochschildError(f"cup's second factor has degree 2, not {b.degree}")
        arrows, tail = self._arrow_cls, self.dimer.tail
        xbar: dict = {}  # e -> (lh, rt, rows) of Xbar_e's terms
        for (e, ct, ch, h0, h1, w0), k in b.terms.items():
            if e not in arrows:
                raise HochschildError(f"no {XBAR} slot {e!r} in this complex")
            v = tail(e)
            _, rt, flat = xbar.get(e) or (v, ct, [])
            xbar[e] = (v, rt if rt == ct else None, flat)
            flat.append((k, v, v, ch, h0, h1, w0, None, None))

        def times_b(a: CochainElement) -> CochainElement:
            if a.degree != 1:
                raise HochschildError(f"cup's first factor has degree 1, not {a.degree}")
            # an X slot with nothing on its Xbar slot adds nothing; one the
            # complex does not have is neither in the table nor known, so the
            # kernel names it
            return _sandwich(a, X, xbar, PT, 3, known=arrows)

        return times_b

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
