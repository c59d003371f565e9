from __future__ import annotations

import random

import pytest

from dimermirror.dimer import Arrow, Dimer, DimerError, cyclic_equal, dot, idkey, vec_sub
from dimermirror.jacobi import (
    CyclicPoly,
    Jacobi,
    JacobiError,
    PathClass,
    cyclic_derivative,
    hessian_rows,
    superpotential,
)
from dimermirror.matchings import PerfectMatching, enumerate_perfect_matchings


# -- references the package no longer carries ----------------------------------


def hessian(poly: CyclicPoly, x, y) -> list:
    """Second cyclic derivative: the (coeff, left, right) rows of ``hessian_rows`` at x.

    A reference that tests compare the Koszul differentials against.
    """
    return [(coeff, left, right) for coeff, b, left, right in hessian_rows(poly, y) if b == x]


def divide_by_W(jac: Jacobi, cls: PathClass) -> PathClass:
    """Remove one factor of the potential; defined when every corner degree is >= 1.

    A reference that tests compare the central elements against.
    """
    degs = jac.corner_degrees(cls)
    if min(degs) < 1:
        raise JacobiError(f"class with corner degrees {degs} is not divisible by W")
    return PathClass(cls.tail, cls.head, cls.h1, cls.w0 - 1)


# -- degrees under any perfect matching: the reference for the corner degrees ----


def with_height(jac, matching: PerfectMatching) -> PerfectMatching:
    """The matching with its height, read off the polytope's table and P0."""
    d = jac.dimer
    if not matching.edges <= d.arrow_by_id.keys() or any(
        sum(1 for a in f.boundary if a in matching.edges) != 1 for f in d.faces
    ):
        raise JacobiError("unknown perfect matching")
    return PerfectMatching(matching.edges, jac.poly.height(matching))


def word_degree(word, matching: frozenset) -> int:
    return sum(1 for a in word if a in matching)


def pm_degree(jac, p, matching) -> int:
    """Degree of a word or class under any perfect matching."""
    if isinstance(p, PathClass):
        pm = (
            matching
            if isinstance(matching, PerfectMatching)
            else PerfectMatching(frozenset(matching))
        )
        pm = with_height(jac, pm)
        phi = jac._phi(pm)
        off = vec_sub(pm.height, jac.ref.height)
        return p.w0 + dot(off, p.h1) + phi[p.head] - phi[p.tail]
    edges = matching.edges if isinstance(matching, PerfectMatching) else frozenset(matching)
    return word_degree(tuple(p), edges)


def words_spelled(s: str) -> tuple:
    """Spelled composition word -> traversal tuple (rightmost arrow first)."""
    return tuple(reversed(tuple(s)))


def test_c3_superpotential(dimers):
    phi = superpotential(dimers["c3"])
    terms = dict((w, c) for c, w in phi.terms)
    # spelled words: + x y z and - x z y
    plus = words_spelled("xyz")
    minus = words_spelled("xzy")
    assert any(cyclic_equal(w, plus) and c == 1 for w, c in terms.items())
    assert any(cyclic_equal(w, minus) and c == -1 for w, c in terms.items())
    assert len(phi.terms) == len(dimers["c3"].faces)


def test_conifold_superpotential(dimers):
    phi = superpotential(dimers["conifold"])
    plus = tuple(reversed(("a1", "b1", "a2", "b2")))
    minus = tuple(reversed(("a1", "b2", "a2", "b1")))
    got = {c: w for c, w in phi.terms}
    assert cyclic_equal(got[1], plus)
    assert cyclic_equal(got[-1], minus)


def test_term_count_equals_face_count(dimers):
    for d in dimers.values():
        assert len(superpotential(d).terms) == len(d.faces)


def test_c3_cyclic_derivative(dimers):
    phi = superpotential(dimers["c3"])
    got = sorted(cyclic_derivative(phi, "x"))
    # the relation says the two paths (traverse z then y) and (y then z) agree
    assert got == [(-1, ("y", "z")), (1, ("z", "y"))]
    assert cyclic_derivative(phi, "missing") == []


def test_relations_have_two_terms(dimers):
    for d in dimers.values():
        phi = superpotential(d)
        for e in d.arrow_by_id:
            assert len(cyclic_derivative(phi, e)) == 2


def test_c3_hessian(dimers):
    phi = superpotential(dimers["c3"])
    got = sorted(hessian(phi, "x", "y"))
    assert got == [(-1, (), ("z",)), (1, ("z",), ())]


def test_hessian_c_compose_j_is_zero(jacobis):
    # the Koszul maps satisfy c(j(sum of idempotent pairs)) = 0; slotwise the
    # commutator of each arrow with the Hessian columns cancels in J (x) J
    for name, jac in jacobis.items():
        d = jac.dimer
        phi = jac.superpotential
        for y in sorted(d.arrow_by_id, key=idkey):
            acc: dict = {}
            for x in sorted(d.arrow_by_id, key=idkey):
                xcls = jac.canonical_form((x,))
                for coeff, left, right in hessian(phi, x, y):
                    lcls = jac.canonical_form(left) if left else jac.idempotent(d.head(x))
                    rcls = jac.canonical_form(right) if right else jac.idempotent(d.tail(x))
                    k1 = (jac.compose(xcls, lcls), rcls)
                    acc[k1] = acc.get(k1, 0) + coeff
                    k2 = (lcls, jac.compose(rcls, xcls))
                    acc[k2] = acc.get(k2, 0) - coeff
            assert all(v == 0 for v in acc.values()), (name, y)


def test_degree_of_W_is_one(dimers, jacobis):
    for name, jac in jacobis.items():
        for p in enumerate_perfect_matchings(dimers[name]):
            for v, cls in jac.central_W().items():
                assert pm_degree(jac, cls, p) == 1


def test_degree_invariant_under_rewrites(dimers, jacobis):
    for name, jac in jacobis.items():
        pms = enumerate_perfect_matchings(dimers[name])
        for e, lhs, rhs in jac.jacobi_relations():
            for p in pms:
                assert pm_degree(jac, lhs, p) == pm_degree(jac, rhs, p)


def test_pm_degree_reads_heights_off_the_chains(dimers, jacobis):
    # the enumerated listing is the oracle: same height, and the degree of
    # each arrow and each face boundary under every perfect matching
    for name, jac in jacobis.items():
        d = dimers[name]
        for ps in jac.poly.points.values():
            for p in ps:
                assert with_height(jac, PerfectMatching(p.edges)) == p
                for e in d.arrow_by_id:
                    assert pm_degree(jac, jac.canonical_form((e,)), p.edges) == (e in p.edges)
                for f in d.faces:
                    assert pm_degree(jac, jac.canonical_form(f.boundary), p) == 1
        cls = jac.canonical_form(d.faces[0].boundary)
        p = next(iter(jac.poly.corners.values())).edges
        some = next(iter(p))
        for bad in (frozenset(), frozenset(d.arrow_by_id), p - {some}, p | {"no-such-arrow"}):
            with pytest.raises(JacobiError, match="unknown perfect matching"):
                pm_degree(jac, cls, bad)


def test_c3_word_degrees(jacobis):
    jac = jacobis["c3"]
    w = words_spelled("xyz")
    assert pm_degree(jac, w, frozenset({"x"})) == 1
    assert pm_degree(jac, w, frozenset({"y"})) == 1


def test_relation_sides_equal(jacobis):
    for jac in jacobis.values():
        for e, lhs, rhs in jac.jacobi_relations():
            assert jac.path_equal(lhs, rhs)
            assert jac.canonical_form(lhs) == jac.canonical_form(rhs)


def test_canonical_form_rejects_noncomposable(jacobis):
    with pytest.raises(JacobiError):
        jacobis["spp"].canonical_form(("a", "a"))


def test_canonical_form_rewrite_invariance(jacobis):
    for name, jac in jacobis.items():
        words = _composable_words(jac.dimer, 4)
        for w in words:
            for nb in jac.rewrite_neighbors(w, cap=9):
                assert jac.canonical_form(nb) == jac.canonical_form(w), (name, w, nb)


def test_endpoint_or_class_mismatch_is_unequal(jacobis):
    jac = jacobis["spp"]
    assert not jac.path_equal(("d",), ("d", "d"))
    assert not jac.path_equal(("c",), ("d", "c"))


def _composable_words(d, max_len):
    out = []
    frontier = [(a.id,) for a in sorted(d.arrows, key=lambda x: idkey(x.id))]
    while frontier:
        w = frontier.pop()
        out.append(w)
        if len(w) < max_len:
            for a in sorted(d.arrows, key=lambda x: idkey(x.id)):
                if a.tail == d.head(w[-1]):
                    frontier.append(w + (a.id,))
    return out


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def oracle_partitions_agree(jac, max_len, cap):
    """Canonical-form classes equal rewrite-closure classes on short words."""
    words = _composable_words(jac.dimer, cap)
    uf = _UnionFind()
    for w in words:
        uf.find(w)
        for nb in jac.rewrite_neighbors(w, cap):
            uf.union(w, nb)
    short = [w for w in words if len(w) <= max_len]
    canon_to_root = {}
    root_to_canon = {}
    for w in short:
        c = jac.canonical_form(w)
        r = uf.find(w)
        if canon_to_root.setdefault(c, r) != r:
            return False, ("one class, two closures", w)
        if root_to_canon.setdefault(r, c) != c:
            return False, ("one closure, two classes", w)
    return True, None


def test_oracle_agreement_small(jacobis):
    for name, jac in jacobis.items():
        ok, witness = oracle_partitions_agree(jac, max_len=4, cap=8)
        assert ok, (name, witness)


def test_reduce_oracle_c3(jacobis):
    jac = jacobis["c3"]
    assert jac.reduce_oracle(("x", "y"), 6) == {("x", "y"), ("y", "x")}
    closure = jac.reduce_oracle(("x", "y", "z"), 6)
    assert ("z", "y", "x") in closure  # all permutations are reachable
    assert len({jac.canonical_form(w) for w in closure}) == 1


def test_central_W(dimers, jacobis):
    for name, jac in jacobis.items():
        W = jac.central_W()
        for v, cls in W.items():
            assert cls.h1 == (0, 0)
            assert all(deg == 1 for deg in jac.corner_degrees(cls))
        d = dimers[name]
        # every face boundary through v has the class W picks at v
        for f in d.faces:
            for k, a in enumerate(f.boundary):
                assert jac.canonical_form(f.boundary[k:] + f.boundary[:k]) == W[d.tail(a)]
        for a in d.arrows:
            lhs = jac.compose(jac.canonical_form((a.id,)), W[a.head])
            rhs = jac.compose(W[a.tail], jac.canonical_form((a.id,)))
            assert lhs == rhs


def test_x_alpha(jacobis):
    for name, jac in jacobis.items():
        for i, off in enumerate(jac.corner_offsets):
            pass
        etas = [(1, 0), (0, 1)]
        for alpha in etas:
            xa = jac.central_x_alpha(alpha)
            for v, cls in xa.items():
                degs = jac.corner_degrees(cls)
                assert min(degs) == 0
                assert cls.witness is not None
                assert jac.canonical_form(cls.witness) == cls
            with pytest.raises(JacobiError):
                divide_by_W(jac, next(iter(xa.values())))


def test_x_alpha_rejects_zero(jacobis):
    with pytest.raises(JacobiError):
        jacobis["c3"].central_x_alpha((0, 0))


def test_x_eta_vanishes_on_adjacent_corners(jacobis, complexes):
    # the degree of x_{eta_i} is minimized along the hull edge with outward
    # normal -eta_i, so exactly its two endpoint corners read zero
    for name, jac in jacobis.items():
        K = complexes[name]
        n = K.n_classes
        for i in range(1, n + 1):
            cls = next(iter(jac.central_x_alpha(K.eta(i), want_witness=False).values()))
            degs = jac.corner_degrees(cls)
            zero_at = {k + 1 for k, deg in enumerate(degs) if deg == 0}
            assert zero_at == {i, i % n + 1}, (name, i, degs)


def test_divide_by_W(jacobis):
    for jac in jacobis.values():
        for v, cls in jac.central_W().items():
            assert divide_by_W(jac, cls) == jac.idempotent(v)
        with pytest.raises(JacobiError):
            divide_by_W(jac, jac.idempotent(jac.dimer.vertices[0]))


def test_division_consistency(jacobis):
    for jac in jacobis.values():
        W = next(iter(jac.central_W().values()))
        for alpha in ((1, 0), (0, 1), (1, 1)):
            try:
                xa = next(iter(jac.central_x_alpha(alpha, want_witness=False).values()))
            except JacobiError:
                continue
            prod = type(xa)(xa.tail, xa.head, xa.h1, xa.w0 + W.w0)
            assert divide_by_W(jac, prod) == xa


def test_realize_path(jacobis):
    for jac in jacobis.values():
        d = jac.dimer
        for v, cls in jac.central_W().items():
            w = jac.realize_path(v, v, (0, 0), 1)
            assert w is not None and jac.canonical_form(w) == cls
        with pytest.raises(JacobiError):
            jac.realize_path(d.vertices[0], d.vertices[0], (0, 0), -1)


def test_realize_path_not_found_is_none(jacobis):
    jac = jacobis["c3"]
    # h1 = (3, 0) with reference degree 0 requires corner degrees that the cap
    # 1 cannot reach; the search reports None rather than claiming nonexistence
    out = jac.realize_path("v", "v", (3, 0), jac.x_alpha_w0((3, 0)), cap=1)
    assert out is None


def _three_pass_canonical_form(jac, word):
    """``Jacobi.canonical_form`` as three walks: composability, then shift, then degree."""
    word = tuple(word)
    d = jac.dimer
    if not d.is_composable(word):
        raise JacobiError(f"word {word!r} is not a composable path")
    return PathClass(
        d.tail(word[0]), d.head(word[-1]), d.word_shift(word), word_degree(word, jac.ref.edges), word
    )


def _outcome(fn, word):
    try:
        cls = fn(word)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return cls, cls.witness


def test_one_pass_canonical_form_matches_three_passes(dimers, jacobis):
    rng = random.Random(7)
    for name, d in dimers.items():
        jac = jacobis[name]
        out_arrows: dict = {}
        for a in d.arrows:
            out_arrows.setdefault(a.tail, []).append(a.id)
        words = [(), ("nope",), (d.arrows[0].id, "nope"), ([1],), (d.arrows[0].id, [1])]
        for _ in range(200):
            v = rng.choice(d.vertices)
            word = []
            for _ in range(rng.randint(1, 9)):
                aid = rng.choice(out_arrows[v])
                word.append(aid)
                v = d.head(aid)
            words.append(tuple(word))
            words.append(tuple(rng.sample(word, len(word))))  # mostly not composable
            words.append(tuple(word) + ("nope", [1]))  # a missing id before an unhashable one
        for word in words:
            assert _outcome(jac.canonical_form, word) == _outcome(
                lambda w: _three_pass_canonical_form(jac, w), word
            ), word


def test_canonical_form_decides_composability_before_a_missing_shift(dimers):
    d = dimers["conifold"]
    jac = Jacobi(d)
    jac.dimer = Dimer(
        d.name,
        d.vertices,
        [Arrow(a.id, a.tail, a.head, None if a.id == "a1" else a.shift) for a in d.arrows],
        d.faces,
    )
    with pytest.raises(JacobiError, match="not a composable path"):
        jac.canonical_form(("a1", "a2", "nope", [1]))
    with pytest.raises(TypeError):
        jac.canonical_form(("a1", "b1", "b2", [1]))
    with pytest.raises(JacobiError, match="not a composable path"):
        jac.canonical_form(("a1", "a2"))
    with pytest.raises(DimerError, match="arrow 'a1' carries no shift data"):
        jac.canonical_form(("b2", "a1", "b1"))
    for word in (("a1", "a2"), ("b2", "a1", "b1"), ("a1", "b1", "a2")):
        assert _outcome(jac.canonical_form, word) == _outcome(
            lambda w: _three_pass_canonical_form(jac, w), word
        )
