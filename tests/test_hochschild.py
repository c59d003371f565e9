from __future__ import annotations

import random
from collections import Counter

import pytest

from dimermirror.dimer import face_word_at, idkey, vec_add, vec_sub
from dimermirror.hochschild import (
    UNIT,
    X,
    XBAR,
    PT,
    CochainElement,
    HochschildError,
    KoszulComplex,
)
from dimermirror.io import dimer_from_dict
from dimermirror.jacobi import Jacobi, JacobiError, JElement, PathClass
from dimermirror.ks import FAIL, KSVerifier
from test_jacobi import hessian
from test_matchings import ORACLE_ZOO


def unit_idempotent(K, v):
    return K.unit_cochain({v: K.jac.idempotent(v)})


def test_d0_of_idempotent_pattern(complexes):
    # the coefficient on each arrow slot is +e when the arrow leaves v and -e
    # when it enters v (both when it is a loop)
    for K in complexes.values():
        d = K.dimer
        for v in d.vertices:
            out = K.d0(unit_idempotent(K, v))
            for a in d.arrow_by_id:
                expect = JElement()
                cls = K.jac.canonical_form((a,))
                if d.tail(a) == v:
                    expect = expect + JElement.of(cls)
                if d.head(a) == v:
                    expect = expect - JElement.of(cls)
                got = out.terms.get((X, a), JElement())
                assert got == expect


def test_complex_property(complexes):
    for K in complexes.values():
        d = K.dimer
        deg0 = [unit_idempotent(K, v) for v in d.vertices]
        deg0.append(K.W_cochain())
        for i in range(1, K.n_classes + 1):
            deg0.append(K.x_alpha_cochain(K.eta(i)))
        for c in deg0:
            assert K.d1(K.d0(c)).is_zero()
        deg1 = [
            CochainElement(1, {(X, a.id): JElement.of(K.jac.canonical_form((a.id,)))})
            for a in d.arrows
        ]
        deg1 += [K.partial_P(i) for i in range(1, K.n_classes + 1)]
        for c in deg1:
            assert K.d2(K.d1(c)).is_zero()


def test_cocycle_suite(complexes):
    for name, K in complexes.items():
        gens = K.generators()
        for c in gens["x_alpha"].values():
            assert K.d0(c).is_zero()
        assert K.d0(K.W_cochain()).is_zero()
        for c in gens["partial_P"].values():
            assert K.d1(c).is_zero()
        for c in gens["partial_alpha"].values():
            assert K.d1(c).is_zero()
        for (c, v, word) in gens["psi"].values():
            assert K.d2(c).is_zero()


def test_d1_nonzero_sanity(complexes):
    # a random-ish degree-1 element on the suspended pinch point is not closed
    K = complexes["spp"]
    jac = K.jac
    c = CochainElement(1, {(X, "c"): JElement.of(jac.canonical_form(("d", "c")))})
    assert not K.d1(c).is_zero()


def test_d2_nonzero_sanity(complexes):
    K = complexes["spp"]
    jac = K.jac
    # coefficient from head(g)=3 to tail(g)=1 on the Xbar slot of g
    c = CochainElement(2, {(XBAR, "g"): JElement.of(jac.canonical_form(("a",)))})
    assert not K.d2(c).is_zero()


def test_bv_of_constant_path_vanishes(complexes):
    for K in complexes.values():
        assert K.bv_delta_deg3(()).is_zero()


def test_bv_of_face_word(complexes):
    # Delta(W theta_v) is supported exactly on the arrows of one face through v
    for K in complexes.values():
        d = K.dimer
        for v in d.vertices:
            out = K.d_W_theta(v)
            support = {slot[1] for slot in out.terms}
            assert any(
                support == set(f.boundary) and any(d.tail(a) == v for a in f.boundary)
                for f in d.faces
            )
            assert K.d2(out).is_zero()


def test_psi_is_bv_of_anti_zigzag(complexes):
    for name, K in complexes.items():
        for i in range(1, K.n_classes + 1):
            sd = K.strips[i]
            for j in range(1, len(sd.cycles) + 1):
                c, v, word = K.psi(i, j)
                assert K.bv_delta_deg3(word) == c
                cls = K.jac.canonical_form(word)
                assert cls.h1 == K.eta(i)
                assert cls.tail == cls.head == v


def test_spp_psi32_from_second_parallel_cycle(complexes):
    K = complexes["spp"]
    c, v, word = K.psi(3, 2)
    assert set(word) == {"f", "b"}
    assert v in (2, 3)
    # Delta of a 2-cycle has two slots with single-arrow coefficients
    assert set(c.terms) == {(XBAR, "f"), (XBAR, "b")}


def test_theta_count(complexes):
    for K in complexes.values():
        gens = K.generators()
        assert len(gens["theta"]) == len(K.dimer.vertices)


def test_c3_partial_of_singleton_matching(complexes):
    K = complexes["c3"]
    c = K.partial_of_matching(frozenset({"x"}))
    assert set(c.terms) == {(X, "x")}
    assert c.terms[(X, "x")] == JElement.of(K.jac.canonical_form(("x",)))


def test_d_W_closed_forms(complexes):
    # contracting a derivation with W gives d_W(partial_P) = -W and
    # d_W(partial_alpha) = -x_alpha; d_W has nowhere to go from degree 0
    for K in complexes.values():
        minus_w = K.W_cochain().scale(-1)
        gens = K.generators()
        for c in gens["partial_P"].values():
            assert K.d_W(c) == minus_w
        for alpha, c in gens["partial_alpha"].items():
            assert K.d_W(c) == K.x_alpha_cochain(alpha).scale(-1)
        for c in gens["x_alpha"].values():
            with pytest.raises(HochschildError):
                K.d_W(c)


def test_d_W_refuses_psi(complexes):
    K = complexes["c3"]
    with pytest.raises(HochschildError):
        K.d_W(K.psi(1, 1)[0])


def test_bracket_oracle(complexes):
    for K in complexes.values():
        jac = K.jac
        w = JElement()
        for v, cls in jac.central_W().items():
            w = w + JElement.of(cls)
        for i in range(1, K.n_classes + 1):
            assert K.bracket_partialP_central(i, w) == w  # deg_P(W) = 1
        for i in range(1, K.n_classes + 1):
            eta = K.eta(i)
            xe = JElement()
            for v, cls in jac.central_x_alpha(eta, want_witness=False).items():
                xe = xe + JElement.of(cls)
            for k in range(1, K.n_classes + 1):
                got = K.bracket_partialP_central(k, xe)
                deg = jac.class_degree(
                    PathClass(K.dimer.vertices[0], K.dimer.vertices[0], eta, jac.x_alpha_w0(eta)),
                    k,
                )
                assert got == xe.scale(deg)


def test_cup_oracle_partialP_psi(complexes):
    # every term of partial_{P_k} cup psi is x_eta at its own vertex; carried to
    # v, they add up to the closed form deg_{P_k}(x_eta) x_eta theta_v
    for K in complexes.values():
        jac = K.jac
        for i in range(1, K.n_classes + 1):
            eta = K.eta(i)
            xcls_at = lambda u: PathClass(u, u, eta, jac.x_alpha_w0(eta))
            for j in range(1, len(K.strips[i].cycles) + 1):
                psi_c, v, word = K.psi(i, j)
                for k in range(1, K.n_classes + 1):
                    out = K.cup(K.partial_P(k), psi_c)
                    total = 0
                    for (kind, u), e in out.terms.items():
                        assert kind == PT and set(e.terms) == {xcls_at(u)}
                        total += e.terms[xcls_at(u)]
                    deg = jac.class_degree(xcls_at(v), k)
                    closed_form = CochainElement(3, {(PT, v): JElement.of(xcls_at(v), deg)})
                    assert CochainElement(3, {(PT, v): JElement.of(xcls_at(v), total)}) == closed_form


def test_cup_oracle_unit_and_unsupported(complexes):
    K = complexes["c3"]
    p1 = K.partial_P(1)
    with pytest.raises(HochschildError):
        K.cup(p1, p1)


def test_e2_counts_c3(complexes):
    K = complexes["c3"]
    even = K.e2_basis("even", 3)
    assert len(even) == 1 + 9  # unit plus three winding families, no psi
    assert not [l for l in even if l.kind == "psi"]
    odd = K.e2_basis("odd", 3)
    assert not [l for l in odd if l.kind == "theta"]  # single vertex
    assert len([l for l in odd if l.kind in ("U", "V")]) == 2


def test_e2_counts_spp(complexes):
    K = complexes["spp"]
    n_max = 4
    even = K.e2_basis("even", n_max)
    for n in range(1, n_max + 1):
        per_winding = [l for l in even if l.kind == "x_eta" and l.n == n] + [
            l for l in even if l.kind == "psi" and l.n == n - 1
        ]
        assert len(per_winding) == 4 + 1  # sum of m_i
    odd0 = [l for l in K.e2_basis("odd", n_max) if l.kind in ("U", "V") or (l.kind == "theta" and l.n == 0)]
    assert len(odd0) == 4  # U, V and two winding-zero theta classes
    odd = K.e2_basis("odd", n_max)
    for n in range(1, n_max + 1):
        per = [l for l in odd if l.n == n and l.kind in ("xW", "theta")]
        by_class = {}
        for l in per:
            by_class.setdefault(l.i, []).append(l)
        assert {i: len(v) for i, v in by_class.items()} == {1: 1, 2: 1, 3: 2, 4: 1}


def test_e2_counting_laws(complexes, sh_models):
    for name, K in complexes.items():
        sh = sh_models[name]
        n_max = 3
        even = K.e2_basis("even", n_max)
        odd = K.e2_basis("odd", n_max)
        for i in range(1, K.n_classes + 1):
            for n in range(1, n_max + 1):
                even_count = len(
                    [l for l in even if l.i == i and (l.kind == "x_eta" and l.n == n or l.kind == "psi" and l.n == n - 1)]
                )
                odd_count = len([l for l in odd if l.i == i and l.n == n])
                assert even_count == sh.m[i]
                assert odd_count == sh.m[i]
        zero_odd = [l for l in odd if l.kind in ("U", "V") or (l.kind == "theta" and l.n == 0)]
        assert len(zero_odd) == len(K.dimer.vertices) + 1


def test_ab_choice_nonzero(complexes):
    for K in complexes.values():
        for i in range(1, K.n_classes + 1):
            assert K.w_odd_eval(K.eta(i)) != 0


# -- the differentials against their per-call formulas --------------------------


def reference_d0(K, c):
    jac, d = K.jac, K.dimer
    out = CochainElement.zero(1)
    for (kind, v), elem in c.terms.items():
        for a in d.arrow_by_id:
            acls = jac.canonical_form((a,))
            for cls, k in elem.terms.items():
                if d.tail(a) == v:
                    out = out.add_term((X, a), JElement.of(jac.compose(cls, acls), k))
                if d.head(a) == v:
                    out = out.add_term((X, a), JElement.of(jac.compose(acls, cls), -k))
    return out


def reference_d1(K, c):
    jac, d = K.jac, K.dimer
    out = CochainElement.zero(2)
    for (kind, y), elem in c.terms.items():
        for x in d.arrow_by_id:
            for sign, left, right in hessian(jac.superpotential, x, y):
                lcls = jac.canonical_form(left) if left else jac.idempotent(d.head(x))
                rcls = jac.canonical_form(right) if right else jac.idempotent(d.tail(x))
                for cls, k in elem.terms.items():
                    total = jac.compose(jac.compose(lcls, cls), rcls)
                    out = out.add_term((XBAR, x), JElement.of(total, sign * k))
    return out


def reference_d2(K, c):
    jac, d = K.jac, K.dimer
    out = CochainElement.zero(3)
    for (kind, y), elem in c.terms.items():
        ycls = jac.canonical_form((y,))
        for cls, k in elem.terms.items():
            out = out.add_term((PT, d.head(y)), JElement.of(jac.compose(cls, ycls), k))
            out = out.add_term((PT, d.tail(y)), JElement.of(jac.compose(ycls, cls), -k))
    return out


def oracle_inputs(K):
    """Unit idempotents, single-arrow X and Xbar cochains, their sums, and the
    generators of positive codegree (theta sits in degree 3, where no d starts)."""
    jac, d = K.jac, K.dimer
    units = [unit_idempotent(K, v) for v in d.vertices]
    xs = [
        CochainElement(1, {(X, a): JElement.of(jac.canonical_form((a,)))})
        for a in sorted(d.arrow_by_id, key=idkey)
    ]
    # the coefficient of Xbar_y runs from head(y) to tail(y): the rest of a face
    xbars = [
        CochainElement(2, {(XBAR, a): JElement.of(jac.canonical_form(arc))})
        for a, arc, _ in jac.jacobi_relations()
    ]
    out = units + xs + xbars
    for family in (units, xs, xbars):
        total = family[0]
        for c in family[1:]:
            total = total + c
        out.append(total)
    gens = K.generators()
    out += [K.W_cochain(), *gens["x_alpha"].values()]
    out += [*gens["partial_P"].values(), *gens["partial_alpha"].values()]
    out += [c for c, _, _ in gens["psi"].values()]
    return out


@pytest.fixture(scope="module")
def oracle_complexes(complexes, lattice_cover):
    cover = dimer_from_dict(lattice_cover("conifold", 4, 1))
    return dict(complexes, conifold_4x1=KoszulComplex(Jacobi(cover)))


def test_differentials_match_per_call_formulas(oracle_complexes):
    nonzero = {0: 0, 1: 0, 2: 0}
    for name, K in oracle_complexes.items():
        diffs = {0: (K.d0, reference_d0), 1: (K.d1, reference_d1), 2: (K.d2, reference_d2)}
        for c in oracle_inputs(K):
            d, ref = diffs[c.degree]
            got = d(c)
            assert got == ref(K, c), (name, c)
            nonzero[c.degree] += not got.is_zero()
    # every differential is compared on nonzero outputs (on c3 all of them vanish)
    assert min(nonzero.values()) > 0, nonzero


def with_witnesses(c: CochainElement) -> dict:
    """slot -> {(class, witness): coefficient}; class equality ignores witnesses."""
    return {slot: {(cls, cls.witness): k for cls, k in e.terms.items()} for slot, e in c.terms.items()}


def test_d1_terms_are_left_coefficient_right(oracle_complexes):
    # the table composes each Hessian row's left and right parts once; every
    # term of d1 must still be compose(compose(left, c), right), witness included
    for name, K in oracle_complexes.items():
        jac, d = K.jac, K.dimer
        for a in sorted(d.arrow_by_id, key=idkey):
            arrow = jac.canonical_form((a,))
            for coeff in (arrow, PathClass(arrow.tail, arrow.head, arrow.h1, arrow.w0, None)):
                c = CochainElement(1, {(X, a): JElement.of(coeff)})
                got, want = K.d1(c), reference_d1(K, c)
                assert with_witnesses(got) == with_witnesses(want), (name, a, coeff.witness)
                assert all(
                    (cls.witness is None) == (coeff.witness is None)
                    for e in got.terms.values()
                    for cls in e.terms
                ), (name, a)
            if d.tail(a) != d.head(a):
                # a coefficient that does not run from tail(a) to head(a)
                stray = CochainElement(1, {(X, a): JElement.of(jac.idempotent(d.tail(a)))})
                with pytest.raises(JacobiError, match="paths do not compose"):
                    reference_d1(K, stray)
                with pytest.raises(JacobiError, match="paths do not compose"):
                    K.d1(stray)


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_flipped_hessian_row_fails_a_d1_check(name, dimers, monkeypatch):
    # every single-row sign flip must surface in the checks that run d1
    v = KSVerifier(dimers[name], n_max=1)
    K = v.K
    assert v.verify_chain_identities().passed
    for y, rows in K._hessian.items():
        for i, (sign, x, left, right) in enumerate(rows):
            flipped = rows[:i] + [(-sign, x, left, right)] + rows[i + 1 :]
            with monkeypatch.context() as mp:
                mp.setitem(K._hessian, y, flipped)
                failed = {
                    c.name for c in v.verify_chain_identities().checks if c.status == FAIL
                }
            assert "complex.d2d1" in failed or any(
                f.startswith("cocycle.partial_P.") for f in failed
            ), (y, i)


def test_differentials_and_W_reuse_their_classes(dimers, monkeypatch):
    calls = []
    canonical_form = Jacobi.canonical_form

    def counted(self, word):
        calls.append(word)
        return canonical_form(self, word)

    monkeypatch.setattr(Jacobi, "canonical_form", counted)
    for name, d in dimers.items():
        K = KoszulComplex(Jacobi(d))
        calls.clear()
        K.jac.central_W()
        assert len(calls) >= len(d.vertices), name  # the first call builds W
        inputs = oracle_inputs(K)
        gens = K.generators()
        pairs = [(p, c) for p in gens["partial_P"].values() for c, _, _ in gens["psi"].values()]
        calls.clear()
        K.jac.central_W()
        for c in inputs:
            K.d(c)
            if c.degree == 1:
                K.d_W(c)
        for p, c in pairs:
            K.cup(p, c)
        assert calls == [], name


# -- the plain-key kernels against the implementations they replaced -----------
#
# The parent_* functions are d0, d1, d2, d_W, cup and bv_delta_deg3 as they were
# when every term was built as a PathClass and summed in a dict keyed by it.
# That dict keeps the key object of the first term added under a class, even
# after its running total has passed through 0, so each output class carries
# the witness of its first term.  The plain-key kernels must give the same
# terms, coefficients and witnesses.


def _from_sums(degree, sums):
    return CochainElement(degree, {slot: JElement(t) for slot, t in sums.items()})


def parent_d0(K, c: CochainElement):
    """m |-> sum over arrows of (x m - m x) on the arrow slots."""
    compose = K.jac.compose
    sums: dict = {}
    for (kind, v), elem in c.terms.items():
        if kind != UNIT:
            raise HochschildError("degree-0 terms must sit on unit slots")
        for a in K._leaving[v]:
            acls, out = K._arrow_cls[a], sums.setdefault((X, a), {})
            for cls, k in elem.terms.items():
                total = compose(cls, acls)
                out[total] = out.get(total, 0) + k
        for a in K._entering[v]:
            acls, out = K._arrow_cls[a], sums.setdefault((X, a), {})
            for cls, k in elem.terms.items():
                total = compose(acls, cls)
                out[total] = out.get(total, 0) - k
    return _from_sums(1, sums)


def parent_d1(K, c: CochainElement):
    """Hessian sandwich: polygons with one marked corner and the coefficient inserted."""
    sums: dict = {}
    for (kind, y), elem in c.terms.items():
        if kind != X:
            raise HochschildError("degree-1 terms must sit on X slots")
        for sign, x, (tail, head, h1, w0), (left, right) in K._hessian[y]:
            out = sums.setdefault((XBAR, x), {})
            for cls, k in elem.terms.items():
                if left.head != cls.tail or cls.head != right.tail:
                    raise JacobiError("paths do not compose")
                witness = None
                if None not in (left.witness, cls.witness, right.witness):
                    witness = left.witness + cls.witness + right.witness
                total = PathClass(tail, head, vec_add(h1, cls.h1), w0 + cls.w0, witness)
                out[total] = out.get(total, 0) + sign * k
    return _from_sums(2, sums)


def parent_d2(K, c: CochainElement):
    """Commutator with the slot arrow, landing on point slots."""
    compose = K.jac.compose
    d = K.dimer
    sums: dict = {}
    for (kind, y), elem in c.terms.items():
        if kind != XBAR:
            raise HochschildError("degree-2 terms must sit on Xbar slots")
        ycls = K._arrow_cls[y]
        plus = sums.setdefault((PT, d.head(y)), {})
        minus = sums.setdefault((PT, d.tail(y)), {})
        for cls, k in elem.terms.items():
            total = compose(cls, ycls)
            plus[total] = plus.get(total, 0) + k
            total = compose(ycls, cls)
            minus[total] = minus.get(total, 0) - k
    return _from_sums(3, sums)


def parent_bv_delta_deg3(K, word):
    """Cyclic deletion of one arrow at a time; input is a closed traversal."""
    word = tuple(word)
    jac = K.jac
    d = K.dimer
    if word and not d.is_closed(word):
        raise HochschildError(f"{word!r} is not a closed path")
    out = CochainElement.zero(2)
    if not word:
        return out
    n = len(word)
    for i in range(n):
        rest = word[i + 1 :] + word[:i]
        cls = (
            jac.canonical_form(rest)
            if rest
            else jac.idempotent(d.head(word[i]))
        )
        out = out.add_term((XBAR, word[i]), JElement.of(cls))
    return out


def parent_d_W(K, c: CochainElement):
    """Minus the derivation c applied to W: each X_a coefficient spliced into
    the face word of W at each vertex, landing on unit slots."""
    if c.degree != 1:
        raise HochschildError(f"d_W is computed on degree 1, not degree {c.degree}")
    compose = K.jac.compose
    sums: dict = {}
    for v, splits in K._W_splits.items():
        out = sums.setdefault((UNIT, v), {})
        for a, left, right in splits:
            elem = c.terms.get((X, a))
            if elem is None:
                continue
            for cls, k in elem.terms.items():
                total = compose(compose(left, cls), right)
                out[total] = out.get(total, 0) - k
    return _from_sums(0, sums)


def parent_cup(K, a: CochainElement, b: CochainElement):
    """Degree 1 times degree 2: X_e paired with Xbar_e.

    The two coefficients compose to a closed path at tail(e), which is
    added on the point slot there.
    """
    if (a.degree, b.degree) != (1, 2):
        raise HochschildError(f"cup is computed on degrees 1 x 2, not {a.degree} x {b.degree}")
    compose = K.jac.compose
    sums: dict = {}
    for (_, e), x in a.terms.items():
        y = b.terms.get((XBAR, e))
        if y is None:
            continue
        out = sums.setdefault((PT, K.dimer.tail(e)), {})
        for c1, k1 in x.terms.items():
            for c2, k2 in y.terms.items():
                total = compose(c1, c2)
                out[total] = out.get(total, 0) + k1 * k2
    return _from_sums(3, sums)


def random_word(K, rng, u, w, tries=400):
    """A random composable word from u to w of at most 6 arrows, or None."""
    for _ in range(tries):
        v, word = u, []
        for _ in range(rng.randrange(7)):
            a = rng.choice(K._leaving[v])
            word.append(a)
            v = K.dimer.head(a)
        if v == w:
            return tuple(word)
    return None


def random_class_pool(K, rng, u, w, size=3) -> list:
    """Classes of random words from u to w; equal classes may carry different witnesses."""
    jac = K.jac
    pool = []
    for _ in range(size):
        word = random_word(K, rng, u, w)
        if word is not None:
            pool.append(jac.canonical_form(word) if word else jac.idempotent(u))
    return pool


def random_cochain(K, rng, degree, arrows=None) -> CochainElement:
    """A seeded multi-term cochain on up to five slots.

    Coefficients are drawn from small pools, so a class repeats across slots
    and under different witnesses; about a quarter have their witness dropped,
    and some classes cancel and then reappear within their slot (the sum keeps
    the first term's witness).
    """
    d = K.dimer
    if degree == 0:
        slots = [((UNIT, v), (v, v)) for v in d.vertices]
    else:
        kind = X if degree == 1 else XBAR
        chosen = sorted(arrows if arrows is not None else d.arrow_by_id, key=idkey)
        slots = [
            ((kind, a), (d.tail(a), d.head(a)) if degree == 1 else (d.head(a), d.tail(a)))
            for a in chosen
        ]
    terms = []
    for slot, (u, w) in rng.sample(slots, min(len(slots), rng.randint(1, 5))):
        pool = random_class_pool(K, rng, u, w)
        for _ in range(rng.randint(1, 4) if pool else 0):
            cls = rng.choice(pool)
            if rng.random() < 0.25:
                cls = PathClass(cls.tail, cls.head, cls.h1, cls.w0, None)
            k = rng.choice((-2, -1, 1, 2))
            terms.append((slot, cls, k))
            if rng.random() < 0.3:  # cancel it, then add it again under any witness
                terms += [(slot, cls, -k), (slot, rng.choice([p for p in pool if p == cls]), k)]
    return CochainElement.from_terms(degree, terms)


def random_closed_word(K, rng):
    d = K.dimer
    v = rng.choice(d.vertices)
    word = random_word(K, rng, v, v)
    return word or face_word_at(d, v)


def assert_kernels_match_parent(K, rng, label) -> Counter:
    """Every kernel against its parent implementation, witnesses included.

    Returns counts of the nonzero outputs and of the output classes with and
    without a witness, so a caller can tell what was exercised.
    """
    seen = Counter()

    def same(got, want, what):
        assert with_witnesses(got) == with_witnesses(want), (label, what)
        seen["nonzero"] += not got.is_zero()
        for e in got.terms.values():
            for cls in e.terms:
                seen["witness" if cls.witness is not None else "no_witness"] += 1

    inputs = oracle_inputs(K) + [random_cochain(K, rng, deg) for deg in (0, 1, 2) for _ in range(6)]
    diffs = {0: (K.d0, parent_d0), 1: (K.d1, parent_d1), 2: (K.d2, parent_d2)}
    for c in inputs:
        new, parent = diffs[c.degree]
        same(new(c), parent(K, c), c)
        if c.degree == 1:
            same(K.d_W(c), parent_d_W(K, c), ("d_W", c))
    gens = K.generators()
    pairs = [(p, c) for p in gens["partial_P"].values() for c, _, _ in gens["psi"].values()]
    for _ in range(6):
        a = random_cochain(K, rng, 1)
        pairs.append((a, random_cochain(K, rng, 2, [e for _, e in a.terms])))
    for a, b in pairs:
        same(K.cup(a, b), parent_cup(K, a, b), ("cup", a, b))
    d = K.dimer
    words = [(), *(face_word_at(d, v) for v in d.vertices)]
    words += [word for _, _, word in gens["psi"].values()]
    words += [random_closed_word(K, rng) for _ in range(4)]
    for word in words:
        same(K.bv_delta_deg3(word), parent_bv_delta_deg3(K, word), ("bv", word))
    return seen


def stray_inputs(K):
    """(kernel, parent, arguments) whose coefficients do not compose with their slot."""
    jac, d = K.jac, K.dimer
    out = []
    for a in sorted(d.arrow_by_id, key=idkey):
        tail, head = d.tail(a), d.head(a)
        if tail == head:
            continue
        for v in (tail, head):
            x = CochainElement(1, {(X, a): JElement.of(jac.idempotent(v))})
            xbar = CochainElement(2, {(XBAR, a): JElement.of(jac.idempotent(v))})
            out += [(K.d1, parent_d1, (x,)), (K.d_W, parent_d_W, (x,)), (K.d2, parent_d2, (xbar,))]
        x = CochainElement(1, {(X, a): JElement.of(jac.idempotent(tail))})
        xbar = CochainElement(2, {(XBAR, a): JElement.of(jac.idempotent(head))})
        out.append((K.cup, parent_cup, (x, xbar)))
        # on the unit slot at tail, a path from tail to head (m x does not
        # compose) and one from head to tail (m x composes, x m does not)
        for u, w in ((tail, head), (head, tail)):
            word = random_word(K, random.Random(0), u, w)
            m = CochainElement(0, {(UNIT, tail): JElement.of(jac.canonical_form(word))})
            out.append((K.d0, parent_d0, (m,)))
    return out


def outcome(kernel, *args):
    try:
        return with_witnesses(kernel(*args))
    except JacobiError as exc:
        return ("JacobiError", str(exc))


def assert_stray_inputs_match_parent(K, label) -> Counter:
    """Each stray input raises in the kernel exactly when it raises in its parent
    (d_W reads only the face word at each vertex, so some strays never meet a
    check); returns how many raised, per kernel."""
    raised = Counter()
    for new, parent, args in stray_inputs(K):
        got = outcome(new, *args)
        assert got == outcome(parent, K, *args), (label, new.__name__, args)
        raised[f"raised.{new.__name__}"] += got == ("JacobiError", "paths do not compose")
    return raised


KERNEL_COVERAGE = [
    "nonzero", "witness", "no_witness",
    "raised.d0", "raised.d1", "raised.d2", "raised.d_W", "raised.cup",
]


def test_kernels_match_parent_on_oracle_complexes(oracle_complexes):
    rng = random.Random(0)
    seen = Counter()
    for name, K in oracle_complexes.items():
        seen += assert_kernels_match_parent(K, rng, name)
        seen += assert_stray_inputs_match_parent(K, name)
    assert all(seen[key] > 0 for key in KERNEL_COVERAGE), seen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernels_match_parent_on_the_relabeled_zoo(seed, covers):
    rng = random.Random(100 + seed)
    seen = Counter()
    for name, k, l in ORACLE_ZOO:
        raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
        K = KoszulComplex(Jacobi(dimer_from_dict(covers.relabel(raw, random.Random(seed)))))
        seen += assert_kernels_match_parent(K, rng, (name, k, l, seed))
        seen += assert_stray_inputs_match_parent(K, (name, k, l, seed))
    assert all(seen[key] > 0 for key in KERNEL_COVERAGE), seen


def test_cancelled_class_keeps_its_first_witness(complexes):
    # at the point slot of vertex 1 of the conifold, three Xbar slots each add
    # W^2: +1 from b1, -1 from a1 (the running total is 0), +1 from b2.  The
    # class that survives must carry the first term's witness, built from b1.
    K = complexes["conifold"]
    jac, d = K.jac, K.dimer
    w2 = jac.compose(jac.central_W()[1], jac.central_W()[1])
    terms = {}
    for y, k in (("b1", 1), ("a1", -1), ("b2", 1)):
        # the coefficient runs from head(y) to tail(y); with y it composes to
        # W^2 at vertex 1, added with +1 at the head of y and -1 at its tail
        ycls = jac.canonical_form((y,))
        word = jac.realize_path(d.head(y), d.tail(y), vec_sub(w2.h1, ycls.h1), w2.w0 - ycls.w0)
        sign = 1 if d.head(y) == 1 else -1
        terms[(XBAR, y)] = JElement.of(jac.canonical_form(word), sign * k)
    c = CochainElement(2, terms)
    (b1_coefficient,) = terms[(XBAR, "b1")].terms
    got = K.d2(c).terms[(PT, 1)].terms
    assert with_witnesses(K.d2(c)) == with_witnesses(parent_d2(K, c))
    assert {(cls.witness, n) for cls, n in got.items() if cls == w2} == {
        (b1_coefficient.witness + ("b1",), 1)
    }
