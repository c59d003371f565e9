from __future__ import annotations

import copy
import pickle
import random
import re
from collections import Counter

import pytest

from dimermirror import hochschild
from dimermirror.dimer import face_word_at, idkey, vec_add, vec_sub
from dimermirror.hochschild import (
    UNIT,
    X,
    XBAR,
    PT,
    _SLOT_DEGREE,
    CochainElement,
    HochschildError,
    KoszulComplex,
    _ab_order,
)
from dimermirror.io import dimer_from_dict
from dimermirror.jacobi import Jacobi, JacobiError, JElement, PathClass
from dimermirror.ks import FAIL, KSVerifier
from test_jacobi import hessian, parent_hessian_rows
from test_matchings import ORACLE_ZOO


def per_slot(c: CochainElement) -> dict:
    """The flat terms of ``c`` regrouped by slot: {(kind, index): JElement}."""
    kind = hochschild._KINDS[c.degree]
    sums: dict = {}
    for (s, tail, head, h0, h1, w0), k in c.terms.items():
        sums.setdefault((kind, s), {})[PathClass(tail, head, (h0, h1), w0)] = k
    return {slot: JElement(t) for slot, t in sums.items()}


def cochain(degree: int, slots: dict) -> CochainElement:
    """The cochain with JElement coefficient ``slots[slot]`` on each slot; ``per_slot`` inverts it."""
    return CochainElement.from_terms(
        degree, [(slot, cls, k) for slot, e in slots.items() for cls, k in e.terms.items()]
    )


def unit_idempotent(K, v):
    return K.unit_cochain({v: K.jac.idempotent(v)})


def test_d0_of_idempotent_pattern(complexes):
    # the coefficient on each arrow slot is +e when the arrow leaves v and -e
    # when it enters v (both when it is a loop)
    for K in complexes.values():
        d = K.dimer
        for v in d.vertices:
            out = per_slot(K.d0(unit_idempotent(K, v)))
            for a in d.arrow_by_id:
                expect = JElement()
                cls = K.jac.canonical_form((a,))
                if d.tail(a) == v:
                    expect = expect + JElement.of(cls)
                if d.head(a) == v:
                    expect = expect - JElement.of(cls)
                got = out.get((X, a), JElement())
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
            cochain(1, {(X, a.id): JElement.of(K.jac.canonical_form((a.id,)))})
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
    c = cochain(1, {(X, "c"): JElement.of(jac.canonical_form(("d", "c")))})
    assert not K.d1(c).is_zero()


def test_d2_nonzero_sanity(complexes):
    K = complexes["spp"]
    jac = K.jac
    # coefficient from head(g)=3 to tail(g)=1 on the Xbar slot of g
    c = cochain(2, {(XBAR, "g"): JElement.of(jac.canonical_form(("a",)))})
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
            support = {slot[1] for slot in per_slot(out)}
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
    assert set(per_slot(c)) == {(XBAR, "f"), (XBAR, "b")}


def test_theta_count(complexes):
    for K in complexes.values():
        gens = K.generators()
        assert len(gens["theta"]) == len(K.dimer.vertices)


def test_c3_partial_of_singleton_matching(complexes):
    K = complexes["c3"]
    c = K.partial_of_matching(frozenset({"x"}))
    assert per_slot(c) == {(X, "x"): JElement.of(K.jac.canonical_form(("x",)))}


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
            for v, cls in jac.central_x_alpha(eta).items():
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
                    for (kind, u), e in per_slot(out).items():
                        assert kind == PT and set(e.terms) == {xcls_at(u)}
                        total += e.terms[xcls_at(u)]
                    deg = jac.class_degree(xcls_at(v), k)
                    closed_form = cochain(3, {(PT, v): JElement.of(xcls_at(v), deg)})
                    assert cochain(3, {(PT, v): JElement.of(xcls_at(v), total)}) == closed_form


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


def sorted_ab_scan(K) -> tuple:
    """The (a, b) choice by the parent's scan: every pair with |a|, |b| <= N + 1
    built, sorted by |a| + |b| and then (a, b), and the first valid one taken."""
    N = K.n_classes
    m0, m_prev = K.m(K.i0), K.m((K.i0 - 2) % N + 1)
    cands = [(a, b) for a in range(-(N + 1), N + 2) for b in range(-(N + 1), N + 2)]
    cands.sort(key=lambda t: (abs(t[0]) + abs(t[1]), t))
    for a, b in cands:
        if (a, b) != (0, 0) and all(
            a * K.U_eval(eta) + b * K.V_eval(eta) != 0
            and a * m_prev * K.U_eval(eta) + b * m0 * K.V_eval(eta) != 0
            for eta, _ in K.classes
        ):
            return (a, b)
    return None


def test_ab_order_is_the_sorted_order():
    for n in range(1, 9):
        pairs = [(a, b) for a in range(-n, n + 1) for b in range(-n, n + 1) if (a, b) != (0, 0)]
        assert list(_ab_order(n)) == sorted(pairs, key=lambda t: (abs(t[0]) + abs(t[1]), t)), n


def test_choose_ab_matches_the_sorted_scan_on_the_zoo(covers):
    chosen = Counter()
    for name, k, l in ORACLE_ZOO:
        raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
        jac = Jacobi(dimer_from_dict(raw))
        for i0 in range(1, len(jac.corners) + 1):
            K = KoszulComplex(jac, i0)
            assert K._choose_ab() == sorted_ab_scan(K) == K.ab, (name, k, l, i0)
            chosen[K.ab] += 1
    assert len(chosen) > 1, chosen


# -- the differentials against their per-call formulas --------------------------


def reference_d0(K, c):
    jac, d = K.jac, K.dimer
    out = CochainElement(1)
    for (kind, v), elem in per_slot(c).items():
        for a in d.arrow_by_id:
            acls = jac.canonical_form((a,))
            for cls, k in elem.terms.items():
                if d.tail(a) == v:
                    out = out + cochain(1, {(X, a): JElement.of(jac.compose(cls, acls), k)})
                if d.head(a) == v:
                    out = out + cochain(1, {(X, a): JElement.of(jac.compose(acls, cls), -k)})
    return out


def reference_d1(K, c):
    jac, d = K.jac, K.dimer
    out = CochainElement(2)
    for (kind, y), elem in per_slot(c).items():
        for x in d.arrow_by_id:
            for sign, left, right in hessian(d, x, y):
                lcls = jac.canonical_form(left) if left else jac.idempotent(d.head(x))
                rcls = jac.canonical_form(right) if right else jac.idempotent(d.tail(x))
                for cls, k in elem.terms.items():
                    total = jac.compose(jac.compose(lcls, cls), rcls)
                    out = out + cochain(2, {(XBAR, x): JElement.of(total, sign * k)})
    return out


def reference_d2(K, c):
    jac, d = K.jac, K.dimer
    out = CochainElement(3)
    for (kind, y), elem in per_slot(c).items():
        ycls = jac.canonical_form((y,))
        for cls, k in elem.terms.items():
            out = out + cochain(3, {(PT, d.head(y)): JElement.of(jac.compose(cls, ycls), k)})
            out = out + cochain(3, {(PT, d.tail(y)): JElement.of(jac.compose(ycls, cls), -k)})
    return out


def oracle_inputs(K):
    """Unit idempotents, single-arrow X and Xbar cochains, their sums, and the
    generators of positive codegree (theta sits in degree 3, where no d starts)."""
    jac, d = K.jac, K.dimer
    units = [unit_idempotent(K, v) for v in d.vertices]
    xs = [
        cochain(1, {(X, a): JElement.of(jac.canonical_form((a,)))})
        for a in sorted(d.arrow_by_id, key=idkey)
    ]
    # the coefficient of Xbar_y runs from head(y) to tail(y): the rest of a face
    xbars = [
        cochain(2, {(XBAR, a): JElement.of(jac.canonical_form(arc))})
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


def test_d1_terms_are_left_coefficient_right(oracle_complexes):
    # the table composes each Hessian row's left and right parts once; every
    # term of d1 must still be compose(compose(left, c), right)
    for name, K in oracle_complexes.items():
        jac, d = K.jac, K.dimer
        for a in sorted(d.arrow_by_id, key=idkey):
            c = cochain(1, {(X, a): JElement.of(jac.canonical_form((a,)))})
            assert K.d1(c) == reference_d1(K, c), (name, a)
            if d.tail(a) != d.head(a):
                # a coefficient that does not run from tail(a) to head(a)
                stray = cochain(1, {(X, a): JElement.of(jac.idempotent(d.tail(a)))})
                with pytest.raises(JacobiError, match="paths do not compose"):
                    reference_d1(K, stray)
                with pytest.raises(JacobiError, match="paths do not compose"):
                    K.d1(stray)


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_hessian_rows_match_the_parent_split_on_the_zoo(seed, covers):
    # the complex's rows are the reference's splits of each face boundary at
    # y, as a multiset of (sign, x, left class, right class)
    for name, k, l in ORACLE_ZOO:
        raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
        d = dimer_from_dict(raw if seed is None else covers.relabel(raw, random.Random(seed)))
        K = KoszulComplex(Jacobi(d))
        jac = K.jac
        for y in d.arrow_ids:
            want = Counter(
                (
                    sign,
                    x,
                    jac.canonical_form(left) if left else jac.idempotent(d.head(x)),
                    jac.canonical_form(right) if right else jac.idempotent(d.tail(x)),
                )
                for sign, x, left, right in parent_hessian_rows(d, y)
            )
            lh, rt, rows = K._hessian[y]
            assert (lh, rt) == (d.tail(y), d.head(y)), (name, k, l, seed, y)
            got = Counter((sign, x, left, right) for sign, x, *_, left, right in rows)
            assert got == want, (name, k, l, seed, y)


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_flipped_hessian_row_fails_a_d1_check(name, dimers, monkeypatch):
    # every single-row sign flip must surface in the checks that run d1
    v = KSVerifier(dimers[name])
    K = v.K
    assert v.verify_chain_identities().passed
    # one row per ordered pair of distinct positions on a face
    rows = sum(len(f.boundary) * (len(f.boundary) - 1) for f in K.dimer.faces)
    assert sum(len(rows) for _, _, rows in K._hessian.values()) == rows
    for y, (lh, rt, rows) in K._hessian.items():
        for i, (sign, *rest) in enumerate(rows):
            flipped = rows[:i] + [(-sign, *rest)] + rows[i + 1 :]
            with monkeypatch.context() as mp:
                mp.setitem(K._hessian, y, (lh, rt, flipped))
                failed = {
                    c.name for c in v.verify_chain_identities().checks if c.status == FAIL
                }
            assert "complex.d2d1" in failed or any(
                f.startswith("cocycle.partial_P.") for f in failed
            ), (y, i)


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_flipped_W_row_fails_a_dW_check(name, dimers, monkeypatch):
    # every single-row sign flip of d_W must surface in the dW rows of the verifier
    v = KSVerifier(dimers[name])
    K = v.K
    assert v.verify_chain_identities().passed
    for a, (lh, rt, rows) in K._W_rows.items():
        for i, (sign, *rest) in enumerate(rows):
            flipped = rows[:i] + [(-sign, *rest)] + rows[i + 1 :]
            with monkeypatch.context() as mp:
                mp.setitem(K._W_rows, a, (lh, rt, flipped))
                failed = {
                    c.name for c in v.verify_chain_identities().checks if c.status == FAIL
                }
            assert any(f.startswith("dW.") for f in failed), (a, i)


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
            (K.d0, K.d1, K.d2)[c.degree](c)
            if c.degree == 1:
                K.d_W(c)
        for p, c in pairs:
            K.cup(p, c)
        assert calls == [], name


# -- the plain-key kernels against the implementations they replaced -----------
#
# The parent_* functions are d0, d1, d2, d_W, cup and bv_delta_deg3 as they were
# when every term was built as a PathClass and summed in a dict keyed by it.
# The plain-key kernels must give the same classes and coefficients.


def _from_sums(degree, sums):
    return cochain(degree, {slot: JElement(t) for slot, t in sums.items()})


def parent_d0(K, c: CochainElement):
    """m |-> sum over arrows of (x m - m x) on the arrow slots."""
    compose = K.jac.compose
    sums: dict = {}
    for (kind, v), elem in per_slot(c).items():
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
    """Hessian sandwich: polygons with one marked corner and the coefficient inserted.

    The rows are ``parent_hessian_rows``, split from the face words here, not
    the complex's table under test.
    """
    jac, d = K.jac, K.dimer
    sums: dict = {}
    for (kind, y), elem in per_slot(c).items():
        if kind != X:
            raise HochschildError("degree-1 terms must sit on X slots")
        for sign, x, left, right in parent_hessian_rows(d, y):
            left = jac.canonical_form(left) if left else jac.idempotent(d.head(x))
            right = jac.canonical_form(right) if right else jac.idempotent(d.tail(x))
            out = sums.setdefault((XBAR, x), {})
            for cls, k in elem.terms.items():
                if left.head != cls.tail or cls.head != right.tail:
                    raise JacobiError("paths do not compose")
                total = PathClass(
                    left.tail,
                    right.head,
                    vec_add(vec_add(left.h1, cls.h1), right.h1),
                    left.w0 + cls.w0 + right.w0,
                )
                out[total] = out.get(total, 0) + sign * k
    return _from_sums(2, sums)


def parent_d2(K, c: CochainElement):
    """Commutator with the slot arrow, landing on point slots."""
    compose = K.jac.compose
    d = K.dimer
    sums: dict = {}
    for (kind, y), elem in per_slot(c).items():
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
    out = CochainElement(2)
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
        out = out + cochain(2, {(XBAR, word[i]): JElement.of(cls)})
    return out


def parent_d_W(K, c: CochainElement):
    """Minus the derivation c applied to W: each X_a coefficient spliced into
    the face word of W at each vertex, landing on unit slots."""
    if c.degree != 1:
        raise HochschildError(f"d_W is computed on degree 1, not degree {c.degree}")
    jac = K.jac
    compose = jac.compose
    coefficients = per_slot(c)
    sums: dict = {}
    for v in K.dimer.vertices:
        word = face_word_at(K.dimer, v)
        out = sums.setdefault((UNIT, v), {})
        for p, a in enumerate(word):
            elem = coefficients.get((X, a))
            if elem is None:
                continue
            left = jac.canonical_form(word[:p]) if p else jac.idempotent(v)
            right = jac.canonical_form(word[p + 1 :]) if p + 1 < len(word) else jac.idempotent(v)
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
    xbar = per_slot(b)
    sums: dict = {}
    for (_, e), x in per_slot(a).items():
        y = xbar.get((XBAR, e))
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
    """Classes of random words from u to w; the pool may repeat a class."""
    jac = K.jac
    pool = []
    for _ in range(size):
        word = random_word(K, rng, u, w)
        if word is not None:
            pool.append(jac.canonical_form(word) if word else jac.idempotent(u))
    return pool


def random_cochain(K, rng, degree, arrows=None) -> CochainElement:
    """A seeded multi-term cochain on up to five slots.

    Coefficients are drawn from small pools, so a class repeats across slots,
    and some classes cancel and then reappear within their slot.
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
            k = rng.choice((-2, -1, 1, 2))
            terms.append((slot, cls, k))
            if rng.random() < 0.3:  # cancel it, then add it again
                terms += [(slot, cls, -k), (slot, cls, k)]
    return CochainElement.from_terms(degree, terms)


def random_closed_word(K, rng):
    d = K.dimer
    v = rng.choice(d.vertices)
    word = random_word(K, rng, v, v)
    return word or face_word_at(d, v)


def assert_kernels_match_parent(K, rng, label) -> Counter:
    """Every kernel against its parent implementation.

    Returns the count of nonzero outputs per kernel, so a caller can tell
    what was exercised.
    """
    seen = Counter()

    def same(got, want, what):
        assert got == want, (label, what)
        seen[f"nonzero.{what[0]}"] += not got.is_zero()

    inputs = oracle_inputs(K) + [random_cochain(K, rng, deg) for deg in (0, 1, 2) for _ in range(6)]
    diffs = {0: (K.d0, parent_d0), 1: (K.d1, parent_d1), 2: (K.d2, parent_d2)}
    for c in inputs:
        new, parent = diffs[c.degree]
        same(new(c), parent(K, c), (new.__name__, c))
        if c.degree == 1:
            same(K.d_W(c), parent_d_W(K, c), ("d_W", c))
    gens = K.generators()
    pairs = [(p, c) for p in gens["partial_P"].values() for c, _, _ in gens["psi"].values()]
    for _ in range(6):
        a = random_cochain(K, rng, 1)
        pairs.append((a, random_cochain(K, rng, 2, [e for _, e in per_slot(a)])))
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
            x = cochain(1, {(X, a): JElement.of(jac.idempotent(v))})
            xbar = cochain(2, {(XBAR, a): JElement.of(jac.idempotent(v))})
            out += [(K.d1, parent_d1, (x,)), (K.d_W, parent_d_W, (x,)), (K.d2, parent_d2, (xbar,))]
        x = cochain(1, {(X, a): JElement.of(jac.idempotent(tail))})
        xbar = cochain(2, {(XBAR, a): JElement.of(jac.idempotent(head))})
        out.append((K.cup, parent_cup, (x, xbar)))
        # Xbar_a with two classes of different tails: one runs back from
        # head(a) to tail(a) around a face, the other starts at tail(a)
        f = d.faces[d.pos_face_of(a)].boundary
        j = f.index(a)
        back = jac.canonical_form(f[j + 1 :] + f[:j])
        mixed = cochain(2, {(XBAR, a): JElement({back: 1, jac.idempotent(tail): 1})})
        x = cochain(1, {(X, a): JElement.of(K._arrow_cls[a])})
        out.append((K.cup, parent_cup, (x, mixed)))
        # on the unit slot at tail, a path from tail to head (m x does not
        # compose) and one from head to tail (m x composes, x m does not)
        for u, w in ((tail, head), (head, tail)):
            word = random_word(K, random.Random(0), u, w)
            m = cochain(0, {(UNIT, tail): JElement.of(jac.canonical_form(word))})
            out.append((K.d0, parent_d0, (m,)))
    return out


def outcome(kernel, *args):
    try:
        return kernel(*args)
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
    "nonzero.d0", "nonzero.d1", "nonzero.d2", "nonzero.d_W", "nonzero.cup", "nonzero.bv",
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


@pytest.mark.parametrize("name", ["conifold", "spp"])
def test_a_row_that_disagrees_with_its_slot_is_refused_at_build(name, jacobis, monkeypatch):
    # negative control of the constructor's check: the first row of one slot
    # gets a left class that ends at another vertex, so the slot's rows
    # disagree, and building the table must raise and name that slot; every
    # slot of every table is corrupted in turn
    jac = jacobis[name]
    d = jac.dimer
    table = hochschild._table
    slots = []

    def record(slot, lh, rt, rows):
        slots.append((slot, bool(rows)))
        return table(slot, lh, rt, rows)

    monkeypatch.setattr(hochschild, "_table", record)
    KoszulComplex(jac)
    assert len(slots) == len(d.vertices) + 3 * len(d.arrow_ids)
    corrupted = 0
    for n, (slot, has_rows) in enumerate(slots):
        if not has_rows:
            continue
        calls = iter(range(len(slots)))

        def corrupt(slot, lh, rt, rows):
            if next(calls) == n:
                sign, out, *_, left, right = rows[0]
                wrong = next(v for v in d.vertices if v != left.head)
                rows = [hochschild._row(sign, out, PathClass(left.tail, wrong, left.h1, left.w0), right), *rows[1:]]
            return table(slot, lh, rt, rows)

        monkeypatch.setattr(hochschild, "_table", corrupt)
        with pytest.raises(HochschildError, match=re.escape(f"a row of slot {slot} does not put")):
            KoszulComplex(jac)
        corrupted += 1
    assert corrupted >= len(d.vertices) + 2 * len(d.arrow_ids)


@pytest.mark.parametrize("kind", [UNIT, X, XBAR])
def test_an_unknown_slot_is_a_named_error(kind, complexes):
    # d0, d1, d2, d_W and cup name the slot they do not know, rather than
    # raising KeyError or adding nothing
    K = complexes["conifold"]
    jac = K.jac
    v = K.base_vertex
    c = cochain(_SLOT_DEGREE[kind], {(kind, "nope"): JElement.of(jac.idempotent(v))})
    kernels = {UNIT: [K.d0], X: [K.d1, K.d_W], XBAR: [K.d2]}[kind]
    if kind == X:
        a = next(iter(K.dimer.arrow_ids))
        xbar = cochain(2, {(XBAR, a): JElement.of(jac.idempotent(K.dimer.head(a)))})
        kernels.append(lambda c: K.cup(c, xbar))
        kernels.append(lambda c: K.cup(c, CochainElement(2)))
    if kind == XBAR:
        # b's unknown slot is named although no X slot of a pairs with it
        kernels.append(lambda c: K.cup(K.partial_P(1), c))
    for kernel in kernels:
        with pytest.raises(HochschildError, match=re.escape(f"no {kind} slot 'nope' in this complex")):
            kernel(c)


def test_an_unknown_slot_kind_is_a_named_error(jacobis):
    # from_terms names the slot, whether its kind is unknown or of another
    # degree, for a JElement per slot as for a list of terms
    e = JElement.of(jacobis["c3"].idempotent("v"))
    cls = next(iter(e.terms))
    for slot, degree in ((("Y", "a"), 1), ((X, "x"), 2)):
        message = re.escape(f"slot {slot!r} is not a degree-{degree} slot")
        with pytest.raises(HochschildError, match=message):
            cochain(degree, {slot: e})
        with pytest.raises(HochschildError, match=message):
            CochainElement.from_terms(degree, [(slot, cls, 1)])


def test_cup_refuses_a_coefficient_away_from_the_tail(oracle_complexes):
    # X_a's coefficient must start at tail(a); the parent composed any two
    # coefficients that meet, and put the product on the point slot at tail(a)
    K = oracle_complexes["conifold"]
    jac, d = K.jac, K.dimer
    a = next(a for a in d.arrow_ids if d.tail(a) != d.head(a))
    x = cochain(1, {(X, a): JElement.of(jac.idempotent(d.head(a)))})
    xbar = cochain(2, {(XBAR, a): JElement.of(jac.idempotent(d.head(a)))})
    assert not parent_cup(K, x, xbar).is_zero()
    with pytest.raises(JacobiError, match="paths do not compose"):
        K.cup(x, xbar)


def test_cancelled_class_is_added_again(complexes):
    # at the point slot of vertex 1 of the conifold, three Xbar slots each add
    # W^2: +1 from b1, -1 from a1 (the running total is 0), +1 from b2
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
    c = cochain(2, terms)
    assert K.d2(c) == parent_d2(K, c)
    assert per_slot(K.d2(c))[(PT, 1)].terms[w2] == 1


def test_every_cochain_sum_agrees_on_a_cancelled_class(complexes):
    # A + (-A) + A' with A == A' the classes of two different words: every
    # way of writing the sum gives the one term A' with coefficient 1
    K = complexes["c3"]
    jac = K.jac
    A, A2 = jac.canonical_form(("x", "y", "z")), jac.canonical_form(("x", "z", "y"))
    assert A == A2
    slot = (UNIT, K.base_vertex)
    parts = [JElement.of(A), JElement.of(A, -1), JElement.of(A2)]
    singles = [cochain(0, {slot: p}) for p in parts]
    sums = {
        "from_terms": CochainElement.from_terms(0, [(slot, A, 1), (slot, A, -1), (slot, A2, 1)]),
        "sum_of": CochainElement.sum_of(0, singles),
        "+": singles[0] + singles[1] + singles[2],
        "JElement +": cochain(0, {slot: parts[0] + parts[1] + parts[2]}),
    }
    for how, c in sums.items():
        assert c == cochain(0, {slot: JElement.of(A2)}), how
        assert per_slot(c)[slot].terms == {A2: 1}, how


# -- cochains as values ----------------------------------------------------------


def cochain_samples(K) -> dict:
    """A generator cochain, a kernel output and a cup product of K, each nonzero."""
    gens = K.generators()
    cups = (K.cup(p, c) for p in gens["partial_P"].values() for c, _, _ in gens["psi"].values())
    return {
        "partial_P": gens["partial_P"][1],
        "theta": gens["theta"][K.base_vertex],
        "d_W": K.d_W(gens["partial_P"][1]),
        "cup": next(c for c in cups if not c.is_zero()),
    }


def test_cochains_survive_copy_deepcopy_and_pickle(complexes):
    for name, K in complexes.items():
        for what, c in cochain_samples(K).items():
            assert not c.is_zero(), (name, what)
            clones = {
                "copy": copy.copy(c),
                "deepcopy": copy.deepcopy(c),
                "pickle": pickle.loads(pickle.dumps(c)),
            }
            for how, clone in clones.items():
                assert clone is not c and clone == c and hash(clone) == hash(c), (name, what, how)
                assert (clone.degree, clone.terms) == (c.degree, c.terms), (name, what, how)
            assert clones["deepcopy"].terms is not c.terms and clones["pickle"].terms is not c.terms


def test_one_class_is_one_cochain_however_it_is_reached(complexes):
    # W at tail(a) on the point slot there, from a JElement per slot, from_terms,
    # sum_of (2 W, nothing and -W) and the cup of a X_a with the rest of a face
    # on Xbar_a: equal cochains with equal hashes
    for name, K in complexes.items():
        jac, d = K.jac, K.dimer
        for a, arc, _ in jac.jacobi_relations():
            v = d.tail(a)
            w = jac.central_W()[v]
            slot = (PT, v)
            twice = CochainElement.from_terms(3, [(slot, w, 2)])
            minus_one = cochain(3, {slot: JElement.of(w, -1)})
            xbar = cochain(2, {(XBAR, a): JElement.of(jac.canonical_form(arc))})
            ways = {
                "per_slot": cochain(3, {slot: JElement.of(w)}),
                "from_terms": CochainElement.from_terms(3, [(slot, w, 1)]),
                "sum_of": CochainElement.sum_of(3, [twice, CochainElement(3), minus_one]),
                "cup": K.cup(K.partial_of_matching((a,)), xbar),
            }
            first = ways["per_slot"]
            assert per_slot(first) == {slot: JElement.of(w)}, (name, a)
            for how, c in ways.items():
                assert c == first and hash(c) == hash(first), (name, a, how)
