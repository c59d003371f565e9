from __future__ import annotations

import pytest

from dimermirror import Arrow, Dimer, Face, load_bundled
from dimermirror.hochschild import X, CochainElement
from dimermirror.jacobi import Jacobi, JElement, PathClass
from dimermirror.ks import FAIL, KSVerifier, det_int


def test_det_int():
    assert det_int([]) == 1
    assert det_int([[5]]) == 5
    assert det_int([[1, 1], [1, 0]]) == -1
    assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det_int([[1, 2], [2, 4]]) == 0


def test_verify_all_passes(verifiers):
    for name, v in verifiers.items():
        rep = v.verify_all()
        assert rep.passed, [c for c in rep.checks if c.status == "fail"]


def test_dimension_counts_match(verifiers):
    for v in verifiers.values():
        rep = v.verify_dimension_match()
        for c in rep.checks:
            assert c.status == "pass", c


def test_determinants_are_unimodular(verifiers):
    for v in verifiers.values():
        rep = v.verify_dimension_match()
        for c in rep.checks:
            if c.name.startswith("det.") and "sh_image" not in c.name:
                assert c.detail["det"] in (1, -1), c
            if c.name.startswith("coefficient.c."):
                assert c.detail["c"] != 0


def test_ks_even_images_c3(verifiers):
    v = verifiers["c3"]
    images = v.ks_even_images()
    assert all(img["image"].kind == "x_eta" for img in images)  # no psi on c3


def test_ks_even_images_spp(verifiers):
    v = verifiers["spp"]
    images = v.ks_even_images()
    psi_imgs = [img for img in images if img["image"].kind == "psi"]
    assert {(img["image"].i, img["image"].j) for img in psi_imgs} == {(3, 2)}
    alpha3 = next(
        img
        for img in images
        if img["source"]["kind"] == "alpha" and img["source"]["i"] == 3 and img["source"]["n"] == 1
    )
    assert len(alpha3["source"]["labels"]) == 2  # two parallel orbits summed


def test_ks_odd_images(verifiers):
    for name, v in verifiers.items():
        images = v.ks_odd_images()
        kinds = [img["source"]["kind"] for img in images]
        assert kinds.count("q") == 1 and kinds.count("p") == 1
        xi0 = [img for img in images if img["source"]["kind"] == "xi"]
        assert len(xi0) == len(v.dimer.vertices) - 1
        for img in images:
            assert img["lift"] != "missing"


def test_c3_odd_positive_winding_has_no_theta(verifiers):
    v = verifiers["c3"]
    for img in v.ks_odd_images():
        if img["source"]["kind"] == "alpha_xi":
            pytest.fail("single-vertex dimer must have no positive-winding theta")


def test_singularity_reports(verifiers):
    expected = {
        "c3": (0, 0),  # no psi families, no theta classes: smooth
        "conifold": (0, 1),
        "spp": (1, 2),
    }
    for name, v in verifiers.items():
        rep = v.singularity_report()
        psi_families = 0
        theta = None
        for c in rep.checks:
            assert c.status == "pass", c
            if c.name.startswith("singularity.edge."):
                psi_families += 1 if c.detail["psi_families"] > 0 else 0
            if c.name == "singularity.fixed_point":
                theta = c.detail["theta_classes"]
        assert (psi_families, theta) == expected[name]


def test_chain_identities(verifiers):
    for v in verifiers.values():
        rep = v.verify_chain_identities()
        assert rep.passed, [c for c in rep.checks if c.status == "fail"]


def test_report_has_skipped_dw_psi(verifiers):
    rep = verifiers["c3"].verify_all()
    assert any(c.status == "skipped" and c.name == "dW.psi" for c in rep.checks)


# -- negative controls for the d_W and cup rows ----------------------------------


def failed_chain_rows(v: KSVerifier, prefix: str) -> tuple:
    """(failed, all) names of the chain-identity rows that start with prefix."""
    rows = [c for c in v.verify_chain_identities().checks if c.name.startswith(prefix)]
    return {c.name for c in rows if c.status == FAIL}, {c.name for c in rows}


def arrow_on_W_word(d: Dimer, edges) -> object:
    """The arrow of a perfect matching on the first face through the base vertex."""
    v0 = d.vertices[0]
    face = next(f for f in d.faces if any(d.tail(a) == v0 for a in f.boundary))
    return next(a for a in face.boundary if a in edges)


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_dW_partial_P_fails_on_a_dropped_arrow(name, dimers, monkeypatch):
    v = KSVerifier(dimers[name], n_max=1)
    K = v.K
    assert not failed_chain_rows(v, "dW.")[0]
    partial_P = K.partial_P
    dropped = arrow_on_W_word(v.dimer, K.jac.corners[0].edges)

    def without_one_arrow(i):
        c = partial_P(i)
        if i != 1:
            return c
        return CochainElement(1, {s: e for s, e in c.terms.items() if s != (X, dropped)})

    monkeypatch.setattr(K, "partial_P", without_one_arrow)
    assert "dW.partial_P.1" in failed_chain_rows(v, "dW.partial_P.")[0]


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_dW_partial_alpha_fails_on_a_shifted_coefficient(name, dimers, monkeypatch):
    v = KSVerifier(dimers[name], n_max=1)
    K = v.K
    partial_alpha = K.partial_alpha

    def shifted(alpha):
        c = partial_alpha(alpha)
        e = arrow_on_W_word(v.dimer, {a for _, a in c.terms})
        (cls, k), = c.terms[(X, e)].terms.items()
        terms = dict(c.terms)
        terms[(X, e)] = JElement.of(PathClass(cls.tail, cls.head, cls.h1, cls.w0 + 1), k)
        return CochainElement(1, terms)

    monkeypatch.setattr(K, "partial_alpha", shifted)
    failed, rows = failed_chain_rows(v, "dW.partial_alpha.")
    assert rows and failed == rows


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_cup_partialP_psi_fails_on_a_wrong_degree(name, dimers, monkeypatch):
    v = KSVerifier(dimers[name], n_max=1)
    class_degree = Jacobi.class_degree

    def off_by_one_at_corner_1(self, cls, k):
        return class_degree(self, cls, k) + (k == 1)

    monkeypatch.setattr(Jacobi, "class_degree", off_by_one_at_corner_1)
    failed, rows = failed_chain_rows(v, "cup.partialP1.psi.")
    assert rows and failed == rows


def corrupted_spp(kind: str) -> Dimer:
    d = load_bundled("spp")
    arrows = list(d.arrows)
    faces = list(d.faces)
    if kind == "sign":
        faces[0] = Face(-1, faces[0].boundary)
    elif kind == "shift":
        a = arrows[0]
        arrows[0] = Arrow(a.id, a.tail, a.head, (1, 1))
    elif kind == "boundary":
        b = list(faces[0].boundary)
        b[0], b[1] = b[1], b[0]
        faces[0] = Face(+1, tuple(b))
    return Dimer("spp_corrupt", d.vertices, tuple(arrows), tuple(faces))


@pytest.mark.parametrize("kind", ["sign", "shift", "boundary"])
def test_negative_controls(kind):
    d = corrupted_spp(kind)
    rep = d.validate()
    assert not rep.ok
    assert rep.issues  # a concrete witness is reported


def test_ring_compatibility_spot_checks(verifiers, sh_models):
    # multiplying winding families is compatible with the image bookkeeping:
    # alpha_i^n alpha_i^m sums to alpha_i^{n+m}, and alpha_i^n tau_{i,j}
    # reproduces tau at winding n+1
    from dimermirror.mirror_sh import E as E_label, SHElement

    for name, v in verifiers.items():
        sh = sh_models[name]
        for i in range(1, sh.n_classes + 1):
            m = sh.m[i]
            alpha = lambda n: sum(
                (SHElement.of(E_label(i, j, n)) for j in range(1, m + 1)), SHElement()
            )
            assert sh.mul(alpha(2), alpha(3)) == alpha(5)
            for j in range(2, m + 1):
                tau = lambda n: sum(
                    (SHElement.of(E_label(i, l, n)) for l in range(1, j)), SHElement()
                )
                assert sh.mul(alpha(1), tau(1)) == tau(2)
