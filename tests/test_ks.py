from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from dimermirror import Arrow, Dimer, Face, load_bundled
from dimermirror import ks
from dimermirror.cli import main
from dimermirror.dimer import idkey, strips
from dimermirror.hochschild import X, XBAR, E2Label, KoszulComplex
from dimermirror.io import dimer_from_dict
from dimermirror.jacobi import Jacobi, JElement, PathClass
from dimermirror.ks import ENUMERATION_GATE, FAIL, PASS, SKIP, KSVerifier, det_int
from dimermirror.matchings import matching_basis
from dimermirror.mirror_sh import MirrorSH
from test_hochschild import cochain, per_slot
from test_matchings import mirrored


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
    images = v.ks_even_images(10)
    assert all(img["image"].kind == "x_eta" for img in images)  # no psi on c3


def test_ks_even_images_spp(verifiers):
    v = verifiers["spp"]
    images = v.ks_even_images(10)
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
        images = v.ks_odd_images(10)
        kinds = [img["source"]["kind"] for img in images]
        assert kinds.count("q") == 1 and kinds.count("p") == 1
        xi0 = [img for img in images if img["source"]["kind"] == "xi"]
        assert len(xi0) == len(v.dimer.vertices) - 1
        for img in images:
            assert img["lift"] != "missing"


def test_c3_odd_positive_winding_has_no_theta(verifiers):
    v = verifiers["c3"]
    for img in v.ks_odd_images(10):
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


# -- ks.p.chain under both orientations of the embedding -------------------------

MIRRORED = [("c3", 1, 1), ("conifold", 1, 1), ("spp", 1, 1), ("c3", 2, 2), ("spp", 2, 1), ("conifold", 4, 1), ("c3", 3, 3)]


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("name,k,l", MIRRORED)
def test_mirrored_dimers_pass_verify(name, k, l, seed, covers):
    # every y shift negated reverses the orientation of the embedding, which
    # flips the sign between zigs - zags and the corner derivations
    raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
    if seed is not None:
        raw = covers.relabel(raw, random.Random(seed))
    rep = KSVerifier(dimer_from_dict(mirrored(raw))).verify_all()
    assert [c.name for c in rep.checks if c.status == FAIL] == []


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_ks_p_chain_fails_under_the_wrong_orientation(name, dimers, monkeypatch, covers):
    # the bundled files have orientation -1; reading +1 must fail the row,
    # and so must reading -1 on the mirrored file
    for d, wrong in ((dimers[name], 1), (dimer_from_dict(mirrored(covers.load_base(name))), -1)):
        monkeypatch.setattr(ks, "_orientation", lambda _, sigma=wrong: sigma)
        assert failed_chain_rows(KSVerifier(d), "ks.p.chain") == ({"ks.p.chain"}, {"ks.p.chain"})


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
    v = KSVerifier(dimers[name])
    K = v.K
    assert not failed_chain_rows(v, "dW.")[0]
    partial_P = K.partial_P
    dropped = arrow_on_W_word(v.dimer, K.jac.corners[0].edges)

    def without_one_arrow(i):
        c = partial_P(i)
        if i != 1:
            return c
        return cochain(1, {s: e for s, e in per_slot(c).items() if s != (X, dropped)})

    monkeypatch.setattr(K, "partial_P", without_one_arrow)
    assert "dW.partial_P.1" in failed_chain_rows(v, "dW.partial_P.")[0]


SUPPORT_ZOO = [("c3", 1, 1), ("conifold", 1, 1), ("spp", 1, 1), ("c3", 2, 2), ("spp", 2, 1), ("conifold", 4, 1)]


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("name, k, l", SUPPORT_ZOO)
def test_dW_theta_support_rows_match_a_scan_of_every_face(
    name, k, l, corrupt, lattice_cover, monkeypatch
):
    # the rows try only the faces of the arrows leaving v; a scan of every face
    # with an arrow leaving v gives the same status, also when one arrow's
    # slot is dropped from Delta(W theta_v) and no face matches
    v = KSVerifier(dimer_from_dict(lattice_cover(name, k, l)))
    d, K = v.dimer, v.K
    d_W_theta = K.d_W_theta

    def dropped(u):
        terms = per_slot(d_W_theta(u))
        first = next(iter(terms))
        return cochain(2, {s: e for s, e in terms.items() if s != first})

    if corrupt:
        monkeypatch.setattr(K, "d_W_theta", dropped)
    rows = {c.name: c for c in v.verify_chain_identities().checks}
    for u in d.vertices:
        support = {s for s, *_ in K.d_W_theta(u).terms}
        on_a_face = any(
            support == set(f.boundary) and any(d.tail(a) == u for a in f.boundary) for f in d.faces
        )
        assert on_a_face is not corrupt, (name, k, l, u)
        row = rows[f"dW.theta.{u}.support"]
        assert row.status == (PASS if on_a_face else FAIL), (name, k, l, u)
        assert row.detail == sorted(support, key=d.arrow_rank.__getitem__), (name, k, l, u)


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_dW_partial_alpha_fails_on_a_shifted_coefficient(name, dimers, monkeypatch):
    v = KSVerifier(dimers[name])
    K = v.K
    partial_alpha = K.partial_alpha

    def shifted(alpha):
        c = partial_alpha(alpha)
        terms = per_slot(c)
        e = arrow_on_W_word(v.dimer, {a for _, a in terms})
        (cls, k), = terms[(X, e)].terms.items()
        terms[(X, e)] = JElement.of(PathClass(cls.tail, cls.head, cls.h1, cls.w0 + 1), k)
        return cochain(1, terms)

    monkeypatch.setattr(K, "partial_alpha", shifted)
    failed, rows = failed_chain_rows(v, "dW.partial_alpha.")
    assert rows and failed == rows


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_cup_partialP_psi_fails_on_a_wrong_degree(name, dimers, monkeypatch):
    v = KSVerifier(dimers[name])
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


# -- the per-arrow d1 table, the matching basis and the enumeration gate ---------


def cover_dimer(lattice_cover, name, k, l) -> Dimer:
    return dimer_from_dict(lattice_cover(name, k, l))


def rows(rep, prefix: str) -> list:
    return [c for c in rep.checks if c.name.startswith(prefix)]


@pytest.mark.parametrize("k", [3, 4])
def test_chain_identities_compute_each_d1_image_once(k, lattice_cover, monkeypatch):
    # d1 runs on the d0 images of the units, the x_alpha and W, on each
    # single-arrow derivation, and on each partial_P and partial_alpha: not
    # once more per cocycle row, nor once per perfect matching
    d = cover_dimer(lattice_cover, "c3", k, k)
    v = KSVerifier(d)
    n = v.K.n_classes
    assert len(v.K.generators()["partial_alpha"]) == n == 3
    calls = []
    d1 = KoszulComplex.d1

    def counted(self, c):
        calls.append(c)
        return d1(self, c)

    monkeypatch.setattr(KoszulComplex, "d1", counted)
    assert v.verify_chain_identities().passed
    assert len(calls) == len(d.vertices) + len(d.arrows) + 3 * n + 1  # 46 on 3x3, 74 on 4x4


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_a_corrupted_arrow_image_fails_its_matching_rows(name, dimers, monkeypatch):
    v = KSVerifier(dimers[name])
    K, jac = v.K, v.jac
    basis = matching_basis(v.dimer)
    arrow = sorted(basis.matchings[0].edges, key=idkey)[0]
    # an Xbar coefficient runs from head to tail: the rest of a face
    arc = next(pos for a, pos, _ in jac.jacobi_relations() if a == arrow)
    extra = cochain(2, {(XBAR, arrow): JElement.of(jac.canonical_form(arc))})
    d1 = K.d1

    def corrupted(c):
        image = d1(c)
        return image + extra if set(per_slot(c)) == {(X, arrow)} else image

    monkeypatch.setattr(K, "d1", corrupted)
    rep = v.verify_chain_identities()
    units = rows(rep, "matching_unit.")
    assert len(units) == basis.rank
    for c in units:
        has_arrow = arrow in c.name.split(".")[1:]
        assert (c.status == FAIL) == has_arrow, c.name
    assert any(c.status == FAIL for c in units)


def test_verify_normalises_each_word_once(lattice_cover, monkeypatch):
    calls = []
    canonical_form = Jacobi.canonical_form

    def counted(self, word):
        calls.append(tuple(word))
        return canonical_form(self, word)

    monkeypatch.setattr(Jacobi, "canonical_form", counted)
    for d in (load_bundled("spp"), cover_dimer(lattice_cover, "conifold", 4, 1)):
        calls.clear()
        assert KSVerifier(d).verify_all().passed
        assert calls and len(calls) == len(set(calls)), d.name


def test_a_dropped_alternating_arc_fails_the_basis_rank(monkeypatch):
    from dimermirror import matchings

    # without its first arc, P0's alternating digraph keeps one ear of four
    arcs = matchings._alternating_arcs
    v = KSVerifier(load_bundled("spp"))
    monkeypatch.setattr(matchings, "_alternating_arcs", lambda d, p0: arcs(d, p0)[1:])
    rank, = rows(v.verify_chain_identities(), "matching_basis.rank")
    assert rank.status == FAIL and rank.detail == {"rank": 2, "dim_W": 5}
    # enumeration finds the three dimensions that the basis misses
    count, = rows(v.verify_matching_count(), "matchings.count")
    assert count.status == FAIL and count.detail == {"kasteleyn": 6, "enumerated": 6, "rank": 5}


@pytest.mark.parametrize("name", ["c3", "conifold", "spp"])
def test_a_walk_through_two_ear_cycles_fails_its_matching_row(name, monkeypatch):
    from dimermirror import matchings

    # the second ear closes through the first cycle, so the two share a face,
    # where they leave or enter by different arrows besides P0's one arrow:
    # P0 flipped along the walk through both takes two arrows on that face
    ears = matchings._ear_cycles

    def merged(n, arcs):
        first, second, *rest = ears(n, arcs)
        return [first, first + second, *rest]

    monkeypatch.setattr(matchings, "_ear_cycles", merged)
    rep = KSVerifier(load_bundled(name)).verify_chain_identities()
    failed = [c.name for c in rows(rep, "matching_unit.") if c.status == FAIL]
    assert len(failed) == 1, failed
    rank, = rows(rep, "matching_basis.rank")
    assert rank.status == PASS


@pytest.mark.parametrize("name,k,l", [("c3", 2, 2), ("spp", 2, 1), ("conifold", 4, 1)])
def test_a_flipped_kasteleyn_sign_fails_the_matching_count(name, k, l, lattice_cover, monkeypatch):
    from dimermirror import matchings

    d = cover_dimer(lattice_cover, name, k, l)
    v = KSVerifier(d)
    count, = rows(v.verify_matching_count(), "matchings.count")
    assert count.status == PASS and count.detail["kasteleyn"] == count.detail["enumerated"]
    solved = matchings.kasteleyn_signs(d)
    for a in sorted(d.arrow_by_id, key=idkey):
        if d.tail(a) == d.head(a):
            continue  # a loop's sign enters its vertex's product squared
        monkeypatch.setattr(matchings, "kasteleyn_signs", lambda _, a=a: {**solved, a: -solved[a]})
        assert matchings.kasteleyn_count(d) != count.detail["enumerated"], a
    count, = rows(v.verify_matching_count(), "matchings.count")
    assert count.status == FAIL and count.detail["kasteleyn"] != count.detail["enumerated"]


def test_a_kasteleyn_sum_off_a_multiple_of_4_fails_the_matching_count(monkeypatch):
    from dimermirror import matchings

    v = KSVerifier(load_bundled("spp"))
    dets = iter([1, 0, 0, 0])
    monkeypatch.setattr(matchings, "det_int", lambda _: next(dets))
    count, = rows(v.verify_matching_count(), "matchings.count")
    assert count.status == FAIL and "not a multiple of 4" in count.detail["error"]


@pytest.mark.parametrize("k,status", [(4, PASS), (5, SKIP)])
def test_verify_past_the_enumeration_gate(k, status, lattice_cover):
    # c3 4x4 has 417 perfect matchings and runs the enumeration oracles;
    # c3 5x5 has 7,623 and skips them, with a report of the same shape
    d = cover_dimer(lattice_cover, "c3", k, k)
    rep = KSVerifier(d).verify_all()
    assert rep.passed, [c for c in rep.checks if c.status == FAIL]
    count, = rows(rep, "matchings.count")
    assert count.status == status
    assert count.detail["kasteleyn"] == {4: 417, 5: 7623}[k]
    assert (k > 4) == (count.detail["kasteleyn"] > ENUMERATION_GATE)
    assert len(rows(rep, "matching_unit.")) <= len(d.vertices) + 2


def test_ks_odd_images_find_each_strip_path_once(lattice_cover, tmp_path, monkeypatch):
    path = tmp_path / "conifold_4x1.json"
    path.write_text(json.dumps(lattice_cover("conifold", 4, 1)))
    v = KSVerifier(dimer_from_dict(lattice_cover("conifold", 4, 1)))
    # the images as listed with one strip-path search per (class, strip, n)
    a, b = v.K.ab
    n_max = 10
    expected = [img for img in v.ks_odd_images(n_max) if img["source"]["kind"] in ("q", "p", "xi")]
    for i in range(1, v.sh.n_classes + 1):
        sd = v.K.strips[i]
        for n in range(1, n_max + 1):
            expected.append({"source": {"kind": "alpha_w", "i": i, "n": n, "ab": (a, b)},
                             "image": E2Label("xW", i=i, n=n), "lift": "canonical"})
            for j in range(2, len(sd.strips) + 1):
                p = v.sh.xi_for_strip(sd.strips[j - 1])
                expected.append({"source": {"kind": "alpha_xi", "i": i, "j": j, "n": n, "path": p},
                                 "image": E2Label("theta", i=i, j=j, n=n),
                                 "lift": "canonical" if p else "missing"})
    assert v.ks_odd_images(n_max) == expected
    calls = []
    xi_for_strip = MirrorSH.xi_for_strip

    def counted(self, strip):
        calls.append(strip)
        return xi_for_strip(self, strip)

    monkeypatch.setattr(MirrorSH, "xi_for_strip", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", str(path)]) == 0
    # 2 classes with 4 strips: 6 strips past the first, each searched once
    # per verifier and read by both the determinants and the odd images
    assert len(calls) == 6


def test_a_xi_path_into_the_wrong_strip_fails_the_odd_determinants(lattice_cover, monkeypatch):
    # every strip's xi path replaced by the path into strip 2 of the strip's
    # own class: on conifold 4x1 classes 2 and 4 have four strips each, so
    # their odd rows repeat and the strip each path ends in repeats; classes 1
    # and 3 have one strip and no path
    xi_for_strip = MirrorSH.xi_for_strip

    def strip_two(self, strip):
        i = next(i for i in range(1, self.n_classes + 1) if strip in strips(self.dimer, i).strips)
        return xi_for_strip(self, strips(self.dimer, i).strips[1])

    monkeypatch.setattr(MirrorSH, "xi_for_strip", strip_two)
    rep = KSVerifier(dimer_from_dict(lattice_cover("conifold", 4, 1))).verify_all()
    failed = {c.name for c in rep.checks if c.status == FAIL}
    assert failed == {"det.odd.ks.i2", "det.odd.ks.i4", "det.odd.sh_image.i2", "det.odd.sh_image.i4"}
    assert all(c.status in (PASS, SKIP) for c in rep.checks if c.name not in failed)


# -- the winding-zero and strip-image rows as identities -------------------------

XI_ZOO = [("conifold", 1, 1), ("spp", 1, 1), ("conifold", 4, 1), ("spp", 2, 1), ("c3", 4, 5)]


def zoo_verifier(name, k, l, lattice_cover) -> KSVerifier:
    # the bundled c3 has one vertex and no xi_v, so its 4x5 cover stands in
    d = load_bundled(name) if (k, l) == (1, 1) else cover_dimer(lattice_cover, name, k, l)
    return KSVerifier(d)


@pytest.mark.parametrize("name,k,l", XI_ZOO)
def test_negated_telescoped_thetas_fail_the_winding_zero_row(name, k, l, lattice_cover, monkeypatch):
    # every xi_v telescoped to e_{v0} - e_v: -1 times the identity is still
    # unimodular, but no xi_v goes to its Theta_v
    telescoped = KSVerifier._telescoped_theta

    def negated(self, path):
        return {v: -c for v, c in telescoped(self, path).items()}

    monkeypatch.setattr(KSVerifier, "_telescoped_theta", negated)
    v = zoo_verifier(name, k, l, lattice_cover)
    rep = v.verify_all()
    failed = [c for c in rep.checks if c.status == FAIL]
    assert [c.name for c in failed] == ["det.odd.winding0"]
    v0 = v.K.base_vertex
    assert failed[0].detail == {"theta": {u: {u: -1, v0: 1} for u in v.dimer.vertices if u != v0}}


@pytest.mark.parametrize("name,k,l", XI_ZOO)
def test_a_xi_path_without_its_first_arrow_fails_the_winding_zero_row(name, k, l, lattice_cover):
    # the longest xi_v now starts one arrow after the base vertex, so it
    # telescopes to e_v minus that arrow's head, or to 0 if it had one arrow
    v = zoo_verifier(name, k, l, lattice_cover)
    paths = v.odd["xi_path"]
    longest = max(v.dimer.vertices, key=lambda u: len(paths[u]))
    first, *rest = paths[longest]
    v.odd = {**v.odd, "xi_path": {**paths, longest: tuple(rest)}}
    rep = v.verify_all()
    failed = [c for c in rep.checks if c.status == FAIL]
    assert [c.name for c in failed] == ["det.odd.winding0"]
    expected = {longest: 1, v.dimer.head(first): -1} if rest else {}
    assert failed[0].detail == {"theta": {longest: expected}}


@pytest.mark.parametrize("name,k,l", [("c3", 4, 5), ("conifold", 4, 1)])
def test_verify_takes_no_determinant_larger_than_a_class(name, k, l, lattice_cover, monkeypatch):
    # the winding-zero and strip-image matrices are identities and are not
    # built; what is left is m_i-square (the Kasteleyn count reads its own)
    v = zoo_verifier(name, k, l, lattice_cover)
    sizes = []
    det = ks.det_int

    def recorded(mat):
        sizes.append(len(mat))
        return det(mat)

    monkeypatch.setattr(ks, "det_int", recorded)
    assert v.verify_all().passed
    assert sizes and max(sizes) <= max(v.sh.m.values()), sizes
