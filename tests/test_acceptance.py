"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact (integer arithmetic, zero tolerance).
"""

from __future__ import annotations

import pytest

from dimermirror import (
    Arrow,
    Dimer,
    Face,
    dimer_isomorphic,
    dual_dimer,
    is_zigzag_consistent,
    load_bundled,
    surface_invariants,
    zigzag_cycles,
)
from dimermirror.dimer import cyclic_equal, idkey
from dimermirror.matchings import enumerate_perfect_matchings, matching_polytope
from test_jacobi import pm_degree
from test_matchings import corner_structure

NAMES = ("c3", "conifold", "spp")


def verdict(num: int, ok: bool, text: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}", flush=True)
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_structure_suite(dimers):
    ok = True
    for d in dimers.values():
        ok = ok and d.validate().ok
        consistent, _ = is_zigzag_consistent(d)
        ok = ok and consistent
        ok = ok and dimer_isomorphic(dual_dimer(dual_dimer(d)), d)
    spp = dimers["spp"]
    cycles = zigzag_cycles(spp)
    expected = [("f", "b"), ("a", "d", "c", "f"), ("e", "c"), ("g", "a"), ("d", "g", "b", "e")]
    ok = ok and len(cycles) == 5
    for w in expected:
        ok = ok and any(cyclic_equal(w, z.arrows) for z in cycles)
    ok = ok and len({z.class_index for z in cycles}) == 4
    ec = next(z for z in cycles if cyclic_equal(z.arrows, ("e", "c")))
    ga = next(z for z in cycles if cyclic_equal(z.arrows, ("g", "a")))
    ok = ok and ec.class_index == ga.class_index
    verdict(1, ok, "validation, consistency, double duality; five known cycles with ec || ga")


def test_criterion_2_topology_pick(dimers):
    ok = True
    got = {}
    for name, d in dimers.items():
        mp = matching_polytope(d)
        g, n, _ = surface_invariants(dual_dimer(d))
        got[name] = (g, n)
        ok = ok and g == mp.interior_count
        ok = ok and n == mp.boundary_count
        ok = ok and len(d.vertices) == 2 * mp.interior_count + mp.boundary_count - 2
    ok = ok and got["spp"] == (0, 5) and got["c3"] == (0, 3)
    verdict(2, ok, f"g = I, N = B, |Q0| = 2I + B - 2 exactly; invariants {got}")


def test_criterion_3_matching_structure(dimers):
    ok = True
    for d in dimers.values():
        mp = matching_polytope(d)
        for h in mp.hull:
            ok = ok and len(mp.points[h]) == 1  # unique corner representative
        for i in range(1, len(mp.edges) + 1):
            sr = corner_structure(d, i, mp)  # raises on any structure failure
            edge = next(e for e in mp.edges if e.class_index == i)
            ok = ok and len(sr.family_matchings) == 2 ** edge.lattice_length
    spp = dimers["spp"]
    mp = matching_polytope(spp)
    sr = corner_structure(spp, 3, mp)
    strict = {
        frozenset(p.edges)
        for p in sr.family_matchings
        if p.edges not in (sr.zig_corner.edges, sr.zag_corner.edges)
    }
    ok = ok and strict == {frozenset({"a", "e"}), frozenset({"c", "g"})}
    verdict(3, ok, "corner/boundary matching structure exact; boundary matchings {a,e}, {c,g}")


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


class _UF:
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


def test_criterion_4_jacobi_calculus(dimers, jacobis):
    ok = True
    for name, jac in jacobis.items():
        pms = enumerate_perfect_matchings(dimers[name])
        for e, lhs, rhs in jac.jacobi_relations():
            for p in pms:
                ok = ok and pm_degree(jac, lhs, p) == pm_degree(jac, rhs, p)
    # oracle agreement: the rewrite-closure partition (cap 10) equals the
    # canonical-form partition on all composable words of length <= 6
    max_len, cap = 6, 10
    for name, jac in jacobis.items():
        words = _composable_words(jac.dimer, cap)
        relations = jac.jacobi_relations()
        rules = []
        for _, lhs, rhs in relations:
            rules.append((lhs, rhs))
        uf = _UF()
        for w in words:
            uf.find(w)
            for src, dst in rules:
                n = len(src)
                if len(w) - n + len(dst) > cap:
                    continue
                for i in range(len(w) - n + 1):
                    if w[i : i + n] == src:
                        uf.union(w, w[:i] + dst + w[i + n :])
        short = [w for w in words if len(w) <= max_len]
        canon_to_root, root_to_canon = {}, {}
        agree = True
        for w in short:
            c = jac.canonical_form(w)
            r = uf.find(w)
            if canon_to_root.setdefault(c, r) != r or root_to_canon.setdefault(r, c) != c:
                agree = False
                break
        ok = ok and agree
    verdict(4, ok, f"degree invariance under rewrites; oracle agreement on words <= {max_len} (cap {cap})")


def test_criterion_5_hochschild_suite(verifiers):
    ok = True
    for v in verifiers.values():
        rep = v.verify_chain_identities()
        ok = ok and rep.passed
    verdict(5, ok, "complex property, cocycle suite, closed forms of the second differential, matching unit identity")


def test_criterion_6_ks_dimension_theorem(verifiers):
    ok = True
    for v in verifiers.values():
        rep = v.verify_dimension_match()
        ok = ok and rep.passed
        for c in rep.checks:
            if c.name.startswith("det.") and "sh_image" not in c.name:
                ok = ok and c.detail["det"] in (1, -1)
    verdict(6, ok, "even/odd counts match on every (class, winding <= 10); correspondence matrices unimodular")


def test_criterion_7_singularity_report(verifiers):
    expected = {"c3": (0, 0), "conifold": (0, 1), "spp": (1, 2)}
    ok = True
    for name, v in verifiers.items():
        rep = v.singularity_report()
        ok = ok and rep.passed
        psi_families = sum(
            1
            for c in rep.checks
            if c.name.startswith("singularity.edge.") and c.detail["psi_families"] > 0
        )
        theta = next(
            c.detail["theta_classes"]
            for c in rep.checks
            if c.name == "singularity.fixed_point"
        )
        ok = ok and (psi_families, theta) == expected[name]
    verdict(7, ok, f"psi families / theta classes per dimer: {expected}")


def _corrupt(kind: str) -> Dimer:
    d = load_bundled("spp")
    arrows, faces = list(d.arrows), list(d.faces)
    if kind == "sign":
        faces[0] = Face(-1, faces[0].boundary)
    elif kind == "shift":
        a = arrows[2]
        arrows[2] = Arrow(a.id, a.tail, a.head, (2, -1))
    elif kind == "boundary":
        b = list(faces[3].boundary)
        b[0], b[2] = b[2], b[0]
        faces[3] = Face(-1, tuple(b))
    return Dimer("spp_corrupt_" + kind, d.vertices, tuple(arrows), tuple(faces))


def test_criterion_8_negative_controls():
    ok = True
    details = {}
    for kind in ("sign", "shift", "boundary"):
        d = _corrupt(kind)
        rep = d.validate()
        failed = not rep.ok and bool(rep.issues)
        if rep.ok:
            consistent, witness = is_zigzag_consistent(d)
            failed = not consistent and witness is not None
        details[kind] = "validation" if not rep.ok else "consistency"
        ok = ok and failed
    verdict(8, ok, f"corrupted inputs rejected with witnesses ({details})")
