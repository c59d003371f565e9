from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from dimermirror.dimer import _face_structure, idkey
from dimermirror.io import dimer_from_dict
from dimermirror.mirror_sh import E, F, P_EDGE, MirrorSH, SHElement, UNIT_LABEL
from test_matchings import ORACLE_ZOO


def test_basis_counts_c3(sh_models):
    sh = sh_models["c3"]
    b = sh.sh_basis(2)
    assert b.odd_rank == 2
    assert len(b.e_labels) == 6 and len(b.f_labels) == 6


@pytest.mark.parametrize("name, rank", [("c3", 2), ("conifold", 3), ("spp", 4)])
def test_odd_rank(sh_models, name, rank):
    assert sh_models[name].sh_basis(1).odd_rank == rank


def test_odd_rank_identity(sh_models, dimers):
    for name, sh in sh_models.items():
        b = sh.sh_basis(1)
        assert b.odd_rank == len(dimers[name].vertices) + 1


def test_winding_products(sh_models):
    sh = sh_models["spp"]
    e1 = SHElement.of(E(3, 1, 1))
    e2 = SHElement.of(E(3, 1, 2))
    assert sh.mul(e1, e2) == SHElement.of(E(3, 1, 3))
    assert sh.mul(e1, SHElement.of(E(3, 2, 1))).is_zero()
    assert sh.mul(e1, SHElement.of(F(3, 1, 1))) == SHElement.of(F(3, 1, 2))
    assert sh.mul(SHElement.of(F(3, 1, 1)), SHElement.of(F(3, 1, 5))).is_zero()
    unit = SHElement.of(UNIT_LABEL)
    assert sh.mul(unit, e1) == e1


def test_pairing_row_property(sh_models):
    for sh in sh_models.values():
        for e in sh.dimer.arrow_by_id:
            occurrences = []
            for key, z in sh.cycles.items():
                occurrences += [+1] * sum(1 for a in z.zigs if a == e)
                occurrences += [-1] * sum(1 for a in z.zags if a == e)
            assert sorted(occurrences) == [-1, 1]
            # consequence: total pairing over all punctures vanishes
            assert sum(sh.pairing(e, key) for key in sh.cycles) == 0


def test_ring_axioms_on_label_triples(sh_models):
    sh = sh_models["conifold"]
    labels = [UNIT_LABEL, E(1, 1, 1), E(2, 1, 1), F(1, 1, 1), P_EDGE("a1"), P_EDGE("b2")]
    parity = {l: 0 if l[0] in ("unit", "E") else 1 for l in labels}
    for a, b, c in itertools.product(labels, repeat=3):
        lhs = sh.mul(sh.mul(SHElement.of(a), SHElement.of(b)), SHElement.of(c))
        rhs = sh.mul(SHElement.of(a), sh.mul(SHElement.of(b), SHElement.of(c)))
        assert lhs == rhs, (a, b, c)
    for a, b in itertools.product(labels, repeat=2):
        ab = sh.mul(SHElement.of(a), SHElement.of(b))
        ba = sh.mul(SHElement.of(b), SHElement.of(a))
        sign = -1 if parity[a] and parity[b] else 1
        assert ab == ba.scale(sign), (a, b)


def test_p_pairing_against_corner_differences(sh_models, complexes):
    for name, sh in sh_models.items():
        K = complexes[name]
        od = sh.distinguished_odd(1)
        m0 = sh.m[1]
        m_prev = sh.m[(1 - 2) % sh.n_classes + 1]
        for i in range(1, sh.n_classes + 1):
            eta = K.eta(i)
            assert sh.odd_pairing_vector(od["p"], i) == [m0 * K.V_eval(eta)] * sh.m[i]
            assert sh.odd_pairing_vector(od["q"], i) == [m_prev * K.U_eval(eta)] * sh.m[i]


def test_xi_base_vertex_is_zero(sh_models):
    for sh in sh_models.values():
        od = sh.distinguished_odd(1)
        assert sh.xi_from_path(od["xi_path"][sh.dimer.vertices[0]]).is_zero()
        for v in sh.dimer.vertices:
            assert v in od["xi_path"]


def test_c3_p_q_rank_two(sh_models):
    sh = sh_models["c3"]
    od = sh.distinguished_odd(1)
    rows = []
    for elem in (od["p"], od["q"]):
        row = []
        for i in range(1, sh.n_classes + 1):
            row.extend(sh.odd_pairing_vector(elem, i))
        rows.append(row)
    # the two pairing vectors on the three punctures span a rank-2 lattice
    mat = list(zip(*rows))
    rank2 = any(
        mat[i][0] * mat[j][1] - mat[i][1] * mat[j][0] != 0
        for i in range(3)
        for j in range(3)
    )
    assert rank2


def test_alpha_xi_product_structure(sh_models):
    # alpha_{i,j'} . xi equals the pairing multiple of the odd winding class
    sh = sh_models["spp"]
    path = sh.xi_for_strip([2, 3])
    assert path is not None
    xi = sh.xi_from_path(path)
    for j in (1, 2):
        got = sh.mul(xi, SHElement.of(E(3, j, 1)))
        expect = SHElement.of(F(3, j, 1), sh.odd_pairing_vector(xi, 3)[j - 1])
        assert got == expect


def on_one_lap(sh, path) -> bool:
    """Whether path is a prefix of some zigzag cycle's word, rotated, of at most one lap."""
    return any(
        len(path) <= len(w) and (w[s:] + w[:s])[: len(path)] == path
        for w in (z.arrows for z in sh.cycles.values())
        for s in range(len(w))
    )


def test_zigzag_paths_are_deterministic(sh_models):
    for sh in sh_models.values():
        a = sh.zigzag_paths_from(sh.dimer.vertices[0])
        b = sh.zigzag_paths_from(sh.dimer.vertices[0])
        assert a == b
        assert all(on_one_lap(sh, p) for p in a)


def reference_zigzag_paths(d, v0) -> list:
    """Every zigzag path by breadth-first search, then one sort on the whole rank tuple."""
    cap = 4 * len(d.arrows)
    next_pos, next_neg = _face_structure(d)[2:4]
    paths = []
    frontier = deque()
    for a in d.arrow_by_id:
        if d.tail(a) == v0:
            for phase in (0, 1):
                frontier.append(((a,), phase))
                paths.append((a,))
    while frontier:
        path, phase = frontier.popleft()
        if len(path) < cap:
            nxt = next_pos[path[-1]] if phase == 0 else next_neg[path[-1]]
            paths.append(path + (nxt,))
            frontier.append((path + (nxt,), 1 - phase))
    rank = {a: r for r, a in enumerate(sorted(d.arrow_by_id, key=idkey))}
    return sorted(set(paths), key=lambda p: (len(p), tuple(rank[x] for x in p)))


def first_path_per_vertex(d, paths) -> list:
    """The first path into each vertex, in the order of ``paths``."""
    first = {}
    for p in paths:
        first.setdefault(d.head(p[-1]), p)
    return list(first.values())


# (name, k, l): 1 x 1 is the bundled dimer itself
ZIGZAG_PATH_ZOO = [
    ("c3", 1, 1), ("conifold", 1, 1), ("spp", 1, 1),
    ("c3", 2, 1), ("c3", 3, 1), ("c3", 1, 2), ("c3", 2, 2), ("c3", 3, 3),
    ("spp", 2, 1), ("spp", 1, 2), ("spp", 2, 2),
    ("conifold", 2, 1), ("conifold", 4, 1), ("conifold", 1, 4), ("conifold", 2, 2), ("conifold", 3, 2),
]


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("name,k,l", ZIGZAG_PATH_ZOO)
def test_zigzag_paths_level_order_matches_one_sort(name, k, l, seed, covers):
    raw = covers.cover(covers.load_base(name), k, l) if (k, l) != (1, 1) else covers.load_base(name)
    if seed is not None:
        raw = covers.relabel(raw, random.Random(seed))
    d = dimer_from_dict(raw)
    sh = MirrorSH(d)
    assert sh.base_paths == first_path_per_vertex(d, reference_zigzag_paths(d, d.vertices[0]))
    for v in d.vertices:
        assert sh.zigzag_paths_from(v) == first_path_per_vertex(d, reference_zigzag_paths(d, v)), v


def zig_minus_zag_count(sh, edge, puncture) -> int:
    """The pairing as a rescan of the cycle's zigs and zags."""
    z = sh.cycles[puncture]
    return sum(1 for a in z.zigs if a == edge) - sum(1 for a in z.zags if a == edge)


@pytest.mark.parametrize("seed", [None, 0])
@pytest.mark.parametrize("name,k,l", ORACLE_ZOO)
def test_pairing_table_matches_the_zig_zag_count(name, k, l, seed, covers):
    raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
    if seed is not None:
        raw = covers.relabel(raw, random.Random(seed))
    sh = MirrorSH(dimer_from_dict(raw))
    for e in sh.dimer.arrow_by_id:
        for key in sh.cycles:
            assert sh.pairing(e, key) == zig_minus_zag_count(sh, e, key), (e, key)
    key = min(sh.cycles)
    assert sh.pairing("no such arrow", key) == zig_minus_zag_count(sh, "no such arrow", key) == 0
    with pytest.raises(KeyError):
        sh.pairing(next(iter(sh.dimer.arrow_by_id)), (0, 0))
