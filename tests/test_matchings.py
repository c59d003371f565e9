from __future__ import annotations

import pytest

from dimermirror.matchings import (
    corner_matchings_in_order,
    corner_structure,
    enumerate_perfect_matchings,
    evaluate_on_chain,
    generating_cycles,
    matching_height,
    matching_polytope,
)


def test_c3_matchings(dimers):
    pms = enumerate_perfect_matchings(dimers["c3"])
    assert [p.key() for p in pms] == [("x",), ("y",), ("z",)]


def test_conifold_matchings(dimers):
    pms = enumerate_perfect_matchings(dimers["conifold"])
    assert [p.key() for p in pms] == [("a1",), ("a2",), ("b1",), ("b2",)]


def test_spp_matchings_include_boundary_pair(dimers):
    keys = {p.key() for p in enumerate_perfect_matchings(dimers["spp"])}
    assert ("a", "e") in keys and ("c", "g") in keys
    assert len(keys) == 6


def test_every_face_matched_once(dimers):
    for d in dimers.values():
        for p in enumerate_perfect_matchings(d):
            for f in d.faces:
                assert sum(1 for e in f.boundary if e in p.edges) == 1


def test_height_of_reference_is_zero(dimers):
    for d in dimers.values():
        pms = enumerate_perfect_matchings(d)
        assert matching_height(d, pms[0], pms[0]) == (0, 0)


def test_generating_cycle_classes(dimers):
    for d in dimers.values():
        chains = generating_cycles(d)
        for chain, expect in zip(chains, [(1, 0), (0, 1)]):
            total = (0, 0)
            for aid, coeff in chain.items():
                s = d.shift(aid)
                total = (total[0] + coeff * s[0], total[1] + coeff * s[1])
            assert total == expect
            boundary = {v: 0 for v in d.vertices}
            for aid, coeff in chain.items():
                boundary[d.head(aid)] += coeff
                boundary[d.tail(aid)] -= coeff
            assert set(boundary.values()) == {0}


def test_height_independent_of_cycle_choice(dimers):
    # adding a face boundary to a generating chain must not change any height
    for d in dimers.values():
        pms = enumerate_perfect_matchings(d)
        chains = generating_cycles(d)
        face = d.faces[0]
        altered = dict(chains[0])
        for aid in face.boundary:
            altered[aid] = altered.get(aid, 0) + 1
        for p in pms:
            old = evaluate_on_chain(p.edges, chains[0])
            new = evaluate_on_chain(p.edges, altered)
            assert new - old == 1  # exactly one matched edge per face boundary
            base = evaluate_on_chain(pms[0].edges, chains[0])
            base_new = evaluate_on_chain(pms[0].edges, altered)
            assert (new - base_new) == (old - base)


@pytest.mark.parametrize(
    "name, bcount, icount, area",
    [("c3", 3, 0, 1), ("conifold", 4, 0, 2), ("spp", 5, 0, 3)],
)
def test_polytope_shape(dimers, name, bcount, icount, area):
    mp = matching_polytope(dimers[name])
    assert mp.boundary_count == bcount
    assert mp.interior_count == icount
    assert mp.normalized_area == area


def test_hull_edges_match_classes(dimers):
    for d in dimers.values():
        mp = matching_polytope(d)
        assert len(mp.edges) == len({e.class_index for e in mp.edges})
        for e in mp.edges:
            assert e.normal != (0, 0)


def test_corner_structure_all_classes(dimers):
    for d in dimers.values():
        mp = matching_polytope(d)
        for i in range(1, len(mp.edges) + 1):
            sr = corner_structure(d, i, mp)
            assert not sr.shared & frozenset(
                a for mset in sr.family_matchings for a in mset.edges
            ) - sr.shared
            assert len(sr.family_matchings) == 2 ** next(
                e.lattice_length for e in mp.edges if e.class_index == i
            )


def test_corner_chaining(dimers):
    # the zag corner of class i is the zig corner of class i+1
    for d in dimers.values():
        mp = matching_polytope(d)
        n = len(mp.edges)
        order = corner_matchings_in_order(mp)
        for i in range(1, n + 1):
            sr = corner_structure(d, i, mp)
            assert sr.zig_corner.edges == order[i - 1].edges
            assert sr.zag_corner.edges == order[i % n].edges


def test_spp_boundary_matchings_between_P3_P4(dimers):
    d = dimers["spp"]
    mp = matching_polytope(d)
    sr = corner_structure(d, 3, mp)
    strict = {
        p.edges
        for p in sr.family_matchings
        if p.edges not in (sr.zig_corner.edges, sr.zag_corner.edges)
    }
    assert strict == {frozenset({"a", "e"}), frozenset({"c", "g"})}
    # both sit at the single interior lattice point of the edge
    heights = {
        h for h, ps in mp.points.items() if any(p.edges in strict for p in ps)
    }
    assert len(heights) == 1
    assert heights.pop() in sr.edge_points


def test_corner_uniqueness(dimers):
    for d in dimers.values():
        mp = matching_polytope(d)
        for h in mp.hull:
            assert len(mp.points[h]) == 1


def test_boundary_points_equal_total_multiplicity(dimers):
    # B = sum over classes of the parallel multiplicities m_i
    from dimermirror import parallel_classes

    for d in dimers.values():
        mp = matching_polytope(d)
        total = sum(len(members) for _, members in parallel_classes(d))
        assert mp.boundary_count == total
        assert sum(e.lattice_length for e in mp.edges) == total
