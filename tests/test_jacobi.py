from __future__ import annotations

import random
from collections import Counter, deque

import pytest

from dimermirror.dimer import Arrow, Dimer, DimerError, dot, idkey, vec_sub
from dimermirror.io import dimer_from_dict
from dimermirror.jacobi import Jacobi, JacobiError, PathClass
from dimermirror.matchings import PerfectMatching, enumerate_perfect_matchings
from test_matchings import ORACLE_ZOO


# -- references the package no longer carries ----------------------------------


def cyclic_arc(word: tuple, start: int, stop: int) -> tuple:
    """Entries strictly between positions start and stop, walking forward cyclically."""
    n = len(word)
    out = []
    pos = (start + 1) % n
    while pos != stop:
        out.append(word[pos])
        pos = (pos + 1) % n
    return tuple(out)


def both_ways(relations: list) -> list:
    """The (source, target) rules lhs -> rhs and rhs -> lhs of ``Jacobi.jacobi_relations()``."""
    return [rule for _, lhs, rhs in relations for rule in ((lhs, rhs), (rhs, lhs))]


def rewrite_neighbors(word: tuple, rules: list, cap: int) -> list:
    """Words reachable by one rewrite with a (source, target) rule of ``rules``, length-capped."""
    out = []
    for src, dst in rules:
        if len(word) - len(src) + len(dst) > cap:
            continue
        n = len(src)
        for i in range(len(word) - n + 1):
            if word[i : i + n] == src:
                out.append(word[:i] + dst + word[i + n :])
    return out


def reduce_oracle(jac: Jacobi, word: tuple, cap: int) -> set:
    """Breadth-first closure of a composable word under single rewrites (length <= cap)."""
    assert jac.dimer.is_composable(word) and len(word) <= cap
    rules = both_ways(jac.jacobi_relations())
    seen = {word}
    frontier = deque([word])
    while frontier:
        for nb in rewrite_neighbors(frontier.popleft(), rules, cap):
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen


def parent_hessian_rows(d: Dimer, y) -> list:
    """Every split of a face boundary at an occurrence of y: (sign, x, left, right).

    Each other position of the face gives one row, with x the arrow there.
    ``left`` runs from the head of x to the tail of y and ``right`` from the
    head of y to the tail of x; the x and y occurrences themselves are
    discarded (distinct positions, even when x == y).  The index arithmetic
    of the package's Hessian before the Koszul complex built its rows from
    the face words itself.
    """
    out = []
    for f in d.faces:
        word = f.boundary
        for j, a in enumerate(word):
            if a != y:
                continue
            for l, x in enumerate(word):
                if l != j:
                    out.append((f.sign, x, cyclic_arc(word, l, j), cyclic_arc(word, j, l)))
    return out


def hessian(d: Dimer, x, y) -> list:
    """Second cyclic derivative: the (sign, left, right) rows of ``parent_hessian_rows`` at x.

    A reference that tests compare the Koszul differentials against.
    """
    return [(sign, left, right) for sign, b, left, right in parent_hessian_rows(d, y) if b == x]


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


def test_relations_have_two_terms(complexes):
    # each arrow's Hessian rows split its two faces, one of each sign, around
    # every other position
    for name, K in complexes.items():
        d = K.dimer
        for y, (_, _, rows) in K._hessian.items():
            want = Counter()
            for fi in (d.pos_face_of(y), d.neg_face_of(y)):
                f = d.faces[fi]
                j = f.boundary.index(y)
                want.update((f.sign, x) for x in f.boundary[j + 1 :] + f.boundary[:j])
            assert Counter((sign, x) for sign, x, *_ in rows) == want, (name, y)


def test_c3_hessian(complexes):
    K = complexes["c3"]
    jac = K.jac
    z, e = jac.canonical_form(("z",)), jac.idempotent("v")
    got = Counter((sign, left, right) for sign, x, *_, left, right in K._hessian["y"][2] if x == "x")
    assert got == Counter([(-1, e, z), (1, z, e)])


def test_hessian_c_compose_j_is_zero(complexes):
    # the Koszul maps satisfy c(j(sum of idempotent pairs)) = 0; slotwise the
    # commutator of each arrow with the Hessian columns cancels in J (x) J
    for name, K in complexes.items():
        jac = K.jac
        for y, (_, _, rows) in K._hessian.items():
            acc: dict = {}
            for sign, x, *_, lcls, rcls in rows:
                xcls = jac.canonical_form((x,))
                k1 = (jac.compose(xcls, lcls), rcls)
                acc[k1] = acc.get(k1, 0) + sign
                k2 = (lcls, jac.compose(rcls, xcls))
                acc[k2] = acc.get(k2, 0) - sign
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
        rules = both_ways(jac.jacobi_relations())
        for w in words:
            for nb in rewrite_neighbors(w, rules, cap=9):
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
    """Canonical-form classes equal rewrite-closure classes on short words.

    Every word up to the cap is listed, so a rewrite and its reverse join
    the same pair: one direction of each relation gives the same partition.
    """
    words = _composable_words(jac.dimer, cap)
    rules = [(lhs, rhs) for _, lhs, rhs in jac.jacobi_relations()]
    uf = _UnionFind()
    for w in words:
        uf.find(w)
        for nb in rewrite_neighbors(w, rules, cap):
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
    assert reduce_oracle(jac, ("x", "y"), 6) == {("x", "y"), ("y", "x")}
    closure = reduce_oracle(jac, ("x", "y", "z"), 6)
    assert ("z", "y", "x") in closure  # all permutations are reachable
    assert len({jac.canonical_form(w) for w in closure}) == 1


def test_reduce_oracle_builds_the_relations_once_per_search(dimers):
    jac = Jacobi(dimers["conifold"])
    calls = []
    build = jac.jacobi_relations
    jac.jacobi_relations = lambda: calls.append(1) or build()
    closure = reduce_oracle(jac, ("a1", "b1", "a2", "b2", "a1", "b1"), 8)
    assert len(closure) == 9 and len(calls) == 1
    assert len({jac.canonical_form(w) for w in closure}) == 1


def test_a_path_class_hashes_and_compares_as_its_tuple(covers):
    # hashing and equality are the tuple's own, so they run in C; the hash of
    # a class is still the hash of its four fields, so dict orders do not move
    assert PathClass.__hash__ is tuple.__hash__
    assert PathClass.__eq__ is tuple.__eq__
    seen = 0
    for name, k, l in ORACLE_ZOO:
        raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
        jac = Jacobi(dimer_from_dict(raw))
        d = jac.dimer
        classes = [jac.canonical_form((a,)) for a in d.arrow_ids]
        classes += [*jac.central_W().values(), *map(jac.idempotent, d.vertices)]
        for cls in classes:
            t = (cls.tail, cls.head, cls.h1, cls.w0)
            assert isinstance(cls, tuple) and tuple(cls) == t
            assert hash(PathClass(*t)) == hash(t) == hash(cls)
            assert PathClass(*t) == cls == t
            seen += 1
    assert seen > 300


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
            words = jac.x_alpha_witnesses(alpha)
            assert words.keys() == xa.keys()
            for v, cls in xa.items():
                degs = jac.corner_degrees(cls)
                assert min(degs) == 0
                assert jac.canonical_form(words[v]) == cls
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
            cls = next(iter(jac.central_x_alpha(K.eta(i)).values()))
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
                xa = next(iter(jac.central_x_alpha(alpha).values()))
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


def test_realize_path_not_found_is_none(dimers):
    jac = Jacobi(dimers["c3"], realize_cap=1)
    # h1 = (3, 0) with reference degree 0 requires corner degrees that the cap
    # 1 cannot reach; the search reports None rather than claiming nonexistence
    out = jac.realize_path("v", "v", (3, 0), jac.x_alpha_w0((3, 0)))
    assert out is None


def _three_pass_canonical_form(jac, word):
    """``Jacobi.canonical_form`` as three walks: composability, then shift, then degree."""
    word = tuple(word)
    d = jac.dimer
    if not d.is_composable(word):
        raise JacobiError(f"word {word!r} is not a composable path")
    return PathClass(d.tail(word[0]), d.head(word[-1]), d.word_shift(word), word_degree(word, jac.ref.edges))


def _outcome(fn, word):
    try:
        cls = fn(word)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return cls


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
