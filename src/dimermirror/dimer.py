"""Dimer models on the torus: validation, zigzag cycles, consistency, strips, duality.

A dimer is a quiver embedded in a closed oriented surface whose complementary
faces carry coherent boundary orientations, alternately positive and negative.
Face boundaries are stored in traversal order (consecutive arrows compose);
arrows on the torus carry lattice shifts recording how the embedding wraps the
fundamental domain.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import cmp_to_key, wraps
from math import gcd
from operator import attrgetter

Vec = tuple[int, int]


class DimerError(Exception):
    """Raised for structurally unusable input or internal consistency failures."""


# The errors of the later layers live here, beside DimerError, so the CLI can
# catch them without importing the layers; each layer re-exports its own.
class JacobiError(Exception):
    pass


class HochschildError(Exception):
    pass


class SHError(Exception):
    pass


def vec_add(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


def vec_sub(u: Vec, v: Vec) -> Vec:
    return (u[0] - v[0], u[1] - v[1])


def vec_neg(u: Vec) -> Vec:
    return (-u[0], -u[1])


def cross(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Vec, v: Vec) -> int:
    return u[0] * v[0] + u[1] * v[1]


def is_primitive(u: Vec) -> bool:
    return gcd(abs(u[0]), abs(u[1])) == 1


def idkey(x):
    """Sort key usable for mixed int/str identifiers."""
    return (0, x, "") if isinstance(x, int) else (1, 0, str(x))


def word_key(word) -> tuple:
    """Sort key for a sequence of identifiers, ordered entry by entry by ``idkey``."""
    return tuple(idkey(x) for x in word)


def ccw_angle_key(v: Vec):
    """Total order on nonzero lattice vectors by angle in [0, 2*pi).

    Vectors along the positive x-axis come first; ties within a half-plane are
    resolved by the cross product (exact integer comparison, no floats).
    """
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no direction")
    if y == 0:
        sector = 0 if x > 0 else 2
    elif y > 0:
        sector = 1
    else:
        sector = 3
    # within a sector, u comes before w when w lies counterclockwise of u
    return (sector, _by_turn(v))


_by_turn = cmp_to_key(lambda u, w: cross(w, u))


# -- records -------------------------------------------------------------------
#
# The record classes below are written out rather than generated, so that
# importing the package builds no code.  Each keeps the contract of a
# dataclass with the same fields: the same constructor, ``repr`` text,
# equality and hashing over the compared fields, no hashing for the mutable
# ones, and assignment refused on the frozen ones.


class _Record:
    """Equality over ``_key``, an attrgetter of the compared fields, and the
    repr ``Name(field=value, ...)`` over ``_fields``.  Mutable, so unhashable."""

    __slots__ = ()
    _fields: tuple = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A hashable record whose fields are set once, in ``__init__``, through ``_set``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which takes the fields in order
        return type(self), tuple(getattr(self, name) for name in self._fields)


_set = object.__setattr__
_new = object.__new__


class _Combination:
    """Integer combination: ``terms`` maps keys to nonzero coefficients.  Arithmetic
    returns the caller's class, and an element equals only those of its class."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {c: k for c, k in (terms or {}).items() if k}

    @classmethod
    def _nonzero(cls, terms: dict):
        """The element on ``terms``, whose coefficients are all nonzero already."""
        out = _new(cls)
        out.terms = terms
        return out

    @classmethod
    def of(cls, key, coeff: int = 1):
        return cls._nonzero({key: coeff} if coeff else {})

    def __add__(self, other):
        out = dict(self.terms)
        for c, k in other.terms.items():
            total = out.get(c, 0) + k
            if total:
                out[c] = total
            else:
                del out[c]
        return self._nonzero(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k: int):
        return self._nonzero({c: k * v for c, v in self.terms.items()} if k else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class Arrow(_Frozen):
    __slots__ = _fields = ("id", "tail", "head", "shift")

    def __init__(self, id: object, tail: object, head: object, shift: Vec | None):
        _set(self, "id", id)
        _set(self, "tail", tail)
        _set(self, "head", head)
        _set(self, "shift", shift)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.id, self.tail, self.head, self.shift) == (
                other.id, other.tail, other.head, other.shift
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.id, self.tail, self.head, self.shift))


class Face(_Frozen):
    __slots__ = _fields = ("sign", "boundary")

    def __init__(self, sign: int, boundary: tuple):
        _set(self, "sign", sign)  # +1 or -1
        _set(self, "boundary", boundary)  # arrow ids in traversal order

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.sign, self.boundary) == (other.sign, other.boundary)
        return NotImplemented

    def __hash__(self):
        return hash((self.sign, self.boundary))


class Issue(_Frozen):
    _fields = ("code", "message", "witness")
    _key = attrgetter(*_fields)

    def __init__(self, code: str, message: str, witness: object = None):
        _set(self, "code", code)
        _set(self, "message", message)
        _set(self, "witness", witness)


class ValidationReport(_Record):
    _fields = ("ok", "issues")
    _key = attrgetter(*_fields)

    def __init__(self, ok: bool, issues: list[Issue] | None = None):
        self.ok = ok
        self.issues = [] if issues is None else issues


class ZigzagCycle(_Frozen):
    """A zigzag cycle, stored as its traversal (zig1, zag1, zig2, zag2, ...).

    Consecutive pairs (zig, zag) lie on negative faces and (zag, next zig) on
    positive faces.  ``homology`` is the sum of shifts; it is None for dimers
    without shift data (e.g. dual dimers).  ``class_index`` is 1-based, with
    [Z] = -eta_i; ``parallel_index`` is the 1-based position within the
    parallel family.
    """

    _fields = ("arrows", "zigs", "zags", "homology", "class_index", "parallel_index")
    _key = attrgetter(*_fields)

    def __init__(
        self,
        arrows: tuple,
        zigs: tuple,
        zags: tuple,
        homology: Vec | None,
        class_index: int = 0,
        parallel_index: int = 0,
    ):
        _set(self, "arrows", arrows)
        _set(self, "zigs", zigs)
        _set(self, "zags", zags)
        _set(self, "homology", homology)
        _set(self, "class_index", class_index)
        _set(self, "parallel_index", parallel_index)


class StripDecomposition(_Frozen):
    """The strips E_{i,1..m_i} of one zigzag class: the components of the
    quiver's vertices joined by the arrows outside the class's parallel family.

    ``strips[j-1]`` holds the vertex ids of the closed strip E_{i,j}, sorted;
    ``cycles[j-1]`` is the parallel cycle Z_{i,j}, whose O+ lies in strip j;
    ``boundary[j-1]`` is (O+(Z_{i,j}), O-(Z_{i,j+1})) as arrow-id tuples.
    """

    _fields = ("class_index", "strips", "cycles", "boundary")
    _key = attrgetter(*_fields)

    def __init__(self, class_index: int, strips: tuple, cycles: tuple, boundary: tuple):
        _set(self, "class_index", class_index)
        _set(self, "strips", strips)
        _set(self, "cycles", cycles)
        _set(self, "boundary", boundary)


def cyclic_rotations(word: tuple) -> list[tuple]:
    return [word[i:] + word[:i] for i in range(len(word))]


def cyclic_equal(a: Iterable, b: Iterable) -> bool:
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and (len(a) == 0 or a in cyclic_rotations(b))


def per_dimer(build):
    """Decorator: ``build(d, *args)`` computed once per dimer and arguments.

    The result is kept in ``d._derived`` under (the decorated function,
    args), so every caller shares it and must not mutate it; a build that
    raises keeps nothing.  The build is called as ``__wrapped__``, so a test
    can count or fake the builds by replacing that attribute.
    """

    @wraps(build)
    def cached(d, *args):
        key = (cached, args)
        if key not in d._derived:
            d._derived[key] = cached.__wrapped__(d, *args)
        return d._derived[key]

    return cached


class Dimer:
    """Immutable dimer model; derived combinatorial structure built lazily.

    Each derived structure is computed at most once per instance, by a
    function decorated with ``per_dimer``, and shared by every caller, so
    callers must not mutate what they get back.  The lookup tables that
    every module reads:

    * ``arrow_ids`` (sorted by ``idkey``) and ``arrow_rank`` (id -> position
      there), set on construction, like ``has_shifts``;
    * ``leaving``, ``entering``: vertex -> arrow ids out of, into it, in id order;
    * ``pos_face_of``, ``neg_face_of``: an arrow's two faces, and
      ``face_words``: vertex -> the first face through it, rotated to start
      there (``face_word_at``);
    * ``zigzag_of``: arrow -> (k, l), the arrow being a zig of orbit k and a
      zag of orbit l of ``_zigzag_orbits``.
    """

    def __init__(self, name: str, vertices, arrows, faces):
        self.name = name
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.faces = tuple(faces)
        self.arrow_by_id = {}
        for a in self.arrows:
            self.arrow_by_id.setdefault(a.id, a)
        self.arrow_ids, self.arrow_rank = _arrow_order(self)
        self.has_shifts = all(a.shift is not None for a in self.arrows)
        self._derived: dict = {}

    # -- basic accessors -------------------------------------------------

    def tail(self, aid) -> object:
        return self.arrow_by_id[aid].tail

    def head(self, aid) -> object:
        return self.arrow_by_id[aid].head

    def shift(self, aid) -> Vec:
        s = self.arrow_by_id[aid].shift
        if s is None:
            raise DimerError(f"arrow {aid!r} carries no shift data")
        return s

    def word_shift(self, word: Iterable) -> Vec:
        total = (0, 0)
        for aid in word:
            total = vec_add(total, self.shift(aid))
        return total

    def path_shift(self, path: Iterable) -> Vec:
        """Total shift of a signed arrow path [(arrow id, +1 or -1)]."""
        total = (0, 0)
        for aid, sgn in path:
            s = self.shift(aid)
            total = (total[0] + sgn * s[0], total[1] + sgn * s[1])
        return total

    def is_composable(self, word) -> bool:
        word = tuple(word)
        if not word:
            return False
        arrows = self.arrow_by_id
        if any(aid not in arrows for aid in word):
            return False
        return all(arrows[a].head == arrows[b].tail for a, b in zip(word, word[1:]))

    def is_closed(self, word) -> bool:
        word = tuple(word)
        return self.is_composable(word) and self.head(word[-1]) == self.tail(word[0])

    # -- validation ------------------------------------------------------

    def validate(self) -> ValidationReport:
        return validate_dimer(self)

    def require_valid(self):
        rep = self.validate()
        if not rep.ok:
            raise DimerError(
                f"dimer {self.name!r} is invalid: "
                + "; ".join(i.message for i in rep.issues)
            )

    # -- lookup tables -----------------------------------------------------

    @property
    def leaving(self) -> dict:
        return _vertex_incidence(self)[0]

    @property
    def entering(self) -> dict:
        return _vertex_incidence(self)[1]

    @property
    def face_words(self) -> dict:
        return _face_structure(self)[4]

    @property
    def zigzag_of(self) -> dict:
        return _zigzag_orbits(self)[1]

    def pos_face_of(self, aid) -> int:
        return _face_structure(self)[0][aid]

    def neg_face_of(self, aid) -> int:
        return _face_structure(self)[1][aid]


def _arrow_order(d: Dimer) -> tuple:
    """(the arrow ids sorted by ``idkey``, id -> its position in that order)."""
    ids = tuple(sorted(d.arrow_by_id, key=idkey))
    return ids, {a: r for r, a in enumerate(ids)}


@per_dimer
def _vertex_incidence(d: Dimer) -> tuple:
    """(vertex -> arrow ids out of it, vertex -> arrow ids into it), each in id order."""
    d.require_valid()
    leaving: dict = {v: [] for v in d.vertices}
    entering: dict = {v: [] for v in d.vertices}
    for aid in d.arrow_ids:
        a = d.arrow_by_id[aid]
        leaving[a.tail].append(aid)
        entering[a.head].append(aid)
    return leaving, entering


@per_dimer
def _face_structure(d: Dimer) -> tuple:
    """One pass over the faces: arrow -> its positive face, its negative face, its
    successor on each, and vertex -> the first face through it, rotated to start there."""
    d.require_valid()
    pos_face, neg_face, next_pos, next_neg, words = {}, {}, {}, {}, {}
    for fi, f in enumerate(d.faces):
        table, succ = (pos_face, next_pos) if f.sign > 0 else (neg_face, next_neg)
        b, n = f.boundary, len(f.boundary)
        for i, aid in enumerate(b):
            table[aid] = fi
            succ[aid] = b[(i + 1) % n]
            v = d.tail(aid)
            if v not in words:
                words[v] = b[i:] + b[:i]
    return pos_face, neg_face, next_pos, next_neg, words


@per_dimer
def validate_dimer(d: Dimer) -> ValidationReport:
    issues: list[Issue] = []

    vertices = set(d.vertices)
    seen = set()
    for a in d.arrows:
        if a.id in seen:
            issues.append(Issue("duplicate_arrow", f"duplicate arrow id {a.id!r}", a.id))
        seen.add(a.id)
        for v in (a.tail, a.head):
            try:
                known = v in vertices
            except TypeError:  # an unhashable id (a JSON list, say) names no vertex
                known = False
            if not known:
                issues.append(
                    Issue("unknown_vertex", f"arrow {a.id!r} references unknown vertex {v!r}", a.id)
                )
    if len(vertices) != len(d.vertices):
        issues.append(Issue("duplicate_vertex", "duplicate vertex id", None))

    pos_count = {a.id: 0 for a in d.arrows}
    neg_count = {a.id: 0 for a in d.arrows}
    for fi, f in enumerate(d.faces):
        if len(f.boundary) < 3:
            issues.append(
                Issue("face_too_short", f"face {fi} has boundary length {len(f.boundary)} < 3", fi)
            )
        for aid in f.boundary:
            if aid not in d.arrow_by_id:
                issues.append(
                    Issue("unknown_arrow", f"face {fi} references unknown arrow {aid!r}", fi)
                )
            elif f.sign > 0:
                pos_count[aid] += 1
            else:
                neg_count[aid] += 1
        if len(set(f.boundary)) != len(f.boundary):
            issues.append(
                Issue("repeated_arrow_in_face", f"face {fi} repeats an arrow id", fi)
            )
    if any(i.code in ("unknown_arrow", "duplicate_arrow", "unknown_vertex") for i in issues):
        return ValidationReport(False, issues)

    for aid in d.arrow_by_id:
        if pos_count[aid] != 1 or neg_count[aid] != 1:
            issues.append(
                Issue(
                    "face_cover",
                    f"arrow {aid!r} lies on {pos_count[aid]} positive and "
                    f"{neg_count[aid]} negative faces (want 1 and 1)",
                    aid,
                )
            )

    for fi, f in enumerate(d.faces):
        n = len(f.boundary)
        for i in range(n):
            a, b = f.boundary[i], f.boundary[(i + 1) % n]
            if d.head(a) != d.tail(b):
                issues.append(
                    Issue(
                        "face_not_composable",
                        f"face {fi}: arrows {a!r} -> {b!r} do not compose",
                        fi,
                    )
                )
                break

    # Euler characteristic |V| - |E| + |F| and single-disk vertex links.
    chi = len(d.vertices) - len(d.arrows) + len(d.faces)
    if d.has_shifts and chi != 0:
        issues.append(Issue("euler", f"Euler characteristic {chi} != 0 (not a torus)", chi))

    if not any(i.code == "face_not_composable" for i in issues):
        link_issue = _check_links(d)
        if link_issue is not None:
            issues.append(link_issue)

    if d.has_shifts:
        for fi, f in enumerate(d.faces):
            total = (0, 0)
            for aid in f.boundary:
                total = vec_add(total, d.shift(aid))
            if total != (0, 0):
                issues.append(
                    Issue("face_shift", f"face {fi} shift sum {total} != (0, 0)", fi)
                )

    if not _is_connected(d):
        issues.append(Issue("disconnected", "underlying quiver is not connected", None))

    return ValidationReport(not issues, issues)


def _check_links(d: Dimer) -> Issue | None:
    """Each vertex link must be a single cycle (one disk neighborhood)."""
    corners: dict = {v: [] for v in d.vertices}
    for f in d.faces:
        n = len(f.boundary)
        for i in range(n):
            a, b = f.boundary[i], f.boundary[(i + 1) % n]
            corners[d.head(a)].append((a, b))
    for v in d.vertices:
        adj: dict = {}
        for a, b in corners[v]:
            adj.setdefault(("h", a), []).append(("t", b))
            adj.setdefault(("t", b), []).append(("h", a))
        if not adj:
            return Issue("isolated_vertex", f"vertex {v!r} lies on no face corner", v)
        if any(len(nb) != 2 for nb in adj.values()):
            return Issue("bad_link", f"vertex {v!r} has a non-circular link", v)
        start = next(iter(adj))
        seen = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        if len(seen) != len(adj):
            return Issue("bad_link", f"vertex {v!r} has a disconnected link", v)
    return None


def _is_connected(d: Dimer) -> bool:
    return bool(d.vertices) and set(_strip_components(d, ()).values()) == {0}


# -- zigzag cycles ---------------------------------------------------------


@per_dimer
def _zigzag_orbits(d: Dimer) -> tuple[list[ZigzagCycle], dict]:
    """(the unindexed zigzag cycles, ``d.zigzag_of``): orbits of the alternating
    successor maps, and the orbits through each arrow as a zig and as a zag."""
    d.require_valid()
    next_pos, next_neg = _face_structure(d)[2:4]
    cycles = []
    zig_of, zag_of = {}, {}  # arrow -> index of the orbit through it as a zig, as a zag
    for a in d.arrow_ids:
        if a in zig_of:
            continue
        k = len(cycles)
        word = []
        cur = a
        while True:
            zag = next_neg[cur]
            word += (cur, zag)
            zig_of[cur] = k
            zag_of[zag] = k
            cur = next_pos[zag]
            if cur == a:
                break
        word = tuple(word)
        hom = d.word_shift(word) if d.has_shifts else None
        cycles.append(ZigzagCycle(arrows=word, zigs=word[0::2], zags=word[1::2], homology=hom))

    n = len(d.arrow_ids)
    if len(zig_of) != n or len(zag_of) != n or sum(len(z.zigs) for z in cycles) != n:
        raise DimerError("zigzag orbits do not cover every arrow once as zig and once as zag")
    return cycles, {a: (zig_of[a], zag_of[a]) for a in d.arrow_ids}


@per_dimer
def zigzag_cycles(d: Dimer) -> list[ZigzagCycle]:
    """All zigzag cycles; arrows alternate zig, zag, zig, zag along the traversal.

    A zig is followed by its zag on a negative face, and a zag by the next zig
    on a positive face.  With shift data present, cycles are grouped into
    homology classes -eta_i sorted counterclockwise by the angle of eta_i, and
    numbered within a class by the strip ordering (base vertex's strip first).
    Computed once per dimer; the list is shared, so do not mutate it.
    """
    cycles = _zigzag_orbits(d)[0]
    if not d.has_shifts:
        return cycles
    indexed: list[ZigzagCycle] = []
    for i, (_, members) in enumerate(_homology_classes(d), start=1):
        order = _parallel_order(d, _class_components(d, i), members)
        for j, z in enumerate(order, start=1):
            indexed.append(
                ZigzagCycle(z.arrows, z.zigs, z.zags, z.homology, class_index=i, parallel_index=j)
            )
    indexed += [z for z in cycles if z.homology == (0, 0)]
    rank = d.arrow_rank
    indexed.sort(key=lambda z: (z.class_index, z.parallel_index, rank[z.arrows[0]]))
    return indexed


@per_dimer
def _homology_classes(d: Dimer) -> list:
    """[(eta_i, members)]: the cycles of class -eta_i, the eta_i sorted counterclockwise by angle.

    Members are unindexed cycles in ``_zigzag_orbits`` order; null-homologous
    cycles are in no class.  No check is made.  Computed once per dimer.
    """
    members: dict = {}
    for z in _zigzag_orbits(d)[0]:
        if z.homology != (0, 0):
            members.setdefault(vec_neg(z.homology), []).append(z)
    return [(eta, members[eta]) for eta in sorted(members, key=ccw_angle_key)]


def _parallel_order(d: Dimer, comp: dict, members: list[ZigzagCycle]) -> list[ZigzagCycle]:
    """Order parallel cycles so the base vertex's strip comes first.

    Z_{i,1} is the cycle whose positive side (the component of O+) holds the
    base vertex; Z_{i,j+1} is the cycle whose negative side (the component of
    O-) is the positive side of Z_{i,j}.
    """
    if len(members) == 1:
        return members
    plus = {z.arrows: _side(d, comp, anti_zigzag(d, z, +1)) for z in members}
    by_plus = {plus[z.arrows]: z for z in members}
    by_minus = {_side(d, comp, anti_zigzag(d, z, -1)): z for z in members}
    sides = set(comp.values())
    if len(by_plus) != len(members) or set(by_plus) != sides or set(by_minus) != sides:
        raise DimerError("strips do not separate the parallel family")
    chain = [by_plus[comp[d.vertices[0]]]]
    while len(chain) < len(members):
        chain.append(by_minus[plus[chain[-1].arrows]])
    return chain


def _strip_components(d: Dimer, members) -> dict:
    """Vertex -> component index, flood-filled over arrows off the family's cycles.

    Components are numbered in the order of d.vertices, so the base vertex's
    component is 0.
    """
    family = {a for z in members for a in z.arrows}
    adj: dict = {v: [] for v in d.vertices}
    for a in d.arrows:
        if a.id not in family:
            adj[a.tail].append(a.head)
            adj[a.head].append(a.tail)
    comp: dict = {}
    n = 0
    for start in d.vertices:
        if start in comp:
            continue
        comp[start] = n
        frontier = [start]
        while frontier:
            for w in adj[frontier.pop()]:
                if w not in comp:
                    comp[w] = n
                    frontier.append(w)
        n += 1
    return comp


@per_dimer
def _class_components(d: Dimer, class_index: int) -> dict:
    """The strip components of one class, computed once per dimer and class."""
    return _strip_components(d, _homology_classes(d)[class_index - 1][1])


def _side(d: Dimer, comp: dict, word: tuple) -> int:
    """The single component holding the vertices of an anti-zigzag word."""
    sides = {comp[d.tail(a)] for a in word}
    if len(sides) != 1:
        raise DimerError("parallel cycle touches several strips on one side")
    return sides.pop()


def anti_zigzag(d: Dimer, z: ZigzagCycle, sign: int) -> tuple:
    """The anti-zigzag O^{sign}(Z): complementary face arcs, concatenated.

    For sign=+1, each pair (zag_l, zig_{l+1}) spans a positive face; the arcs
    complementary to these pairs compose (in reverse pair order) to a closed
    cycle of homology -[Z].  sign=-1 uses the (zig_l, zag_l) negative faces.
    Computed once per dimer, cycle and sign; the tuple is shared.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return _anti_zigzag(d, z.arrows, sign)


@per_dimer
def _anti_zigzag(d: Dimer, word: tuple, sign: int) -> tuple:
    """The anti-zigzag of the cycle with traversal ``word``: one entry per word and sign."""
    pos_face, neg_face = _face_structure(d)[:2]
    zigs, zags = word[0::2], word[1::2]
    L = len(zigs)
    arcs = []
    for k in range(L):
        if sign > 0:
            u, w = zags[k], zigs[(k + 1) % L]  # (zag, zig) on a positive face
            b = d.faces[pos_face[u]].boundary
        else:
            u, w = zigs[k], zags[k]  # (zig, zag) on a negative face
            b = d.faces[neg_face[u]].boundary
        iu, n = b.index(u), len(b)
        if b[(iu + 1) % n] != w:
            raise DimerError("zigzag pair is not consecutive on its face")
        arcs.append((b + b)[iu + 2 : iu + n])  # from after w round to before u
    out = tuple(a for arc in reversed(arcs) for a in arc)
    # a rotation has the same cyclic adjacent pairs, so none of them would close either
    if out and not d.is_closed(out):
        raise DimerError("anti-zigzag does not close up")
    return out


# -- zigzag consistency ----------------------------------------------------
#
# The zig ray at an arrow e runs along the zigzag orbit in which e is a zig,
# starting at that position: e, its zag, the next zig, and so on.  The zag ray
# runs along the orbit in which e is a zag, starting there.  One period of a
# ray is one lap of its orbit, so instead of walking both rays from every
# arrow, the check reads them from one table per orbit: the word, its prefix
# shift sums and, for each arrow, its positions in the word.  Only arrows on
# both orbits are candidate meetings, so each arrow costs one pass over its
# zig orbit with a dict lookup per position, not a comparison of every pair
# of occurrences.  The tables are built from the memoized orbits on each
# call and dropped when it returns.


def _offset(prefix: tuple, start: int, i: int) -> Vec:
    """Shift of the arrows from position start up to, not including, position i, going forward."""
    x, y = prefix[i]
    if i < start:  # around the end of the word: one more period
        hx, hy = prefix[-1]
        x, y = x + hx, y + hy
    sx, sy = prefix[start]
    return (x - sx, y - sy)


def _orbit_tables(d: Dimer) -> tuple[dict, dict]:
    """arrow -> (table, position) of its zig occurrence, and of its zag.

    A table is (orbit, prefix, at): ``prefix[k]`` is the total shift of the
    first k arrows of the orbit's word, so ``prefix[len(word)]`` is the
    homology, and ``at[a]`` holds the positions of arrow a in the word,
    ascending: at most two, once as zig and once as zag.
    """
    zig_at: dict = {}
    zag_at: dict = {}
    for z in _zigzag_orbits(d)[0]:
        word = z.arrows
        x = y = 0
        prefix = [(0, 0)]
        at: dict = {}
        for k, aid in enumerate(word):
            sx, sy = d.arrow_by_id[aid].shift
            x, y = x + sx, y + sy
            prefix.append((x, y))
            at[aid] = at.get(aid, ()) + (k,)
        table = (z, tuple(prefix), at)
        for k in range(0, len(word), 2):
            zig_at[word[k]] = (table, k)
            zag_at[word[k + 1]] = (table, k + 1)
    return zig_at, zag_at


def _ray_meeting(t_zig: Vec, t_zag: Vec, dd: Vec, trivial: bool):
    """(n, m) >= 0 with n * t_zig - m * t_zag == dd, or None; (0, 0) does not count when trivial.

    dd is the zag occurrence's translate minus the zig occurrence's; trivial
    marks the starting arrow itself, met at translate zero on both rays.
    """
    det = cross(t_zag, t_zig)  # det of [t_zig | -t_zag]
    if det != 0:
        n_num = cross(t_zag, dd)
        m_num = cross(t_zig, dd)
        if n_num % det or m_num % det:
            return None
        n, m = n_num // det, m_num // det
        if n < 0 or m < 0 or (trivial and n == m == 0):
            return None
        return n, m
    # parallel periods: project onto the common direction
    gx = gcd(abs(t_zig[0]), abs(t_zig[1]))
    base = (t_zig[0] // gx, t_zig[1] // gx)
    if cross(base, dd) != 0 or cross(base, t_zag) != 0:
        return None
    p = t_zig[0] // base[0] if base[0] else t_zig[1] // base[1]
    q = t_zag[0] // base[0] if base[0] else t_zag[1] // base[1]
    dv = dd[0] // base[0] if base[0] else dd[1] // base[1]
    sol = _solve_parallel(p, q, dv)
    if sol is None or (trivial and sol == (0, 0)):
        return None
    return sol


def _ext_gcd(a: int, b: int) -> tuple:
    """(g, s, t) with g = gcd(a, b) >= 0 and g == s*a + t*b, by the extended Euclidean algorithm."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _solve_parallel(p: int, q: int, dd: int):
    """Nonnegative integer solutions of n*p - m*q = dd, smallest first; None if none."""
    pp, qq = abs(p), abs(q)
    g, x0, y0 = _ext_gcd(pp, qq)  # g = x0*pp + y0*qq
    if dd % g:
        return None
    if p > 0 > q or (p < 0 < q):
        # n*p and -m*q have the same sign, so |n|, |m| are bounded by |dd|
        if dd * p < 0:
            return None
        for n in range(abs(dd) // abs(p) + 1):
            rem = n * p - dd  # need rem == m*q with m >= 0
            if rem % q == 0 and rem // q >= 0:
                return (n, rem // q)
        return None
    # p, q same sign: the form is indefinite, solutions exist for every multiple of g
    sgn = 1 if p > 0 else -1
    target = sgn * dd
    # solve n*pp - m*qq = target with n, m >= 0
    n0 = x0 * (target // g)
    m0 = -y0 * (target // g)
    step_n, step_m = qq // g, pp // g
    # shift along the solution line until both components are nonnegative
    k_lo = 0
    if n0 < 0:
        k_lo = max(k_lo, (-n0 + step_n - 1) // step_n)
    if m0 < 0:
        k_lo = max(k_lo, (-m0 + step_m - 1) // step_m)
    n, m = n0 + k_lo * step_n, m0 + k_lo * step_m
    if (n, m) == (0, 0):
        n, m = n + step_n, m + step_m
    return (n, m)


def is_zigzag_consistent(d: Dimer):
    """Universal-cover ray criterion, reduced to exact integer systems.

    For each arrow the zig and zag rays are periodic; an intersection in an
    edge other than the starting one solves a small linear system over
    nonnegative integers.  Null-homologous zigzag cycles are violations too.
    Arrows are taken in id order, and along the zig ray each occurrence is
    tried against the zag ray's occurrences of the same arrow in ray order,
    so the witness is the first meeting found.  Returns (True, None) or
    (False, witness); witness is (e, f, n, m) for the rays at e meeting at f.
    """
    d.require_valid()
    if not d.has_shifts:
        raise DimerError("consistency requires torus shift data")
    for z in _zigzag_orbits(d)[0]:
        if z.homology == (0, 0):
            return False, ("null_homologous_cycle", z.arrows)
    zig_at, zag_at = _orbit_tables(d)
    for e in d.arrow_ids:
        (zig, zig_prefix, _), p = zig_at[e]
        (zag, zag_prefix, zag_pos), q = zag_at[e]
        t_zig, t_zag = zig.homology, zag.homology
        word = zig.arrows
        for i in itertools.chain(range(p, len(word)), range(p)):
            f = word[i]
            hits = zag_pos.get(f)
            if hits is None:
                continue
            u = _offset(zig_prefix, p, i)
            if hits[0] < q <= hits[-1]:  # the zag ray from q reaches the later position first
                hits = hits[::-1]
            for j in hits:
                v = _offset(zag_prefix, q, j)
                trivial = f == e and u == v == (0, 0)
                found = _ray_meeting(t_zig, t_zag, vec_sub(v, u), trivial)
                if found is not None:
                    return False, (e, f) + tuple(found)
    return True, None


@per_dimer
def zigzag_classes(d: Dimer) -> list:
    """The zigzag classes of a consistent dimer: [(eta_i, [cycles of class -eta_i])] in class order.

    Raises DimerError unless the dimer is zigzag consistent, every eta_i is
    primitive, parallel cycles are edge-disjoint and cycles of independent
    classes share an edge.  Classes are numbered as in ``zigzag_cycles``; the
    members are not put in parallel order (``parallel_classes`` does that),
    so they carry no class or parallel index.  Enough for the matching
    polygon, whose edges need only eta_i and m_i.  Computed once per dimer;
    the lists are shared, so do not mutate them.
    """
    ok, witness = is_zigzag_consistent(d)
    if not ok:
        raise DimerError(f"dimer is not zigzag consistent: {witness}")
    classes = _homology_classes(d)
    for eta, _ in classes:
        if not is_primitive(eta):
            raise DimerError(f"zigzag class {eta} is not primitive")
    cycles = [(z, set(z.arrows)) for _, members in classes for z in members]
    for (z1, s1), (z2, s2) in itertools.combinations(cycles, 2):
        disjoint = s1.isdisjoint(s2)
        if z1.homology == z2.homology and not disjoint:
            raise DimerError(
                f"parallel cycles share arrows {[a for a in d.arrow_ids if a in s1 and a in s2]}"
            )
        if cross(z1.homology, z2.homology) != 0 and disjoint:
            raise DimerError(
                "independent zigzag cycles "
                f"{z1.arrows} and {z2.arrows} share no arrow"
            )
    return classes


@per_dimer
def parallel_classes(d: Dimer) -> list:
    """``zigzag_classes`` with each class's members in parallel order: [(eta_i, [Z_{i,1..m_i}])].

    The members are the indexed cycles of ``zigzag_cycles``, whose ordering
    builds the anti-zigzags and strip components of every class.  The
    strips and the Koszul complex read these lists, and the SH model and the
    ``zigzags`` and ``report`` listings read the same order off
    ``zigzag_cycles``; the matching polygon reads ``zigzag_classes``.
    Computed once per dimer; the lists are shared, so do not mutate them.
    """
    classes = zigzag_classes(d)
    members: dict = {}
    for z in zigzag_cycles(d):
        members.setdefault(z.class_index, []).append(z)
    return [(eta, members[i]) for i, (eta, _) in enumerate(classes, start=1)]


@per_dimer
def strips(d: Dimer, class_index: int) -> StripDecomposition:
    """Closed strips between consecutive parallel cycles of one class.

    The strips are the vertex components left when the arrows of the class's
    parallel family are removed; strip j is the component of O+(Z_{i,j}),
    which must also hold O-(Z_{i,j+1}).  Computed once per dimer and class
    index; the result is shared.
    """
    classes = parallel_classes(d)
    if not 1 <= class_index <= len(classes):
        raise DimerError(f"no zigzag class {class_index}")
    members = classes[class_index - 1][1]  # already in parallel order
    comp = _class_components(d, class_index)
    m = len(members)
    n_comp = len(set(comp.values()))
    if n_comp != m:
        raise DimerError(f"class {class_index}: {n_comp} strips for {m} parallel cycles")
    boundary = tuple(
        (anti_zigzag(d, z, +1), anti_zigzag(d, members[(j + 1) % m], -1))
        for j, z in enumerate(members)
    )
    strips_out = []
    for j, (opos, oneg) in enumerate(boundary, start=1):
        side = _side(d, comp, opos)
        if _side(d, comp, oneg) != side:
            raise DimerError(
                f"class {class_index}: O+(Z_{j}) and O-(Z_{j % m + 1}) lie in different strips"
            )
        strips_out.append(tuple(sorted((v for v, c in comp.items() if c == side), key=idkey)))
    if d.vertices[0] not in strips_out[0]:
        raise DimerError("base vertex is not in strip 1 after ordering")
    return StripDecomposition(
        class_index=class_index,
        strips=tuple(strips_out),
        cycles=tuple(members),
        boundary=boundary,
    )


@per_dimer
def tree_paths(d: Dimer) -> dict:
    """Signed arrow paths [(arrow id, +1 or -1)] from the base vertex to every vertex.

    All paths run along one spanning tree, grown by sweeping the arrows in id
    order from d.vertices[0].  Computed once per dimer; the result is shared,
    so do not mutate it.
    """
    d.require_valid()  # a valid dimer is connected, so every vertex is reached
    arrows = [d.arrow_by_id[aid] for aid in d.arrow_ids]
    paths = {d.vertices[0]: []}
    changed = True
    while changed:
        changed = False
        for a in arrows:
            if a.tail in paths and a.head not in paths:
                paths[a.head] = paths[a.tail] + [(a.id, +1)]
                changed = True
            elif a.head in paths and a.tail not in paths:
                paths[a.tail] = paths[a.head] + [(a.id, -1)]
                changed = True
    return paths


def face_word_at(d: Dimer, v) -> tuple:
    """The boundary of the first face through v, rotated to start at v.

    The word is a closed path at v; its class is the potential W at v.
    Read from the table ``d.face_words``.
    """
    word = d.face_words.get(v)
    if word is None:
        raise DimerError(f"vertex {v!r} on no face")
    return word


# -- duality ---------------------------------------------------------------


def dual_dimer(d: Dimer) -> Dimer:
    """The dual dimer: vertices are zigzag cycles, arrows keep their ids.

    An arrow's dual tail is the cycle through it as a zig and its head the
    cycle through it as a zag.  Positive faces keep their boundary traversal;
    negative boundaries reverse.  The dual carries no shift data.
    """
    d.require_valid()
    orbit_of = d.zigzag_of
    names = {}  # orbit index -> the dual vertex, in the order of zigzag_cycles
    for z in zigzag_cycles(d):
        if z.class_index:
            name = f"Z{z.class_index}.{z.parallel_index}"
        else:
            # rotate to the least zig so cycles with equal words but opposite
            # zig/zag phase (possible on duals) get distinct names
            rots = [z.arrows[2 * k:] + z.arrows[: 2 * k] for k in range(len(z.zigs))]
            word = min(rots, key=word_key)
            name = "Z_" + "_".join(str(a) for a in word)
        names[orbit_of[z.zigs[0]][0]] = name
    arrows = [
        Arrow(a.id, names[orbit_of[a.id][0]], names[orbit_of[a.id][1]], None) for a in d.arrows
    ]
    faces = []
    for f in d.faces:
        boundary = f.boundary if f.sign > 0 else tuple(reversed(f.boundary))
        faces.append(Face(f.sign, boundary))
    out = Dimer(
        name=f"{d.name}_dual",
        vertices=tuple(names.values()),
        arrows=tuple(arrows),
        faces=tuple(faces),
    )
    out.require_valid()
    return out


def surface_invariants(d_dual: Dimer):
    """(genus, punctures, euler) of the dual surface; punctures = dual vertices."""
    d_dual.require_valid()
    chi = len(d_dual.vertices) - len(d_dual.arrows) + len(d_dual.faces)
    if chi % 2:
        raise DimerError(f"odd Euler characteristic {chi}")
    return ((2 - chi) // 2, len(d_dual.vertices), chi)


def dimer_isomorphic(d1: Dimer, d2: Dimer) -> bool:
    """Quiver isomorphism preserving arrow ids, face signs and boundaries."""
    if d1.arrow_ids != d2.arrow_ids:
        return False
    vmap = {}
    for aid in d1.arrow_by_id:
        for u, w in ((d1.tail(aid), d2.tail(aid)), (d1.head(aid), d2.head(aid))):
            if vmap.setdefault(u, w) != w:
                return False
    if len(set(vmap.values())) != len(vmap) or len(vmap) != len(d1.vertices):
        return False
    faces2 = [(f.sign, f.boundary) for f in d2.faces]
    for f in d1.faces:
        hit = None
        for k, (s2, b2) in enumerate(faces2):
            if s2 == f.sign and cyclic_equal(f.boundary, b2):
                hit = k
                break
        if hit is None:
            return False
        faces2.pop(hit)
    return not faces2
