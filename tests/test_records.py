"""The record classes keep the contract of the dataclasses they replaced.

Each reference below is the dataclass the package declared before its
records were written out as plain classes, with the same fields and
``field(...)`` options.  On the real objects built from the oracle zoo, each
record must agree with its reference on ``repr``, equality, hashing and, where
the record keeps a ``__dict__``, ``vars()``.  The frozen records must refuse
assignment.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Optional

import pytest

from dimermirror import dimer as dimer_mod
from dimermirror import hochschild, jacobi, ks, matchings, mirror_sh
from dimermirror.dimer import Dimer, Vec, parallel_classes, strips, zigzag_cycles
from dimermirror.io import dimer_from_dict
from dimermirror.matchings import matching_basis, matching_polytope
from dimermirror.mirror_sh import SHError
from test_matchings import ORACLE_ZOO

# -- the references: the dataclasses as the package declared them ---------------


@dataclass(frozen=True)
class Arrow:
    id: object
    tail: object
    head: object
    shift: Optional[Vec]


@dataclass(frozen=True)
class Face:
    sign: int
    boundary: tuple


@dataclass(frozen=True)
class Issue:
    code: str
    message: str
    witness: object = None


@dataclass
class ValidationReport:
    ok: bool
    issues: list = field(default_factory=list)


@dataclass(frozen=True)
class ZigzagCycle:
    arrows: tuple
    zigs: tuple
    zags: tuple
    homology: Optional[Vec]
    class_index: int = 0
    parallel_index: int = 0


@dataclass(frozen=True)
class StripDecomposition:
    class_index: int
    strips: tuple
    cycles: tuple
    boundary: tuple


@dataclass(frozen=True)
class CyclicPoly:
    terms: tuple


@dataclass(frozen=True)
class PathClass:
    tail: object
    head: object
    h1: Vec
    w0: int
    witness: Optional[tuple] = field(default=None, compare=False, hash=False)


@dataclass(frozen=True)
class E2Label:
    kind: str
    i: int = 0
    j: int = 0
    n: int = 0
    v: object = None


@dataclass
class Check:
    name: str
    status: str
    detail: object = None


@dataclass
class KSReport:
    dimer: str
    checks: list = field(default_factory=list)


@dataclass(frozen=True)
class PerfectMatching:
    edges: frozenset
    height: Optional[Vec] = None


@dataclass(frozen=True)
class HullEdge:
    class_index: int
    normal: Vec
    start: Vec
    end: Vec
    lattice_length: int


@dataclass
class MatchingPolytope:
    hull: list
    edges: list
    boundary_count: int
    interior_count: int
    corners: dict
    normalized_area: int
    dimer: Dimer = field(repr=False)
    arrow_class: dict = field(repr=False)
    reference: PerfectMatching = field(repr=False)
    reference_class: Vec = field(repr=False)
    _points: Optional[dict] = field(default=None, repr=False, compare=False)


@dataclass
class MatchingBasis:
    matchings: list
    dim_W: int
    free: list = field(repr=False)


@dataclass
class SHBasis:
    unit: tuple
    odd_rank: int
    e_labels: list
    f_labels: list
    genus: int
    punctures: int


REFERENCES = {
    dimer_mod.Arrow: Arrow,
    dimer_mod.Face: Face,
    dimer_mod.Issue: Issue,
    dimer_mod.ValidationReport: ValidationReport,
    dimer_mod.ZigzagCycle: ZigzagCycle,
    dimer_mod.StripDecomposition: StripDecomposition,
    jacobi.CyclicPoly: CyclicPoly,
    jacobi.PathClass: PathClass,
    hochschild.E2Label: E2Label,
    ks.Check: Check,
    ks.KSReport: KSReport,
    matchings.PerfectMatching: PerfectMatching,
    matchings.HullEdge: HullEdge,
    matchings.MatchingPolytope: MatchingPolytope,
    matchings.MatchingBasis: MatchingBasis,
    mirror_sh.SHBasis: SHBasis,
}
FROZEN = {record for record, ref in REFERENCES.items() if ref.__dataclass_params__.frozen}


def field_values(ref: type, obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(ref)}


# -- the real objects --------------------------------------------------------------


def broken_dimer(raw: dict) -> Dimer:
    """``raw`` with its last face dropped and its first arrow listed twice:
    a dimer whose validation reports issues."""
    raw = {**raw, "faces": raw["faces"][:-1], "arrows": raw["arrows"] + raw["arrows"][:1]}
    return dimer_from_dict(raw)


def records_of(raw: dict) -> list:
    """Every record object the pipeline builds on one dimer, and its issues once broken."""
    d = dimer_from_dict(raw)
    out = [*d.arrows, *d.faces, d.validate(), *zigzag_cycles(d)]
    out += [strips(d, i) for i in range(1, len(parallel_classes(d)) + 1)]
    mp = matching_polytope(d)
    out += [mp, *mp.edges, *mp.corners.values(), mp.reference, matching_basis(d)]
    mp.points  # fills _points, which equality leaves out
    try:
        v = ks.KSVerifier(d, n_max=3)
    except SHError:  # xi_v on conifold 2x2 and 3x2 (ROADMAP item 1)
        K = hochschild.KoszulComplex(jacobi.Jacobi(d))
        sh = mirror_sh.MirrorSH(d)
    else:
        K, sh = v.K, v.sh
        report = v.verify_all()
        out += [report, *report.checks]
    jac = K.jac
    out += [jac.superpotential, sh.sh_basis(3)]
    out += [*K._arrow_cls.values(), *jac.central_W().values(), jac.idempotent(d.vertices[0])]
    out += K.e2_basis("even", 3) + K.e2_basis("odd", 3)
    broken = broken_dimer(raw).validate()
    return out + [broken, *broken.issues]


@pytest.fixture(scope="module")
def zoo_records(covers) -> list:
    out = []
    for name, k, l in ORACLE_ZOO:
        raw = covers.load_base(name) if (k, l) == (1, 1) else covers.cover(covers.load_base(name), k, l)
        out += records_of(raw)
    return out


# -- the contract ---------------------------------------------------------------


def test_the_zoo_builds_every_record_class(zoo_records):
    assert {type(r) for r in zoo_records} == set(REFERENCES)


def test_repr_hash_and_vars_match_the_reference(zoo_records):
    for obj in zoo_records:
        ref = REFERENCES[type(obj)](**field_values(REFERENCES[type(obj)], obj))
        assert repr(obj) == repr(ref)
        if type(obj) in FROZEN:
            assert hash(obj) == hash(ref)
        else:
            assert type(obj).__hash__ is None
            with pytest.raises(TypeError):
                hash(obj)
        if hasattr(obj, "__dict__"):  # in field order, as the dataclass fills it
            assert list(vars(obj).items()) == list(vars(ref).items())


def test_equality_matches_the_reference(zoo_records):
    # a rebuilt copy, a copy with one field changed, and the zoo neighbours of
    # the same class are equal to the record exactly when the reference says so
    rng = random.Random(0)
    by_class: dict = {}
    for obj in zoo_records:
        by_class.setdefault(type(obj), []).append(obj)
    for record, objs in by_class.items():
        ref = REFERENCES[record]
        for obj in objs:
            values = field_values(ref, obj)
            others = [record(**values)] + rng.sample(objs, min(len(objs), 3))
            for name in values:
                others.append(record(**{**values, name: object()}))
            for other in others:
                want = ref(**values) == ref(**field_values(ref, other))
                assert (obj == other) is want and (obj != other) is (not want), (record, obj, other)
                if want and record in FROZEN:
                    assert hash(obj) == hash(other)
            assert obj != field_values(ref, obj) and obj != "a string"


def test_a_path_class_leaves_its_witness_out():
    a = jacobi.PathClass("v", "w", (1, 0), 2, ("x",))
    b = jacobi.PathClass("v", "w", (1, 0), 2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == "PathClass(tail='v', head='w', h1=(1, 0), w0=2, witness=('x',))"


def test_frozen_records_refuse_assignment(zoo_records):
    seen = set()
    for obj in zoo_records:
        if type(obj) not in FROZEN or type(obj) in seen:
            continue
        seen.add(type(obj))
        for name in field_values(REFERENCES[type(obj)], obj):
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is before
    assert seen == FROZEN


def test_mutable_records_take_assignment(zoo_records):
    seen = set()
    for obj in zoo_records:
        if type(obj) in FROZEN or type(obj) in seen:
            continue
        seen.add(type(obj))
        values = field_values(REFERENCES[type(obj)], obj)
        copy = type(obj)(**values)
        name = next(iter(values))
        setattr(copy, name, "changed")
        assert getattr(copy, name) == "changed" and copy != obj
    assert seen == set(REFERENCES) - FROZEN


def test_list_defaults_are_fresh():
    a, b = dimer_mod.ValidationReport(True), dimer_mod.ValidationReport(True)
    assert a.issues == [] and a.issues is not b.issues
    r, s = ks.KSReport("x"), ks.KSReport("x")
    assert r.checks == [] and r.checks is not s.checks
