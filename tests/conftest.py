from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from dimermirror import load_bundled
from dimermirror.hochschild import KoszulComplex
from dimermirror.jacobi import Jacobi
from dimermirror.ks import KSVerifier
from dimermirror.mirror_sh import MirrorSH

NAMES = ("c3", "conifold", "spp")
COVERS = Path(__file__).resolve().parent.parent / "perfbench" / "covers.py"


@pytest.fixture(scope="session")
def dimers():
    return {name: load_bundled(name) for name in NAMES}


@pytest.fixture(scope="session")
def jacobis(dimers):
    return {name: Jacobi(d) for name, d in dimers.items()}


@pytest.fixture(scope="session")
def complexes(jacobis):
    return {name: KoszulComplex(jac) for name, jac in jacobis.items()}


@pytest.fixture(scope="session")
def sh_models(dimers):
    return {name: MirrorSH(d) for name, d in dimers.items()}


@pytest.fixture(scope="session")
def verifiers(dimers):
    return {name: KSVerifier(d) for name, d in dimers.items()}


@pytest.fixture(scope="session")
def covers():
    """The benchmark's input generator, ``perfbench/covers.py``.

    It builds lattice covers (``cover``), seeded relabelings (``relabel``) and
    the base polygon areas (``BASE_AREA``) from the bundled JSON without
    importing the package, so its inputs are independent of the code under test.
    """
    spec = importlib.util.spec_from_file_location("perfbench_covers", COVERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def lattice_cover(covers):
    """(name, k, l) -> the k x l diagonal lattice cover of a bundled dimer, as JSON data."""
    return lambda name, k, l: covers.cover(covers.load_base(name), k, l)
