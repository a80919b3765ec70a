import os
from pathlib import Path

import pytest

import quivrep
from quivrep import fixtures as fx
from quivrep.algebra import projective
from quivrep.rep import cokernel, hom_space


@pytest.fixture(scope="session")
def kronecker():
    return fx.kronecker()


@pytest.fixture(scope="session")
def kron_projectives(kronecker):
    pa, _ = projective(kronecker, "a")
    pb, _ = projective(kronecker, "b")
    return pa, pb


@pytest.fixture(scope="session")
def kron_seed(kronecker, kron_projectives):
    return fx.kronecker_regular_seed(kronecker)


@pytest.fixture(scope="session")
def kron_regular(kron_seed):
    """The length-2 regular module H = coker(w0)."""
    return cokernel(kron_seed[0])[0]


@pytest.fixture(scope="session")
def three_kron():
    return fx.three_kronecker()


@pytest.fixture(scope="session")
def warning_data(three_kron):
    return fx.three_kronecker_warning_data(three_kron)


@pytest.fixture(scope="session")
def d4():
    return fx.d4_subspace()


@pytest.fixture(scope="session")
def d4_seed(d4):
    return fx.d4_seed(d4)


@pytest.fixture(scope="session")
def loop_beta():
    return fx.loop_beta()


@pytest.fixture(scope="session")
def loop_square():
    return fx.loop_square()


@pytest.fixture(scope="session")
def tower():
    return fx.commuting_square_tower()


@pytest.fixture(scope="session")
def src_env():
    """Environment for a subprocess that imports the quivrep under test."""
    src = str(Path(quivrep.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
