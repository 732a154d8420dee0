"""Shared instances.  Session scope: every window build re-verifies exact
eigenvector and independence properties, so rebuilding per test would just
re-run the same checks."""

from fractions import Fraction

import pytest

from ealie import matlie
from ealie.constructions import SqrtExtensionAlgebra, TorusMatrixAlgebra, affinize
from ealie.decomp import core_and_center_window, decompose_window
from ealie.quantum_torus import SignMatrix

Q_MIXED = SignMatrix.from_upper(2, [-1])
Q_TRIVIAL = SignMatrix(0)


def assert_int_first(v):
    """An exact rational stored canonically: an int, or a Fraction that is not integral."""
    assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


@pytest.fixture
def wrong_closed_form(monkeypatch):
    """Weight-0 closed forms whose real part misses its last vector, so they
    span less than the slice."""
    closed_form_case = matlie._closed_form_case

    def wrong(ell, q, gamma):
        case, real, imag = closed_form_case(ell, q, gamma)
        return case, real[:-1], imag

    monkeypatch.setattr(matlie, "_closed_form_case", wrong)


@pytest.fixture(scope="session")
def torus_alg():
    return TorusMatrixAlgebra(2, Q_MIXED)


@pytest.fixture(scope="session")
def torus_win(torus_alg):
    return decompose_window(torus_alg, 1)


@pytest.fixture(scope="session")
def torus_win2(torus_alg):
    return decompose_window(torus_alg, 2)


@pytest.fixture(scope="session")
def aff_alg():
    return affinize(TorusMatrixAlgebra(2, Q_MIXED))


@pytest.fixture(scope="session")
def aff_win(aff_alg):
    return decompose_window(aff_alg, 1)


@pytest.fixture(scope="session")
def aff_win2(aff_alg):
    return decompose_window(aff_alg, 2)


@pytest.fixture(scope="session")
def aff_core(aff_win):
    return core_and_center_window(aff_win)


@pytest.fixture(scope="session")
def sp4_alg():
    return TorusMatrixAlgebra(2, Q_TRIVIAL, real_only=True)


@pytest.fixture(scope="session")
def sp4_win(sp4_alg):
    return decompose_window(sp4_alg, 1)


@pytest.fixture(scope="session")
def sp4_core(sp4_win):
    return core_and_center_window(sp4_win)


@pytest.fixture(scope="session")
def sqrt_alg():
    return SqrtExtensionAlgebra(2, [2, 3])


@pytest.fixture(scope="session")
def sqrt_win(sqrt_alg):
    return decompose_window(sqrt_alg, 1)


@pytest.fixture(scope="session")
def sqrt_core(sqrt_win):
    return core_and_center_window(sqrt_win)


@pytest.fixture(scope="session")
def underived_win():
    """Nullity 1, underived: the window centralizer of the core leaves the core."""
    return decompose_window(affinize(TorusMatrixAlgebra(2, SignMatrix(1), derived=False)), 1)


@pytest.fixture(scope="session")
def underived_core(underived_win):
    return core_and_center_window(underived_win)
