import pytest

from rnforms import abelian2, aff1, broken_jacobi3, heisenberg3, poly_tangent_r2, so3


@pytest.fixture(scope="session")
def aff():
    return aff1()


@pytest.fixture(scope="session")
def aff_sh2():
    """A second aff1, for the tests of forms graded shifted by 2."""
    return aff1()


@pytest.fixture(scope="session")
def h3():
    return heisenberg3()


@pytest.fixture(scope="session")
def h3_sh2():
    """A second heisenberg3, for the tests of forms graded shifted by 2."""
    return heisenberg3()


@pytest.fixture(scope="session")
def so3_inst():
    return so3()


@pytest.fixture(scope="session")
def ab2():
    return abelian2()


@pytest.fixture(scope="session")
def poly():
    return poly_tangent_r2()


@pytest.fixture(scope="session")
def broken():
    return broken_jacobi3()
