import pytest

from rnforms.scenario import load_shipped

from generated_instances import broken_jacobi3


@pytest.fixture(scope="session")
def aff():
    return load_shipped("aff1").instance


@pytest.fixture(scope="session")
def h3():
    return load_shipped("heisenberg3").instance


@pytest.fixture(scope="session")
def so3_inst():
    return load_shipped("so3").instance


@pytest.fixture(scope="session")
def ab2():
    return load_shipped("abelian2").instance


@pytest.fixture(scope="session")
def poly():
    return load_shipped("poly-tangent-r2").instance


@pytest.fixture(scope="session")
def broken():
    return broken_jacobi3()
