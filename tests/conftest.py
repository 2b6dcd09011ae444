import pytest

from gwcalc import builtin_model, build_potential, fano3_solve, nd_plane


@pytest.fixture(scope="session")
def p2():
    return builtin_model("p2")


@pytest.fixture(scope="session")
def p3():
    return builtin_model("p3")


@pytest.fixture(scope="session")
def q3():
    return builtin_model("q3")


@pytest.fixture(scope="session")
def plane_table():
    return nd_plane(6)


@pytest.fixture(scope="session")
def p3_table():
    return fano3_solve("p3", 4)


@pytest.fixture(scope="session")
def q3_table():
    return fano3_solve("q3", 4)


@pytest.fixture(scope="session")
def plane_potential(plane_table):
    return build_potential(plane_table, 18)


@pytest.fixture(scope="session")
def p3_potential(p3_table):
    return build_potential(p3_table, 16)


@pytest.fixture(scope="session")
def q3_potential(q3_table):
    return build_potential(q3_table, 12)
