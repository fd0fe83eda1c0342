import pytest

from globalcert import IdAssignment, clique, cycle


@pytest.fixture
def k2():
    return clique(2)


@pytest.fixture
def k3():
    return clique(3)


@pytest.fixture
def c4():
    return cycle(4)


@pytest.fixture
def c5():
    return cycle(5)


def ids_seq(values, id_range):
    return IdAssignment(tuple(values), id_range)
