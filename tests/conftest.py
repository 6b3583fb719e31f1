import pytest

from permupoly import build_field


@pytest.fixture(scope="session")
def gf2():
    return build_field(2, 1)


@pytest.fixture(scope="session")
def gf4():
    return build_field(2, 2)


@pytest.fixture(scope="session")
def gf8():
    return build_field(2, 3)


@pytest.fixture(scope="session")
def gf16():
    return build_field(2, 4)


@pytest.fixture(scope="session")
def gf64():
    return build_field(2, 6)


@pytest.fixture(scope="session")
def gf256():
    return build_field(2, 8)


@pytest.fixture(scope="session")
def gf625():
    return build_field(5, 4)


# GF(2^17) is two full KERNEL_BLOCK slices, GF(5^7) one and a short one,
# and GF(3^11) three, the last short
SLICED_FIELDS = {(2, 17): 2, (5, 7): 2, (3, 11): 3}


@pytest.fixture(scope="session", params=list(SLICED_FIELDS),
                ids=lambda pn: f"{pn[0]}^{pn[1]}")
def sliced_field(request):
    return build_field(*request.param)
