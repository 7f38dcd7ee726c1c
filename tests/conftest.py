import pytest
from hypothesis import settings

from fracapprox.ifs import (
    cantor_middle_thirds,
    four_corner_dust,
    koch_curve,
    sierpinski_gasket,
)

# Property tests draw the same examples on every run (no example database, no
# random seed), and a slow machine cannot fail them on time alone.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture(scope="session")
def cantor():
    return cantor_middle_thirds()


@pytest.fixture(scope="session")
def gasket():
    return sierpinski_gasket()


@pytest.fixture(scope="session")
def dust():
    return four_corner_dust()


@pytest.fixture(scope="session")
def koch():
    return koch_curve()
