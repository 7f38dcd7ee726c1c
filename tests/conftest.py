import os
from pathlib import Path

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

# pyproject.toml puts src/ on the tests' import path; the CLI tests that start
# `python -m fracapprox` in a subprocess need it there too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


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
