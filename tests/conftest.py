import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ggtlab.groups import model_from_descriptor, parse_word
from ggtlab.spaces import top_level_orbit


@pytest.fixture(scope="session")
def f2():
    return model_from_descriptor("F2")


@pytest.fixture(scope="session")
def z2():
    return model_from_descriptor("Z^2")


@pytest.fixture(scope="session")
def z2z():
    return model_from_descriptor("Z^2 * Z")


@pytest.fixture(scope="session")
def z2z_by_z():
    return model_from_descriptor("(Z^2 * Z) x Z")


@pytest.fixture(scope="session")
def f2xz():
    return model_from_descriptor("F2 x Z")


@pytest.fixture(scope="session")
def f2_orbit(f2):
    return top_level_orbit(f2)


@pytest.fixture(scope="session")
def bs_orbit(z2z):
    return top_level_orbit(z2z)


def w(model, text):
    return parse_word(model, text)
