import math

import pytest

from epscap import build_spectrum


@pytest.fixture(scope="session")
def spec_t10():
    return build_spectrum(math.pi, 10.0)


@pytest.fixture(scope="session")
def spec_t20():
    return build_spectrum(math.pi, 20.0)


@pytest.fixture(scope="session")
def spec_t40():
    return build_spectrum(math.pi, 40.0)


@pytest.fixture(scope="session")
def spec_t20_512():
    # fixed high quadrature order for frozen-value comparisons
    return build_spectrum(math.pi, 20.0, 512)


@pytest.fixture(scope="session")
def spec_t20_vectors():
    # eigenvectors are built only on request
    return build_spectrum(math.pi, 20.0, vectors=True)
