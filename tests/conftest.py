import pytest

import mapflow as mf

DIM = 40


def leading_window(dim: int, degree: int, power: int) -> int:
    """Rows/columns of a dim x dim truncation unpolluted by the cut-off tail.

    Comparisons of integer matrix powers (or compositions) against direct
    constructions are trustworthy on the leading block of side
    dim // (power * degree) + 1; beyond it the discarded columns feed back
    into the entries.
    """
    return min(dim, dim // (max(1, power) * max(1, degree)) + 1)


@pytest.fixture(scope="session")
def logistic4():
    return mf.logistic_series(4.0, DIM)


@pytest.fixture(scope="session")
def logistic2():
    return mf.logistic_series(2.0, DIM)


@pytest.fixture(scope="session")
def pipe4_origin(logistic4):
    """The pipeline of mu=4 at the fixed point 0."""
    return mf.pipeline(logistic4, 0.1, r_eval=0.6)


@pytest.fixture(scope="session")
def pipe4_second(logistic4):
    """The pipeline of mu=4 at the fixed point 3/4."""
    return mf.pipeline(logistic4, 0.7, r_eval=0.6)


@pytest.fixture(scope="session")
def pipe2_origin(logistic2):
    return mf.pipeline(logistic2, 0.1, r_eval=0.3)


@pytest.fixture(scope="session")
def field4(pipe4_origin):
    return pipe4_origin.field


@pytest.fixture(scope="session")
def field2(pipe2_origin):
    return pipe2_origin.field
