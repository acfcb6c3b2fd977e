import numpy as np
import pytest
from hypothesis import settings

from wfamin.wfa import Wfa

# property tests draw the same examples on every run and keep no example
# database, so a tier-1 result does not depend on an earlier run
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def qr_calls(monkeypatch):
    """A list that gains one entry per ``np.linalg.qr`` call during the test."""
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


@pytest.fixture
def geometric_wfa():
    """One state, one letter: f(k) = 0.5**k."""
    return Wfa([1.0], [[[0.5]]], [1.0])


@pytest.fixture
def two_state_wfa():
    """Two states, one letter, diagonal transitions 0.5 and -0.3."""
    return Wfa([1.0, 1.0], [np.diag([0.5, -0.3])], [1.0, 1.0])


@pytest.fixture
def nilpotent_wfa():
    """Two letters; realizes the indicator of the language a b*."""
    return Wfa(
        [1.0, 0.0],
        [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])],
        [0.0, 1.0],
    )
