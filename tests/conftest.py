import random

import pytest

from trotopt import CliffordTableau

from _helpers import MOD5_4


@pytest.fixture
def rng():
    return random.Random(0xC11F)


@pytest.fixture(scope="session")
def mod5_4_text():
    return MOD5_4.read_text(encoding="utf-8")


@pytest.fixture
def no_invert(monkeypatch):
    """Make any invert() call, such as the read of a deferred tail, fail."""

    def forbidden(self):
        raise AssertionError("invert() called")

    monkeypatch.setattr(CliffordTableau, "invert", forbidden)
