"""Fixtures shared by the test modules."""
import pytest

from helpers import clear_memos


@pytest.fixture
def fresh_memos():
    """Empty every per-orbit and per-root-system memo before and after the test.

    The memos keep the latest orbit's (or each root system's) result.  A
    test that replaces a function one of them reads would otherwise read
    a result made before the replacement, or leave one made with it to
    the next test on the same orbit or root system.
    """
    clear_memos()
    yield
    clear_memos()
