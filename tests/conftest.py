"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

import pytest


@contextmanager
def _digit_cap(limit: int) -> Iterator[None]:
    if not hasattr(sys, "set_int_max_str_digits"):  # no cap before 3.11
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.fixture
def digit_cap():
    """`with digit_cap(limit):` runs its body under that int<->str digit cap; 0 lifts it."""
    return _digit_cap
