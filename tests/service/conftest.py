"""Leak attribution for the service tests."""

from __future__ import annotations

import gc
import sys

import pytest


@pytest.fixture(autouse=True)
def collect_garbage_after_test():
    """An unclosed transport or socket warns from ``__del__``, whenever
    the collector gets to it.  CI runs this directory under ``-X dev``
    with ResourceWarning and pytest's unraisable-exception warning as
    errors; collecting here charges the warning to the test that leaked.
    """
    yield
    if sys.flags.dev_mode:
        gc.collect()
