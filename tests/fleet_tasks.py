"""Module-level task functions for fleet tests.

Fleet workers resolve tasks by ``module:qualname``, so test tasks must
live in an importable plain module — the worker subprocesses get this
directory appended to their PYTHONPATH.  Keep everything here pure and
dependency-free.
"""

from __future__ import annotations

import time


def double(item):
    return item * 2


def slow_double(item):
    """``(value, delay_s)`` -> value * 2, after sleeping ``delay_s``.

    The sleep holds a lease open long enough for worker-death tests to
    kill the process mid-task deterministically.
    """
    value, delay = item
    time.sleep(delay)
    return value * 2


def nothing(item):
    return None


def fail_on_negative(item):
    if item < 0:
        raise ValueError(f"task rejects negative input {item}")
    return item + 100

