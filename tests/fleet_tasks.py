"""Module-level task functions for fleet tests.

Fleet workers resolve tasks by ``module:qualname``, so test tasks must
live in an importable plain module — the worker subprocesses get this
directory appended to their PYTHONPATH.  Keep everything here pure and
dependency-free.
"""

from __future__ import annotations

import threading
import time


def double(item):
    return item * 2


#: where the first three items of ``meet_then_double`` wait for each other
_meeting = threading.Barrier(3, timeout=10)


def meet_then_double(item):
    """``double``, except that items 0-2 first wait for each other.

    A worker holds one lease at a time, so the three items must run on
    three different workers at once: mapped over a fleet of three
    in-process workers, every worker runs a task, however fast the
    first one to lease could drain the rest.
    """
    if item < 3:
        _meeting.wait()
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

