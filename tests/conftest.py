# Anchors the tests directory on sys.path so tests can import `oracles`.

import gc

import pytest


@pytest.fixture
def garbage_left():
    """``garbage_left(fn, *args)``: how many objects ``gc.collect()`` frees
    after ``fn(*args)`` runs with the collector off, that is, what the call
    left in reference cycles."""

    def run(fn, *args) -> int:
        gc.collect()
        gc.disable()
        try:
            fn(*args)
            return gc.collect()
        finally:
            gc.enable()

    return run
