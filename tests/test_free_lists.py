"""A check leaves nothing behind in the interpreter's free lists.

CPython keeps freed tuples of each length below 20 on a free list, up to
2000 of them.  A tuple built from a generator (``tuple(genexpr)``, or
``f(*genexpr)``) is resized to its length, so it is never taken from that
list, but it is put back on it when freed.  Each such construction on a hot
path adds one tuple to a free list until the list is full, and only a full
garbage collection empties them again: over a run of checks that held about
1 MB, and where it landed decided whether a long run's peak memory came out
high or low.  Built from a list, the tuple comes from the free list and
goes back to it, so nothing accumulates.
"""

import gc
import sys

import pytest

from qident.identities import REGISTRY, run_check

TRIALS = 20
# Other free lists (lists, dicts, floats) hold at most 80-100 objects each;
# one tuple per trial and step on a hot path left 500 to 2300.
RESIDUE_CAP = 300


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython free lists")
@pytest.mark.parametrize("check", REGISTRY, ids=lambda c: c.id)
def test_a_check_leaves_no_free_list_residue(check):
    run_check(check, TRIALS, 0)  # warm every cache and free list first
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run_check(check, TRIALS, 1_000_000)
        before = sys.getallocatedblocks()
        gc.collect()  # a full collection empties the free lists
        residue = before - sys.getallocatedblocks()
    finally:
        if enabled:
            gc.enable()
    assert residue < RESIDUE_CAP
