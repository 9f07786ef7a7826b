"""How many memory blocks repeated calls leave allocated.

Objects parked on the interpreter's free lists are neither live nor on the
collector's list, so `gc.get_objects()` does not see them; the block count
of `sys.getallocatedblocks()` does.
"""

import gc
import sys


def blocks_left_by(call, times: int, warm_up: int = 100) -> int:
    """The change in allocated blocks over `times` calls of `call()`.

    A full collection first empties the free lists, so that tuples the calls
    park there are counted. Warm-up calls then fill what any steady caller
    keeps: caches and the free lists' working set. The collector stays off
    until the count is read, so that no collection empties the lists midway.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(warm_up):
            call()
        before = sys.getallocatedblocks()
        for _ in range(times):
            call()
        return sys.getallocatedblocks() - before
    finally:
        if was_enabled:
            gc.enable()
