"""The cyclic garbage collector held off, for tests that count what only it frees."""

import gc
from contextlib import contextmanager


@contextmanager
def collector_off():
    """Disable the cyclic collector for the block, its backlog emptied first.

    Inside, gc.collect() returns the number of unreachable objects left
    since the last call, which reference counting could not free. The
    collector's earlier state is restored on the way out. Catch exceptions
    inside with plain try/except: pytest.raises keeps the traceback, and
    with it the frames, reachable, which hides a cycle through them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        yield
    finally:
        if enabled:
            gc.enable()
