"""Pause CPython's cyclic garbage collector around bulk builders.

The measurement pipeline builds large batches of long-lived, acyclic
records (NDT and traceroute records, MAP-IT adjacency maps, unpickled
artifacts). Each batch allocates far more containers than it frees, so
the generational collector keeps triggering and its gen-2 passes rescan
the whole growing heap while finding nothing to free. Reference counting
still frees everything acyclic as usual while the collector is paused;
only cycle detection waits until the block exits.

:func:`gc_paused` is a context manager and, like every
:func:`contextlib.contextmanager`, also a decorator. It restores the
collector's previous state on exit, including on an exception, so an
already-disabled collector stays disabled and nested pauses keep it off
until the outermost one exits.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block; restore it afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
