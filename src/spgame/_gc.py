"""Pause the cyclic garbage collector around bulk work.

Loading, normalizing and solving a game allocate O(m) tuples, lists and
dicts that stay alive until the call returns and form no reference
cycles, so every collection the allocations trigger walks live objects
and frees nothing; refcounting frees them all.  `paused` switches the
collector off for the duration of a call and leaves its thresholds, its
generations and any collection to the interpreter.
"""

import functools
import gc


def paused(fn):
    """`fn` with the collector disabled while it runs.  A call made while
    the collector is already off (a nested paused call, or a caller that
    turned it off) leaves it off; otherwise it is enabled again when the
    call returns or raises."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return call
