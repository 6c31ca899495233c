"""Tune-time tables: built once per parameter set, shared read-only.

Everything ``fcs_tune`` builds that is a pure function of the tune
parameters (the FMM's operators and far-field schedule, the P2NFFT influence
function) is obtained through a builder decorated with
:func:`shared_tables`.  The contract:

* **immutable** — a table object freezes every array it owns
  (:func:`freeze_arrays`), so the holders of one object cannot disturb each
  other;
* **keyed by value** — the builder's ``key`` turns its arguments into a
  hashable value (array arguments by their bytes, :func:`vector_key`); two
  solver instances with equal parameters share one object, and a miss *is*
  the cold build;
* **bounded** — at most ``maxsize`` objects are retained, and the least
  recently used one is dropped *before* a new one is built, so the peak is
  ``maxsize`` tables plus the temporaries of one build, never one more.

Modeled ``tune`` charges are the callers' and do not depend on a hit.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Callable, Hashable, NamedTuple

import numpy as np

__all__ = ["CacheInfo", "freeze_arrays", "shared_tables", "vector_key"]


class CacheInfo(NamedTuple):
    """What ``builder.cache_info()`` reports (as ``functools.lru_cache``)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


def vector_key(vector) -> bytes:
    """A float vector (box, offset) as a key component: its value, not its
    identity."""
    return np.asarray(vector, dtype=np.float64).tobytes()


def freeze_arrays(tables: object) -> None:
    """Make every array held by ``tables`` (directly, or in a list, tuple or
    dict attribute, nested) read-only, together with the arrays it is a view
    of."""
    pending = list(vars(tables).values())
    while pending:
        value = pending.pop()
        if isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, (list, tuple)):
            pending.extend(value)
        while isinstance(value, np.ndarray):
            value.flags.writeable = False
            value = value.base


def shared_tables(maxsize: int, key: Callable[..., Hashable]):
    """Decorator of a table builder: ``builder(*args)`` returns the retained
    object for ``key(*args)`` or builds it.  ``builder.cache_info()`` and
    ``builder.cache_clear()`` are the only other access to the cache."""

    def decorate(build: Callable):
        retained: "OrderedDict[Hashable, object]" = OrderedDict()
        counts = {"hits": 0, "misses": 0}

        @functools.wraps(build)
        def builder(*args, **kwargs):
            k = key(*args, **kwargs)
            if k in retained:
                counts["hits"] += 1
                retained.move_to_end(k)
                return retained[k]
            counts["misses"] += 1
            while len(retained) >= maxsize:
                retained.popitem(last=False)
            tables = retained[k] = build(*args, **kwargs)
            return tables

        def cache_info() -> CacheInfo:
            return CacheInfo(counts["hits"], counts["misses"], maxsize, len(retained))

        def cache_clear() -> None:
            retained.clear()
            counts.update(hits=0, misses=0)

        builder.cache_info = cache_info
        builder.cache_clear = cache_clear
        return builder

    return decorate
