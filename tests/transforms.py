"""Counting the FFTs of the simulation engine, for guards on what a run
costs.

``count_transforms(monkeypatch)`` wraps ``np.fft.rfft`` and ``irfft`` and
returns a list that gains one :class:`Transform` per series transformed: a
call on a stack of k series (one per row) counts k times, so the count
measures work, not calls.  Each records its length, the function of
``lqrfopid.sim`` that asked for it and, inside the error series, the block
being formed.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from lqrfopid import sim

# generic product helpers: a transform is charged to the function that
# asked them for the product (comprehensions, "<listcomp>" and the like,
# to the function they are in)
PRODUCT_HELPERS = frozenset({"_series_mul"})


class Transform(NamedTuple):
    size: int
    # the innermost function of lqrfopid.sim past the product helpers
    caller: str | None
    # (m, t) of the block of _error_series being formed, else None
    block: tuple[int, int] | None


def count_transforms(monkeypatch) -> list[Transform]:
    records: list[Transform] = []
    for name in ("rfft", "irfft"):
        transform = getattr(np.fft, name)

        def counted(a, n=None, *args, _transform=transform, **kwargs):
            shape = np.shape(a)
            rows = math.prod(shape[:-1])
            records.extend([_charge(sys._getframe(1), n if n is not None else shape[-1])] * rows)
            return _transform(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return records


def _charge(frame, size: int) -> Transform:
    caller = block = None
    while frame is not None:
        code = frame.f_code
        if code.co_filename == sim.__file__:
            if caller is None and not (code.co_name in PRODUCT_HELPERS
                                       or code.co_name.startswith("<")):
                caller = code.co_name
            if code.co_name == "_error_series":
                block = (frame.f_locals["m"], frame.f_locals["t"])
                break
        frame = frame.f_back
    return Transform(size, caller, block)
