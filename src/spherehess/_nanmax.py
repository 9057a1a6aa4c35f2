"""The NaN-propagating maximum that every residual check takes.

Stdlib only, so the commands that take it import no numpy for it.
"""

from __future__ import annotations

from typing import Iterable


def nan_max(values: Iterable[float]) -> float:
    """Largest of the values as a float, NaN if any of them is NaN.

    The builtin ``max`` keeps its first argument when a comparison with NaN
    is false, so a NaN after the first element would vanish and its check
    would pass.  This returns the first NaN instead, and otherwise the same
    float as ``float(numpy.max(values))``, bit for bit, except for the sign
    of a zero maximum when both signed zeros occur (numpy's choice between
    them depends on its vector lanes).  Like ``numpy.max(list(values))`` it
    consumes the whole input first, and an empty input raises ValueError.
    """
    xs = [float(v) for v in values]
    if not xs:
        raise ValueError("nan_max of an empty sequence")
    out = xs[0]
    for v in xs:
        if v != v:
            return v
        if v > out:
            out = v
    return out
