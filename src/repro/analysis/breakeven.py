"""Break-even analysis between policy curves.

§4.2.2 reads the break-even points off Fig 12: "The break-even point
where migration gets worse than using fixed objects are 6 clients. ...
The break even rises to 20 concurrent clients [for the place-policy]."
This module finds such crossings on sampled curves by linear
interpolation, and fits the growth rate of a curve (the paper argues
conventional migration grows linearly in C while placement grows
sublinearly with a decreasing rate).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def crossings(
    x: Sequence[float],
    y_a: Sequence[float],
    y_b: Sequence[float],
) -> List[float]:
    """All x where curve A crosses curve B (A−B changes sign).

    Linear interpolation between samples; exact-touch points count
    once.  Inputs must share a strictly increasing x grid.
    """
    x = np.asarray(x, dtype=float)
    if len(x) != len(y_a) or len(x) != len(y_b):
        raise ValueError("x, y_a, y_b must have equal lengths")
    if len(x) < 2:
        return []
    if not np.all(np.diff(x) > 0):
        raise ValueError("x must be strictly increasing")
    diff = np.asarray(y_a, dtype=float) - np.asarray(y_b, dtype=float)

    out: List[float] = []
    for i in range(len(x) - 1):
        d0, d1 = diff[i], diff[i + 1]
        if d0 == 0.0:
            out.append(float(x[i]))
            continue
        if d0 * d1 < 0:
            # Sign change strictly inside the interval.
            t = d0 / (d0 - d1)
            out.append(float(x[i] + t * (x[i + 1] - x[i])))
    if diff[-1] == 0.0:
        out.append(float(x[-1]))
    return out


def break_even(
    x: Sequence[float],
    y_policy: Sequence[float],
    y_baseline: Sequence[float],
) -> Optional[float]:
    """First x where the policy becomes *worse* than the baseline.

    Returns ``None`` when the policy never exceeds the baseline over
    the sampled range (the paper's "break-even will be even bigger"
    case).
    """
    points = crossings(x, y_policy, y_baseline)
    y_policy = np.asarray(y_policy, dtype=float)
    y_baseline = np.asarray(y_baseline, dtype=float)
    for point in points:
        # Keep only crossings where the policy goes from below to above.
        after = np.searchsorted(np.asarray(x, dtype=float), point, side="right")
        if after < len(y_policy) and y_policy[after] > y_baseline[after]:
            return point
    return None


def growth_rate(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and intercept of y over x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points")
    slope, intercept = np.polyfit(x, y, deg=1)
    return float(slope), float(intercept)


def is_sublinear(x: Sequence[float], y: Sequence[float]) -> bool:
    """Whether the curve's local slope decreases over the range.

    Compares the average slope of the first and last halves (which
    share the middle point, so three points suffice); used to check the
    paper's claim that the place-policy curve "grows sublinearly in the
    number of clients and the growing rate decreases".
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ValueError("need at least three points")
    mid = len(x) // 2
    first, _ = growth_rate(x[: mid + 1], y[: mid + 1])
    second, _ = growth_rate(x[mid:], y[mid:])
    return second < first
