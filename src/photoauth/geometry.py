"""Axis-aligned box geometry for photo verification.

Boxes are continuous regions in pixel coordinates: (x, y) is the top-left
corner, y grows downward. All metrics treat boxes as real-valued areas,
not pixel grids.
"""

from __future__ import annotations

from math import inf, isfinite
from typing import NamedTuple

_new = tuple.__new__


class _BoxFields(NamedTuple):
    x: float
    y: float
    width: float
    height: float


class BoundingBox(_BoxFields):
    """Rectangle with strictly positive size and non-negative position."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, width: float, height: float):
        # Four floats that pass every check below take one chained comparison
        # each; anything else is checked, and refused, as before.
        if (
            type(x) is type(y) is type(width) is type(height) is float
            and 0.0 <= x < inf
            and 0.0 <= y < inf
            and 0.0 < width < inf
            and 0.0 < height < inf
        ):
            return _new(cls, (x, y, width, height))
        if not (isfinite(x) and isfinite(y) and isfinite(width) and isfinite(height)):
            bad = next(v for v in (x, y, width, height) if not isfinite(v))
            raise ValueError(f"box coordinates must be finite, got {bad!r}")
        if x < 0 or y < 0:
            raise ValueError(f"box position must be non-negative, got ({x}, {y})")
        if width <= 0 or height <= 0:
            raise ValueError(f"box size must be positive, got {width}x{height}")
        return _new(cls, (x, y, width, height))


class _ResolutionFields(NamedTuple):
    width: int
    height: int


class Resolution(_ResolutionFields):
    """Image size in whole pixels."""

    __slots__ = ()

    def __new__(cls, width: int, height: int):
        if width <= 0 or height <= 0:
            raise ValueError(f"resolution must be positive, got {width}x{height}")
        try:
            fits = 0.0 < float(width) < inf and 0.0 < float(height) < inf
        except OverflowError as exc:
            raise ValueError("resolution must be finite and fit a float") from exc
        if not fits:
            raise ValueError("resolution must be finite and fit a float")
        return _new(cls, (width, height))


def area(box: BoundingBox) -> float:
    """Area of a box in square pixels."""
    return box.width * box.height


def intersection_area(a: BoundingBox, b: BoundingBox) -> float:
    """Area of the overlap between two boxes, 0.0 when disjoint."""
    # min/max written out, each keeping the builtin's choice on ties.
    ax, bx = a.x, b.x
    ar, br = ax + a.width, bx + b.width
    dx = (br if br < ar else ar) - (bx if bx > ax else ax)
    if dx <= 0:
        return 0.0
    ay, by = a.y, b.y
    ab, bb = ay + a.height, by + b.height
    dy = (bb if bb < ab else ab) - (by if by > ay else ay)
    if dy <= 0:
        return 0.0
    return dx * dy


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes.

    Symmetric, in [0, 1]. Used to judge whether a predicted address-bar
    box matches the ground-truth one.
    """
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter
    if union <= 0:
        return 0.0
    return min(inter / union, 1.0)


def cover_rate(text_box: BoundingBox, addrbar_box: BoundingBox) -> float:
    """Fraction of the text box that lies inside the address-bar box.

    Normalized by the text box area only, so the metric is asymmetric:
    a small text fully inside a large bar scores 1.0 while the reverse
    does not. In [0, 1]; the overlap is recomputed from box edges, so the
    ratio is clamped against one-ulp float spill past 1.0. A text box so
    thin that its area underflows to 0.0 scores 0.0.
    """
    # area() written out. A text box whose area underflows to 0.0 covers
    # nothing; it is not divided by.
    text_area = text_box.width * text_box.height
    if text_area == 0.0:
        return 0.0
    # min(rate, 1.0) written out, keeping the builtin's choice on ties.
    rate = intersection_area(text_box, addrbar_box) / text_area
    return 1.0 if 1.0 < rate else rate
