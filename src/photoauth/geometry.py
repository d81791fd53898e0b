"""Axis-aligned box geometry for photo verification.

Boxes are continuous regions in pixel coordinates: (x, y) is the top-left
corner, y grows downward. All metrics treat boxes as real-valued areas,
not pixel grids.
"""

from __future__ import annotations

from math import isfinite
from typing import NamedTuple


class _BoxFields(NamedTuple):
    x: float
    y: float
    width: float
    height: float


class BoundingBox(_BoxFields):
    """Rectangle with strictly positive size and non-negative position."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, width: float, height: float):
        if not (isfinite(x) and isfinite(y) and isfinite(width) and isfinite(height)):
            bad = next(v for v in (x, y, width, height) if not isfinite(v))
            raise ValueError(f"box coordinates must be finite, got {bad!r}")
        if x < 0 or y < 0:
            raise ValueError(f"box position must be non-negative, got ({x}, {y})")
        if width <= 0 or height <= 0:
            raise ValueError(f"box size must be positive, got {width}x{height}")
        return tuple.__new__(cls, (x, y, width, height))

    @property
    def right(self) -> float:
        return self.x + self.width

    @property
    def bottom(self) -> float:
        return self.y + self.height

    def contains(self, other: "BoundingBox") -> bool:
        """True when `other` lies entirely inside this box."""
        x, y, ox, oy = self.x, self.y, other.x, other.y
        return (
            ox >= x
            and oy >= y
            and ox + other.width <= x + self.width
            and oy + other.height <= y + self.height
        )


class _ResolutionFields(NamedTuple):
    width: int
    height: int


class Resolution(_ResolutionFields):
    """Image size in whole pixels.

    Unlike the other validated records it keeps a `__dict__`, to hold the
    bounds box built once here: every photo and layout checks its boxes
    against it.
    """

    def __new__(cls, width: int, height: int):
        if width <= 0 or height <= 0:
            raise ValueError(f"resolution must be positive, got {width}x{height}")
        try:
            bounds = BoundingBox(0, 0, float(width), float(height))
        except (OverflowError, ValueError) as exc:
            raise ValueError("resolution must be finite and fit a float") from exc
        self = tuple.__new__(cls, (width, height))
        self._bounds = bounds
        return self

    def bounds(self) -> BoundingBox:
        return self._bounds


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
    ratio is clamped against one-ulp float spill past 1.0.
    """
    return min(intersection_area(text_box, addrbar_box) / area(text_box), 1.0)
