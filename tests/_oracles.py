"""Independent reference implementations used only to check the package.

The pixel oracle rasterizes boxes onto an integer grid and counts cells,
deliberately avoiding the interval arithmetic the package uses.

The plain versions below are the package's earlier, slower code for its
hot paths, kept as the reference their rewrites must match exactly:
same floats, same strings, same random draws.
"""

import numpy as np

from photoauth.geometry import BoundingBox
from photoauth.synth import CONFUSION_MAP, Theme, _FALLBACK_ALPHABET


def paint(box, grid=128):
    g = np.zeros((grid, grid), dtype=bool)
    x, y = int(box.x), int(box.y)
    w, h = int(box.width), int(box.height)
    g[y : y + h, x : x + w] = True
    return g


def pixel_intersection(a, b, grid=128):
    return int((paint(a, grid) & paint(b, grid)).sum())


def pixel_iou(a, b, grid=128):
    union = int((paint(a, grid) | paint(b, grid)).sum())
    if union == 0:
        return 0.0
    return pixel_intersection(a, b, grid) / union


def pixel_cover_rate(text, bar, grid=128):
    return pixel_intersection(text, bar, grid) / int(paint(text, grid).sum())


def plain_contains(outer, inner):
    return (
        inner.x >= outer.x
        and inner.y >= outer.y
        and inner.right <= outer.right
        and inner.bottom <= outer.bottom
    )


def plain_intersection_area(a, b):
    dx = min(a.right, b.right) - max(a.x, b.x)
    dy = min(a.bottom, b.bottom) - max(a.y, b.y)
    if dx <= 0 or dy <= 0:
        return 0.0
    return dx * dy


def plain_clamp_box(x, y, w, h, res):
    w = min(max(w, 1.0), float(res.width))
    h = min(max(h, 1.0), float(res.height))
    x = min(max(x, 0.0), res.width - w)
    y = min(max(y, 0.0), res.height - h)
    return BoundingBox(x, y, w, h)


def plain_ocr_noise(text, ocr, theme, rng):
    """One draw per character, appending every character to a fresh list."""
    if ocr.oracle:
        return text
    u_dot = rng.random()
    if theme is Theme.DARK and text.startswith("www.") and u_dot < ocr.dot_drop_rate_dark:
        text = "www" + text[4:]
    out = []
    for ch in text:
        u = rng.random()
        if u < ocr.sub_rate:
            choices = CONFUSION_MAP.get(ch)
            if choices is None:
                choices = _FALLBACK_ALPHABET.replace(ch, "")
            out.append(choices[rng.randrange(len(choices))])
        else:
            out.append(ch)
    return "".join(out)
