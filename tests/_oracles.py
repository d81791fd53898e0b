"""Independent reference implementations used only to check the package.

The pixel oracle rasterizes boxes onto an integer grid and counts cells,
deliberately avoiding the interval arithmetic the package uses.

The plain versions below are the package's earlier, slower code for its
hot paths, kept as the reference their rewrites must match exactly:
same floats, same strings, same random draws.

The `Old*` types at the end are the value types as frozen dataclasses,
each with its earlier `__post_init__` check, kept as the reference the
named tuples must match: the same inputs refused with the same message,
and equal fields giving the same `repr` and `hash`.
"""

import dataclasses
from math import isfinite

import numpy as np

from photoauth.geometry import BoundingBox, intersection_area
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


# ---------------------------------------------------------------------------
# The value types as frozen dataclasses
# ---------------------------------------------------------------------------


def check_bounding_box(self):
    x, y, w, h = self.x, self.y, self.width, self.height
    if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)):
        bad = next(v for v in (x, y, w, h) if not isfinite(v))
        raise ValueError(f"box coordinates must be finite, got {bad!r}")
    if x < 0 or y < 0:
        raise ValueError(f"box position must be non-negative, got ({x}, {y})")
    if w <= 0 or h <= 0:
        raise ValueError(f"box size must be positive, got {w}x{h}")


def check_text_region(self):
    if not isinstance(self.text, str):
        raise ValueError(f"text region text must be a string, got {type(self.text).__name__}")
    if not self.text:
        raise ValueError("text region must carry non-empty text")


def check_address_bar_prediction(self):
    if not 0.0 <= self.confidence <= 1.0:
        raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


def check_photo_analysis(self):
    bounds = self.resolution.bounds()
    for region in self.texts:
        if not bounds.contains(region.box):
            raise ValueError(f"text box outside {self.resolution}: {region.box}")
    for pred in self.addrbars:
        if not bounds.contains(pred.box):
            raise ValueError(f"address-bar box outside {self.resolution}: {pred.box}")


def check_bar_truth(self):
    if not self.box.contains(self.url_text_box):
        raise ValueError("URL text must sit inside its address bar")


def check_browser_layout(self):
    if not self.bars:
        raise ValueError("layout needs at least one address bar")
    bounds = self.resolution.bounds()
    genuine = self.bars[0].box
    for bar in self.bars:
        if not bounds.contains(bar.box):
            raise ValueError("address bar outside the screenshot")
    for region in self.title_boxes + self.content_boxes:
        if not bounds.contains(region.box):
            raise ValueError("text region outside the screenshot")
        if intersection_area(region.box, genuine) > 0:
            raise ValueError("title/content text may not overlap the genuine bar")


def _frozen(name, fields, check=None, **namespace):
    if check is not None:
        namespace["__post_init__"] = check
    return dataclasses.make_dataclass(name, fields, frozen=True, namespace=namespace)


OldBoundingBox = _frozen("BoundingBox", ["x", "y", "width", "height"], check_bounding_box,
                         contains=BoundingBox.contains)
OldTextRegion = _frozen("TextRegion", ["box", "text"], check_text_region)
OldAddressBarPrediction = _frozen("AddressBarPrediction", ["box", "confidence"],
                                  check_address_bar_prediction)
OldPhotoAnalysis = _frozen("PhotoAnalysis", ["resolution", "texts", "addrbars"],
                           check_photo_analysis)
OldBarTruth = _frozen("BarTruth", ["box", "url_text_box", "url_string"], check_bar_truth)
OldBrowserLayout = _frozen(
    "BrowserLayout",
    ["resolution", "bars", "title_boxes", "content_boxes", ("theme", Theme, Theme.LIGHT)],
    check_browser_layout,
)
OldExtractionOutcome = _frozen("ExtractionOutcome",
                               ["kind", ("domain", object, None), ("cover_rate", object, None)])
OldVerifyResult = _frozen("VerifyResult",
                          ["kind", ("found", object, None), ("reason", object, None)])
OldEvalCounts = _frozen("EvalCounts",
                        ["true_positives", "false_positives", "false_negatives", "retakes", "total"])
OldEvalReport = _frozen("EvalReport", ["counts"])
