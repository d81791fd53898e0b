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

from photoauth.decision import ColocationMode
from photoauth.domain import (
    HOSTNAME_MAX_LEN,
    LABEL_MAX_LEN,
    InvalidLabel,
    _LDH_LABEL,
    extract_hostname,
)
from photoauth.geometry import BoundingBox, intersection_area
from photoauth.session import MAX_TOKEN_LENGTH, MIN_TOKEN_LENGTH, Channel, Preference
from photoauth.synth import CONFUSION_MAP, LayoutVariant, Theme, _FALLBACK_ALPHABET


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


# The records that were dataclasses until every value type became a named tuple.


def check_domain_name(self):
    if not self.labels:
        raise InvalidLabel("hostname needs at least one label")
    for label in self.labels:
        if not label or len(label) > LABEL_MAX_LEN:
            raise InvalidLabel(f"label length out of range: {label!r}")
        if not _LDH_LABEL.match(label):
            raise InvalidLabel(f"label has characters outside letters/digits/hyphen: {label!r}")
    if len(str(self)) > HOSTNAME_MAX_LEN:
        raise InvalidLabel(f"hostname longer than {HOSTNAME_MAX_LEN} chars")


def check_resolution(self):
    if self.width <= 0 or self.height <= 0:
        raise ValueError(f"resolution must be positive, got {self.width}x{self.height}")
    try:
        bounds = BoundingBox(0, 0, float(self.width), float(self.height))
    except (OverflowError, ValueError) as exc:
        raise ValueError("resolution must be finite and fit a float") from exc
    object.__setattr__(self, "_bounds", bounds)


def check_verify_config(self):
    if not 0.0 < self.cr_threshold <= 1.0:
        raise ValueError(f"cr_threshold must be in (0, 1], got {self.cr_threshold}")


def check_colocation_policy(self):
    if not 0 <= self.prefix_len <= 128:
        raise ValueError(f"prefix_len must be in [0, 128], got {self.prefix_len}")


def check_config(self):
    if not self.server_domains:
        raise ValueError("need at least one server domain")
    for name in self.server_domains:
        if not isinstance(name, str):
            raise ValueError(f"server domain must be a string, got {name!r}")
        extract_hostname(name)
    if not MIN_TOKEN_LENGTH <= self.token_length <= MAX_TOKEN_LENGTH:
        raise ValueError(f"token_length must be in [{MIN_TOKEN_LENGTH}, {MAX_TOKEN_LENGTH}]")
    OldVerifyConfig(self.cr_threshold)
    self.policy
    if not self.session_ttl_s > 0:
        raise ValueError("session_ttl_s must be positive")
    if self.retake_cap < 0:
        raise ValueError("retake_cap must be non-negative")
    if not 0 <= self.port <= 65535:
        raise ValueError("port must be in [0, 65535]")
    for pref in self.users.values():
        Preference(pref)


def check_ocr_model(self):
    for p in (self.sub_rate, self.dot_drop_rate_dark):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {p}")


def check_addrbar_model(self):
    if self.jitter_px < 0:
        raise ValueError("jitter_px must be non-negative")
    for p in (self.cutoff_prob, self.miss_prob, self.spurious_prob):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")


def check_generator_params(self):
    if not self.domains:
        raise ValueError("need at least one domain")
    if not 0.0 <= self.dark_fraction <= 1.0:
        raise ValueError("dark_fraction must be in [0, 1]")


def _hidden(name, default=dataclasses.MISSING):
    """A field left out of the repr."""
    return (name, object, dataclasses.field(default=default, repr=False))


def _fresh(name, factory):
    """A field whose default is a new mutable object per value."""
    return (name, object, dataclasses.field(default_factory=factory))


OldDomainName = _frozen("DomainName", ["labels"], check_domain_name,
                        __str__=lambda self: ".".join(self.labels))
OldResolution = _frozen("Resolution", ["width", "height"], check_resolution,
                        bounds=lambda self: self._bounds)
OldVerifyConfig = _frozen("VerifyConfig", [("cr_threshold", float, 0.8)], check_verify_config)
OldColocationPolicy = _frozen(
    "ColocationPolicy",
    [("mode", ColocationMode, ColocationMode.COOKIE_EQUALITY), ("prefix_len", int, 24)],
    check_colocation_policy,
)
OldAuthRequest = _frozen("AuthRequest", ["username", "presented_cookie", "source_address",
                                         ("channel", Channel, Channel.PC_BROWSER)])
OldLinkClick = _frozen("LinkClick", ["token_digits", "presented_cookie", "source_address"])
OldAuthDecision = _frozen(
    "AuthDecision",
    ["kind", ("reason", object, None), ("session_id", object, None), ("message", object, None),
     ("warning", bool, False), ("retakes_left", object, None),
     _hidden("token_digits", None), _hidden("cookie", None)],
)
OldNotification = _frozen("Notification", ["username", "preference", _hidden("link")])
OldCookie = _frozen("Cookie", ["value"])
OldSession = _frozen(
    "Session",
    ["id", "username", _hidden("cookie"), _hidden("token"), "state", "retakes", "created_at",
     "login_source", "login_channel", ("phishing_warned", bool, False)],
)
OldConfig = _frozen(
    "Config",
    [("server_domains", tuple, ("microsoft.com",)), _fresh("users", lambda: {"bob": "sms"}),
     ("token_length", int, 10), ("retake_cap", int, 5), ("cr_threshold", float, 0.8),
     ("colocation_mode", str, "cookie"), ("colocation_prefix_len", int, 24),
     ("session_ttl_s", float, 300.0), ("port", int, 8443), ("seed", object, None)],
    check_config,
    policy=property(lambda self: OldColocationPolicy(ColocationMode(self.colocation_mode),
                                                     self.colocation_prefix_len)),
)
OldWireRequest = _frozen("WireRequest", ["method", "path", _fresh("headers", dict),
                                         ("body", object, None),
                                         ("source_address", str, "0.0.0.0")])
OldWireResponse = _frozen("WireResponse", ["status", "body", _fresh("headers", dict)])
OldOcrModel = _frozen(
    "OcrModel",
    [("oracle", bool, True), ("sub_rate", float, 0.0), ("dot_drop_rate_dark", float, 0.0),
     ("split_url", bool, False)],
    check_ocr_model,
)
OldAddrbarModel = _frozen(
    "AddrbarModel",
    [("oracle", bool, True), ("jitter_px", float, 0.0), ("cutoff_prob", float, 0.0),
     ("miss_prob", float, 0.0), ("spurious_prob", float, 0.0)],
    check_addrbar_model,
)
OldDetectorProfile = _frozen(
    "DetectorProfile",
    [("ocr", object, OldOcrModel()), ("addrbar", object, OldAddrbarModel()), ("seed", int, 0)],
)
OldGeneratorParams = _frozen(
    "GeneratorParams",
    [("domains", tuple, ("microsoft.com",)), ("resolution", object, OldResolution(1920, 1080)),
     ("dark_fraction", float, 0.5), ("variant", LayoutVariant, LayoutVariant.DEFAULT)],
    check_generator_params,
)
OldOutcome = _frozen("Outcome", ["kind", ("detail", object, None)])
OldScenario = _frozen("Scenario", ["name", "kind", "seed", _fresh("params", dict),
                                   ("expected", object, None)])
