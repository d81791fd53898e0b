"""Independent reference implementations used only to check the package.

The pixel oracle rasterizes boxes onto an integer grid and counts cells,
deliberately avoiding the interval arithmetic the package uses.

The plain versions below are the package's earlier, slower code for its
hot paths, kept as the reference their rewrites must match exactly:
same floats, same strings, same random draws. The plain layout and
detection draw through `rng.uniform` and `rng.randint`, so they also
tie the package's written-out draws to this Python's `random`.

The `Old*` types at the end are the value types as frozen dataclasses,
each with its earlier `__post_init__` check, kept as the reference the
named tuples must match: the same inputs refused with the same message,
and equal fields giving the same `repr` and `hash`.
"""

import dataclasses
import random
from math import isfinite

import numpy as np

from photoauth.decision import ColocationMode
from photoauth.domain import (
    HOSTNAME_MAX_LEN,
    LABEL_MAX_LEN,
    DomainError,
    InvalidLabel,
    _LDH_LABEL,
    extract_hostname,
)
from photoauth.geometry import BoundingBox, Resolution, area, cover_rate, intersection_area
from photoauth.session import Channel, Preference
from photoauth.synth import (
    CONFUSION_MAP,
    BarTruth,
    BrowserLayout,
    InjectionPlacement,
    LayoutVariant,
    Theme,
    _FALLBACK_ALPHABET,
)
from photoauth.verify import (
    CONFIDENCE_FLOOR,
    RETAKE_MULTIPLE_ADDRBARS,
    RETAKE_UNREADABLE,
    AddressBarPrediction,
    ExtractionKind,
    ExtractionOutcome,
    PhotoAnalysis,
    TextRegion,
    VerdictKind,
    VerifyConfig,
    VerifyResult,
)


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


def plain_generate_layout(
    domain,
    theme=Theme.LIGHT,
    variant=LayoutVariant.DEFAULT,
    seed=0,
    *,
    resolution=Resolution(1920, 1080),
    injected_text=None,
    injected_placement=None,
):
    """The layout drawn with `rng.uniform` and `rng.randint`."""
    rng = random.Random(seed)
    width, height = resolution.width, resolution.height
    url = str(extract_hostname(domain))

    bar_x = float(rng.randint(8, 40))
    bar_y = float(rng.randint(36, 90))
    bar_w = rng.uniform(0.45, 0.75) * width
    bar_h = float(rng.randint(38, 64))
    bar = plain_clamp_box(bar_x, bar_y, bar_w, bar_h, resolution)

    def url_box_inside(bar_box, text):
        icon_strip = rng.uniform(60, 140)
        pad = rng.uniform(6, 16)
        char_w = rng.uniform(9, 14)
        h = rng.uniform(0.45, 0.62) * bar_box.height
        x = bar_box.x + min(icon_strip + pad, bar_box.width * 0.4)
        w = min(len(text) * char_w, (bar_box.right - x) * 0.9)
        w = max(w, 8.0)
        y = bar_box.y + (bar_box.height - h) / 2.0
        return BoundingBox(x, y, w, h)

    bars = [BarTruth(box=bar, url_text_box=url_box_inside(bar, url), url_string=url)]

    title_text = f"Sign in to {url}"
    if injected_placement is InjectionPlacement.TITLE and injected_text is not None:
        title_text = injected_text
    title_h = float(rng.randint(18, min(26, int(bar.y) - 6)))
    title_y = rng.uniform(2, bar.y - title_h - 2)
    title_w = rng.uniform(180, 420)
    title_x = rng.uniform(60, width * 0.4)
    titles = [TextRegion(plain_clamp_box(title_x, title_y, title_w, title_h, resolution),
                         title_text)]
    if titles[0].box.bottom > bar.y:
        titles = [
            TextRegion(
                BoundingBox(titles[0].box.x, 2.0, titles[0].box.width, max(bar.y - 4.0, 2.0)),
                title_text,
            )
        ]

    content_top = bar.bottom + rng.uniform(30, 80)
    contents = []
    content_lines = ["Welcome back", "Use your account to continue", "Forgot password?"]
    if injected_placement is InjectionPlacement.PAGE_CONTENT and injected_text is not None:
        content_lines[0] = injected_text
    y = content_top
    for line in content_lines[: rng.randint(2, 3)]:
        h = rng.uniform(22, 34)
        w = rng.uniform(240, 700)
        x = rng.uniform(40, width * 0.5)
        if y + h >= height:
            break
        contents.append(TextRegion(plain_clamp_box(x, y, w, h, resolution), line))
        y += h + rng.uniform(16, 44)

    if variant is LayoutVariant.PICTURE_IN_PICTURE:
        spoof_url = injected_text if injected_text is not None else url
        spoof_w = rng.uniform(0.35, 0.55) * width
        spoof_h = rng.uniform(36, 56)
        spoof_x = rng.uniform(60, width - spoof_w - 20)
        spoof_y = rng.uniform(y + 20, height - spoof_h - 20)
        spoof = plain_clamp_box(spoof_x, spoof_y, spoof_w, spoof_h, resolution)
        bars.append(
            BarTruth(box=spoof, url_text_box=url_box_inside(spoof, spoof_url), url_string=spoof_url)
        )

    return BrowserLayout(
        resolution=resolution,
        bars=tuple(bars),
        title_boxes=tuple(titles),
        content_boxes=tuple(contents),
        theme=theme,
    )


def plain_detect_bar(bar, model, res, rng):
    """One detected address bar, drawn with `rng.uniform`."""
    u_miss = rng.random()
    u_cut = rng.random()
    cut_frac = rng.uniform(0.2, 0.55)
    jitter = model.jitter_px
    dx = rng.uniform(-jitter, jitter)
    dy = rng.uniform(-jitter, jitter)
    conf = rng.uniform(0.82, 0.99)

    if model.oracle:
        return AddressBarPrediction(bar.box, 1.0)
    if u_miss < model.miss_prob:
        return None
    box = plain_clamp_box(bar.box.x + dx, bar.box.y + dy, bar.box.width, bar.box.height, res)
    if u_cut < model.cutoff_prob:
        text = bar.url_text_box
        new_top = text.y + text.height * (1.0 - cut_frac)
        new_bottom = max(box.bottom, new_top + 2.0)
        box = plain_clamp_box(box.x, new_top, box.width, new_bottom - new_top, res)
    return AddressBarPrediction(box, conf)


def plain_simulate_detection(layout, profile, rng=None):
    """The analysis drawn with `rng.uniform`, every text region built anew."""
    if rng is None:
        rng = random.Random(0)
    res = layout.resolution
    ocr, addrbar, theme = profile.ocr, profile.addrbar, layout.theme
    split_url = ocr.split_url and not ocr.oracle

    texts = []
    for region in layout.title_boxes:
        texts.append(TextRegion(region.box, plain_ocr_noise(region.text, ocr, theme, rng)))
    for bar in layout.bars:
        seen = plain_ocr_noise(bar.url_string, ocr, theme, rng)
        if split_url and len(seen) >= 2:
            half = len(seen) // 2
            box = bar.url_text_box
            left_w = box.width * (half / len(seen))
            right_w = box.width - left_w
            texts.append(TextRegion(BoundingBox(box.x, box.y, left_w, box.height), seen[:half]))
            texts.append(
                TextRegion(BoundingBox(box.x + left_w, box.y, right_w, box.height), seen[half:])
            )
        else:
            texts.append(TextRegion(bar.url_text_box, seen))
    for region in layout.content_boxes:
        texts.append(TextRegion(region.box, plain_ocr_noise(region.text, ocr, theme, rng)))

    bars = []
    for bar in layout.bars:
        pred = plain_detect_bar(bar, addrbar, res, rng)
        if pred is not None:
            bars.append(pred)
    u_spur = rng.random()
    spur_w = rng.uniform(200, 600)
    spur_h = rng.uniform(30, 70)
    spur_x = rng.uniform(0, res.width - spur_w)
    spur_y = rng.uniform(res.height * 0.5, res.height - spur_h)
    spur_conf = rng.uniform(0.25, 0.95)
    if not addrbar.oracle and u_spur < addrbar.spurious_prob:
        bars.append(AddressBarPrediction(plain_clamp_box(spur_x, spur_y, spur_w, spur_h, res),
                                         spur_conf))

    return PhotoAnalysis(resolution=res, texts=tuple(texts), addrbars=tuple(bars))


def plain_extract_domain(analysis, cfg=VerifyConfig()):
    """The URL text and its hostname, every text's cover rate computed."""
    bar = None
    for pred in analysis.addrbars:
        if pred.confidence >= CONFIDENCE_FLOOR:
            if bar is not None:
                return ExtractionOutcome(ExtractionKind.MULTIPLE_ADDRESS_BARS)
            bar = pred
    if bar is None:
        return ExtractionOutcome(ExtractionKind.NO_ADDRESS_BAR)
    candidates = []
    for region in analysis.texts:
        cr = cover_rate(region.box, bar.box)
        if cr >= cfg.cr_threshold:
            candidates.append((cr, region))
    if not candidates:
        return ExtractionOutcome(ExtractionKind.NO_QUALIFYING_TEXT)
    candidates.sort(key=lambda c: (-c[0], -area(c[1].box), c[1].box.x, c[1].box.y))
    best_cr, best = candidates[0]
    try:
        name = extract_hostname(best.text)
    except DomainError:
        return ExtractionOutcome(ExtractionKind.NO_QUALIFYING_TEXT)
    return ExtractionOutcome(ExtractionKind.DOMAIN, name, best_cr)


def plain_verify_photo(analysis, accept_set, cfg=VerifyConfig()):
    """The verdict on `plain_extract_domain`'s outcome."""
    outcome = plain_extract_domain(analysis, cfg)
    if outcome.kind is ExtractionKind.MULTIPLE_ADDRESS_BARS:
        return VerifyResult(VerdictKind.RETAKE, None, RETAKE_MULTIPLE_ADDRBARS)
    if outcome.kind is not ExtractionKind.DOMAIN:
        return VerifyResult(VerdictKind.RETAKE, None, RETAKE_UNREADABLE)
    if outcome.domain in accept_set:
        return VerifyResult(VerdictKind.MATCH, outcome.domain)
    return VerifyResult(VerdictKind.MISMATCH, outcome.domain)


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
    self.policy
    if not self.session_ttl_s > 0:
        raise ValueError("session_ttl_s must be positive")
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
    [("ocr", object, OldOcrModel()), ("addrbar", object, OldAddrbarModel())],
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
