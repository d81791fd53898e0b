"""Synthetic browser screenshots and detector models.

There is no real camera or OCR here. A layout places ground-truth boxes
(address bar, URL text, tab title, page content) the way a desktop
browser arranges them; a detector profile turns the layout into the
analysis a real pipeline would produce, either exactly (oracle) or with
configurable failure modes (noisy).
"""

from __future__ import annotations

import random
from enum import Enum
from math import inf
from typing import NamedTuple

from .domain import DomainName, confusable_mutate, extract_hostname
from .geometry import BoundingBox, Resolution, intersection_area
from .jsonread import from_json
from .verify import (
    AddressBarPrediction,
    PhotoAnalysis,
    RETAKE_UNREADABLE,
    TextRegion,
    VerdictKind,
    VerifyConfig,
    verify_photo,
)

_new = tuple.__new__


class Theme(Enum):
    LIGHT = "light"
    DARK = "dark"


class LayoutVariant(Enum):
    DEFAULT = "default"
    PICTURE_IN_PICTURE = "picture-in-picture"


class InjectionPlacement(Enum):
    TITLE = "title"
    PAGE_CONTENT = "page-content"


class _BarFields(NamedTuple):
    box: BoundingBox
    url_text_box: BoundingBox
    url_string: str


class BarTruth(_BarFields):
    """One rendered address bar and the URL text inside it."""

    __slots__ = ()

    def __new__(cls, box: BoundingBox, url_text_box: BoundingBox, url_string: str):
        # The URL text must lie inside the bar, edge by edge.
        x, y, ox, oy = box.x, box.y, url_text_box.x, url_text_box.y
        if not (ox >= x and oy >= y and ox + url_text_box.width <= x + box.width
                and oy + url_text_box.height <= y + box.height):
            raise ValueError("URL text must sit inside its address bar")
        return _new(cls, (box, url_text_box, url_string))


class _LayoutFields(NamedTuple):
    resolution: Resolution
    bars: tuple[BarTruth, ...]
    title_boxes: tuple[TextRegion, ...]
    content_boxes: tuple[TextRegion, ...]
    theme: Theme


class BrowserLayout(_LayoutFields):
    """Ground truth for one synthetic screenshot.

    `bars[0]` is the genuine browser chrome; any further bar is content
    drawn to look like one (picture-in-picture). Title and content
    regions never overlap the genuine bar.
    """

    __slots__ = ()

    def __new__(
        cls,
        resolution: Resolution,
        bars: tuple[BarTruth, ...],
        title_boxes: tuple[TextRegion, ...],
        content_boxes: tuple[TextRegion, ...],
        theme: Theme = Theme.LIGHT,
    ):
        if not bars:
            raise ValueError("layout needs at least one address bar")
        # Each box must lie inside the screen from (0, 0) to its far corner,
        # whose sides are read as floats once.
        right, bottom = float(resolution.width), float(resolution.height)
        genuine = bars[0].box
        bar_top, bar_bottom = genuine.y, genuine.y + genuine.height
        for bar in bars:
            box = bar.box
            x, y = box.x, box.y
            if not (x >= 0.0 and y >= 0.0 and x + box.width <= right
                    and y + box.height <= bottom):
                raise ValueError("address bar outside the screenshot")
        for region in title_boxes + content_boxes:
            box = region.box
            x, y = box.x, box.y
            y_end = y + box.height
            if not (x >= 0.0 and y >= 0.0 and x + box.width <= right and y_end <= bottom):
                raise ValueError("text region outside the screenshot")
            # A region wholly above or below the bar has no overlap to measure.
            if bar_top < y_end and y < bar_bottom and intersection_area(box, genuine) > 0:
                raise ValueError("title/content text may not overlap the genuine bar")
        return _new(cls, (resolution, bars, title_boxes, content_boxes, theme))


class _OcrFields(NamedTuple):
    oracle: bool = True
    sub_rate: float = 0.0
    dot_drop_rate_dark: float = 0.0
    split_url: bool = False


class OcrModel(_OcrFields):
    """Character recognition model.

    Oracle mode returns every string exactly. Noisy mode substitutes each
    character independently at `sub_rate`, may drop the dot after a
    leading "www" in dark theme (it renders dimmer there), and may split
    the URL into two adjacent regions.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for p in (self.sub_rate, self.dot_drop_rate_dark):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"rate must be in [0, 1], got {p}")
        return self


class _AddrbarFields(NamedTuple):
    oracle: bool = True
    jitter_px: float = 0.0
    cutoff_prob: float = 0.0
    miss_prob: float = 0.0
    spurious_prob: float = 0.0


class AddrbarModel(_AddrbarFields):
    """Address-bar detection model.

    Oracle mode reports every true bar at confidence 1.0. Noisy mode
    jitters the box, sometimes truncates it vertically (shrinking how
    much of the URL text it covers), sometimes misses it entirely, and
    sometimes invents a spurious bar elsewhere.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.jitter_px < inf:
            raise ValueError(f"jitter_px must be finite and non-negative, got {self.jitter_px}")
        for p in (self.cutoff_prob, self.miss_prob, self.spurious_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability must be in [0, 1], got {p}")
        return self


class DetectorProfile(NamedTuple):
    ocr: OcrModel = OcrModel()
    addrbar: AddrbarModel = AddrbarModel()


ORACLE_PROFILE = DetectorProfile()

# Plausible defaults for a phone camera pipeline. Not fitted to any
# measured error rate; tune per deployment.
DEFAULT_NOISY_PROFILE = DetectorProfile(
    ocr=OcrModel(oracle=False, sub_rate=0.002, dot_drop_rate_dark=0.05),
    addrbar=AddrbarModel(oracle=False, jitter_px=10.0, cutoff_prob=0.05),
)

# Characters OCR tends to confuse; anything else falls back to a random
# letter when a substitution fires.
CONFUSION_MAP: dict[str, str] = {
    "o": "ae0",
    "l": "1",
    "0": "o",
    "1": "l",
    "e": "o",
    "a": "o",
}
_FALLBACK_ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# 50 well-known domains; 527 characters in total, counted with dots.
DOMAIN_CORPUS: tuple[str, ...] = (
    "google.com", "youtube.com", "facebook.com", "baidu.com", "wikipedia.org",
    "reddit.com", "yahoo.com", "pinterest.com", "amazon.com", "taobao.com",
    "tmall.com", "twitter.com", "sohu.com", "live.com", "vk.com",
    "instagram.com", "sina.com.cn", "jd.com", "weibo.com", "etsy.com",
    "login.tmall.com", "yandex.ru", "netflix.com", "linkedin.com", "twitch.tv",
    "whatsapp.com", "microsoft.com", "office.com", "bing.com", "alipay.com",
    "xvideos.com", "csdn.net", "ebay.com", "microsoftonline.com", "bongacams.com",
    "stackoverflow.com", "naver.com", "aliexpress.com", "paypal.com", "apple.com",
    "github.com", "wordpress.com", "imdb.com", "adobe.com", "dropbox.com",
    "tumblr.com", "booking.com", "spotify.com", "salesforce.com", "zoom.us",
)

DEFAULT_CONFUSABLE_RULES: dict[str, str] = {"o": "0", "l": "1"}


def _clamp_box(x: float, y: float, w: float, h: float, rw: float, rh: float) -> BoundingBox:
    """The box moved and shrunk into a `rw` by `rh` screen, at least 1 by 1.

    `rw` and `rh` are a `Resolution`'s sides as floats.
    """
    # min(max(v, lo), hi) written out, each keeping the builtin's choice on ties.
    w = 1.0 if 1.0 > w else w
    w = rw if rw < w else w
    h = 1.0 if 1.0 > h else h
    h = rh if rh < h else h
    x = 0.0 if 0.0 > x else x
    x_max = rw - w
    x = x_max if x_max < x else x
    y = 0.0 if 0.0 > y else y
    y_max = rh - h
    y = y_max if y_max < y else y
    # Clamped, the box passes every check of `BoundingBox` unless an input was
    # NaN, which the comparisons above pass on: only then is it checked, and
    # refused as before.
    if x == x and y == y and w == w and h == h:
        return _new(BoundingBox, (x, y, w, h))
    return BoundingBox(x, y, w, h)


# Layout and detection write `Random.uniform` and `Random.randint` out as
# the library computes them: uniform(a, b) is a + (b - a) * random(), kept
# in that form even where a is 0 (so that a -0.0 product still comes out
# as 0.0), and randint(a, b) is randrange's rejection loop over
# getrandbits. Same draws, same floats: tests/test_synth.py holds both
# functions to their versions that call the library.


def _randint(getrandbits, a: int, b: int) -> int:
    """`Random.randint(a, b)`, refusing an empty range as it does."""
    n = b - a + 1
    if n <= 0:
        raise ValueError(f"empty range for randrange() ({a}, {b + 1}, {n})")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return a + r


def _url_box(bar: BoundingBox, text: str, draw) -> BoundingBox:
    """Where the URL text sits inside an address bar."""
    icon_strip = 60 + (140 - 60) * draw()
    pad = 6 + (16 - 6) * draw()
    char_w = 9 + (14 - 9) * draw()
    h = (0.45 + (0.62 - 0.45) * draw()) * bar.height
    # min and max written out, each keeping the builtin's choice on ties.
    indent, cap = icon_strip + pad, bar.width * 0.4
    x = bar.x + (cap if cap < indent else indent)
    w, cap = len(text) * char_w, (bar.x + bar.width - x) * 0.9
    w = cap if cap < w else w
    w = 8.0 if 8.0 > w else w
    y = bar.y + (bar.height - h) / 2.0
    return BoundingBox(x, y, w, h)


def generate_layout(
    domain: str,
    theme: Theme = Theme.LIGHT,
    variant: LayoutVariant = LayoutVariant.DEFAULT,
    seed: int = 0,
    *,
    resolution: Resolution = Resolution(1920, 1080),
    injected_text: str | None = None,
    injected_placement: InjectionPlacement | None = None,
) -> BrowserLayout:
    """Lay out one synthetic screenshot for `domain`.

    `injected_text` plants attacker-controlled text into the tab title or
    the page body; the picture-in-picture variant instead draws a second,
    fake address bar in the content area showing `injected_text` (the
    spoofed URL).

    Same arguments, same layout: all placement randomness comes from
    `seed`.
    """
    rng = random.Random(seed)
    draw, bits = rng.random, rng.getrandbits
    width, height = resolution.width, resolution.height
    rw, rh = float(width), float(height)
    # str(DomainName) written out.
    url = ".".join(extract_hostname(domain).labels)

    # randint(8, 40), randint(36, 90) and randint(38, 64) written out for
    # their fixed ranges: 33, 55 and 27 values drawn on 6, 6 and 5 bits,
    # the bit length of each count, as randrange draws them.
    r = bits(6)
    while r >= 33:
        r = bits(6)
    bar_x = float(8 + r)
    r = bits(6)
    while r >= 55:
        r = bits(6)
    bar_y = float(36 + r)
    bar_w = (0.45 + (0.75 - 0.45) * draw()) * width
    r = bits(5)
    while r >= 27:
        r = bits(5)
    bar_h = float(38 + r)
    bar = _clamp_box(bar_x, bar_y, bar_w, bar_h, rw, rh)
    bars = [BarTruth(bar, _url_box(bar, url, draw), url)]
    bar_top = bar.y
    bar_bottom = bar_top + bar.height

    # Tab strip above the bar.
    title_text = f"Sign in to {url}"
    if injected_text is not None and injected_placement is InjectionPlacement.TITLE:
        title_text = injected_text
    title_h = float(_randint(bits, 18, min(26, int(bar_top) - 6)))
    hi = bar_top - title_h - 2
    title_y = 2 + (hi - 2) * draw()
    title_w = 180 + (420 - 180) * draw()
    hi = width * 0.4
    title_x = 60 + (hi - 60) * draw()
    titles = (TextRegion(_clamp_box(title_x, title_y, title_w, title_h, rw, rh), title_text),)

    content_top = bar_bottom + (30 + (80 - 30) * draw())
    contents: list[TextRegion] = []
    content_lines = ["Welcome back", "Use your account to continue", "Forgot password?"]
    if injected_text is not None and injected_placement is InjectionPlacement.PAGE_CONTENT:
        content_lines[0] = injected_text
    y = content_top
    x_hi = width * 0.5
    r = bits(2)  # randint(2, 3): 2 values on 2 bits
    while r >= 2:
        r = bits(2)
    for line in content_lines[: 2 + r]:
        h = 22 + (34 - 22) * draw()
        w = 240 + (700 - 240) * draw()
        x = 40 + (x_hi - 40) * draw()
        if y + h >= height:
            break
        contents.append(TextRegion(_clamp_box(x, y, w, h, rw, rh), line))
        y += h + (16 + (44 - 16) * draw())

    if variant is LayoutVariant.PICTURE_IN_PICTURE:
        spoof_url = injected_text if injected_text is not None else url
        spoof_w = (0.35 + (0.55 - 0.35) * draw()) * width
        spoof_h = 36 + (56 - 36) * draw()
        hi = width - spoof_w - 20
        spoof_x = 60 + (hi - 60) * draw()
        lo, hi = y + 20, height - spoof_h - 20
        spoof_y = lo + (hi - lo) * draw()
        spoof = _clamp_box(spoof_x, spoof_y, spoof_w, spoof_h, rw, rh)
        bars.append(BarTruth(spoof, _url_box(spoof, spoof_url, draw), spoof_url))

    return BrowserLayout(resolution, tuple(bars), titles, tuple(contents), theme)


def apply_ocr_noise(text: str, ocr: OcrModel, theme: Theme, rng: random.Random) -> str:
    """Run one string through the OCR error channel.

    Draws are made in a fixed order regardless of outcomes so detection
    runs stay aligned across profiles that differ only in probabilities.
    """
    if ocr.oracle:
        return text
    draw = rng.random
    u_dot = draw()
    if u_dot < ocr.dot_drop_rate_dark and theme is Theme.DARK and text.startswith("www."):
        text = "www" + text[4:]
    sub_rate = ocr.sub_rate
    out = None  # a copy of `text`, made on the first substitution
    # By index: a character is read only when its draw substitutes it.
    for i in range(len(text)):
        if draw() < sub_rate:
            if out is None:
                out = list(text)
            ch = text[i]
            choices = CONFUSION_MAP.get(ch)
            if choices is None:
                choices = _FALLBACK_ALPHABET.replace(ch, "")
            out[i] = choices[rng.randrange(len(choices))]
    return text if out is None else "".join(out)


def _detect_bar(
    bar: BarTruth, model: AddrbarModel, rw: float, rh: float, rng: random.Random
) -> AddressBarPrediction | None:
    # Fixed draw order: miss, cutoff, cut fraction, jitter, confidence.
    draw = rng.random
    u_miss = draw()
    u_cut = draw()
    cut_frac = 0.2 + (0.55 - 0.2) * draw()
    jitter = model.jitter_px
    lo = -jitter
    dx = lo + (jitter - lo) * draw()
    dy = lo + (jitter - lo) * draw()
    conf = 0.82 + (0.99 - 0.82) * draw()

    if model.oracle:
        return AddressBarPrediction(bar.box, 1.0)
    if u_miss < model.miss_prob:
        return None
    x, y, w, h = bar.box
    box = _clamp_box(x + dx, y + dy, w, h, rw, rh)
    if u_cut < model.cutoff_prob:
        # Raise the top edge so the bar covers only ~cut_frac of the URL text.
        text = bar.url_text_box
        new_top = text.y + text.height * (1.0 - cut_frac)
        new_bottom = max(box.y + box.height, new_top + 2.0)
        box = _clamp_box(box.x, new_top, box.width, new_bottom - new_top, rw, rh)
    return AddressBarPrediction(box, conf)


def simulate_detection(
    layout: BrowserLayout, profile: DetectorProfile, rng: random.Random | None = None
) -> PhotoAnalysis:
    """Produce the analysis a detector pipeline would emit for a layout.

    With the default rng the result is a pure function of
    (layout, profile); pass an rng to draw several independent photos of
    the same screen.
    """
    if rng is None:
        rng = random.Random(0)
    draw = rng.random
    res = layout.resolution
    rw, rh = float(res.width), float(res.height)
    # Each read once: a record's field costs more to read than a local.
    ocr, addrbar, theme = profile.ocr, profile.addrbar, layout.theme
    split_url = ocr.split_url and not ocr.oracle

    # A region OCR reads back unchanged is passed on as it is.
    texts: list[TextRegion] = []
    for region in layout.title_boxes:
        text = region.text
        seen = apply_ocr_noise(text, ocr, theme, rng)
        texts.append(region if seen is text else TextRegion(region.box, seen))
    for bar in layout.bars:
        seen = apply_ocr_noise(bar.url_string, ocr, theme, rng)
        if split_url and len(seen) >= 2:
            half = len(seen) // 2
            x, y, w, h = bar.url_text_box
            left_w = w * (half / len(seen))
            right_w = w - left_w
            texts.append(TextRegion(BoundingBox(x, y, left_w, h), seen[:half]))
            texts.append(TextRegion(BoundingBox(x + left_w, y, right_w, h), seen[half:]))
        else:
            texts.append(TextRegion(bar.url_text_box, seen))
    for region in layout.content_boxes:
        text = region.text
        seen = apply_ocr_noise(text, ocr, theme, rng)
        texts.append(region if seen is text else TextRegion(region.box, seen))

    bars: list[AddressBarPrediction] = []
    for bar in layout.bars:
        pred = _detect_bar(bar, addrbar, rw, rh, rng)
        if pred is not None:
            bars.append(pred)
    # Spurious bar draws happen unconditionally to keep streams aligned.
    u_spur = draw()
    spur_w = 200 + (600 - 200) * draw()
    spur_h = 30 + (70 - 30) * draw()
    hi = rw - spur_w
    spur_x = 0 + (hi - 0) * draw()
    lo, hi = rh * 0.5, rh - spur_h
    spur_y = lo + (hi - lo) * draw()
    spur_conf = 0.25 + (0.95 - 0.25) * draw()
    if not addrbar.oracle and u_spur < addrbar.spurious_prob:
        spurious = _clamp_box(spur_x, spur_y, spur_w, spur_h, rw, rh)
        bars.append(AddressBarPrediction(spurious, spur_conf))

    return PhotoAnalysis(res, tuple(texts), tuple(bars))


# ---------------------------------------------------------------------------
# Corpus evaluation
# ---------------------------------------------------------------------------


class _GeneratorFields(NamedTuple):
    domains: tuple[str, ...] = ("microsoft.com",)
    resolution: Resolution = Resolution(1920, 1080)
    dark_fraction: float = 0.5
    variant: LayoutVariant = LayoutVariant.DEFAULT


class GeneratorParams(_GeneratorFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.domains:
            raise ValueError("need at least one domain")
        if not 0.0 <= self.dark_fraction <= 1.0:
            raise ValueError("dark_fraction must be in [0, 1]")
        return self


class EvalCounts(NamedTuple):
    true_positives: int
    false_positives: int
    false_negatives: int
    retakes: int
    total: int


class EvalReport(NamedTuple):
    """Corpus metrics.

    A cycle counts as a true positive when the photo matched, as a false
    positive when a wrong domain was recognized, and as a false negative
    when no usable address-bar area was found. Every non-matching cycle
    counts toward the retake rate, whatever the cause.
    """

    counts: EvalCounts

    @property
    def precision(self) -> float:
        tp, fp = self.counts.true_positives, self.counts.false_positives
        return tp / (tp + fp) if tp + fp else 1.0

    @property
    def recall(self) -> float:
        tp, fn = self.counts.true_positives, self.counts.false_negatives
        return tp / (tp + fn) if tp + fn else 1.0

    @property
    def retake_rate(self) -> float:
        return self.counts.retakes / self.counts.total if self.counts.total else 0.0

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "retake_rate": self.retake_rate,
            "counts": {
                "tp": self.counts.true_positives,
                "fp": self.counts.false_positives,
                "fn": self.counts.false_negatives,
                "retakes": self.counts.retakes,
                "total": self.counts.total,
            },
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def evaluate_corpus(
    n: int,
    params: GeneratorParams,
    profile: DetectorProfile,
    verify_cfg: VerifyConfig,
    accept_set: frozenset[DomainName] | set[DomainName],
    seed: int = 0,
) -> EvalReport:
    """Run n generate->detect->verify cycles over genuine screenshots.

    Item i's draws depend only on the corpus seed and i, so a longer run
    extends a shorter one with the same seed: its first items are the
    same cycles.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    first = seed * 1_000_003
    domains, resolution, dark_fraction, variant = params
    tp = fp = fn = retakes = 0
    for i in range(n):
        rng = random.Random(first + i)
        theme = Theme.DARK if rng.random() < dark_fraction else Theme.LIGHT
        layout = generate_layout(
            domains[i % len(domains)], theme, variant, rng.getrandbits(32), resolution=resolution
        )
        kind, _, reason = verify_photo(
            simulate_detection(layout, profile, rng), accept_set, verify_cfg
        )
        if kind is VerdictKind.MATCH:
            tp += 1
        else:
            retakes += 1
            if kind is VerdictKind.MISMATCH:
                fp += 1
            elif reason == RETAKE_UNREADABLE:
                fn += 1
    return _new(EvalReport, (_new(EvalCounts, (tp, fp, fn, retakes, n)),))


# ---------------------------------------------------------------------------
# Homograph stress
# ---------------------------------------------------------------------------


def char_errors(truth: str, seen: str) -> int:
    """Character-level recognition errors between two strings."""
    if len(truth) == len(seen):
        return sum(1 for a, b in zip(truth, seen) if a != b)
    from difflib import SequenceMatcher

    total = 0
    for tag, i1, i2, j1, j2 in SequenceMatcher(None, truth, seen, autojunk=False).get_opcodes():
        if tag != "equal":
            total += max(i2 - i1, j2 - j1)
    return total


def homograph_stress(
    domains: tuple[str, ...],
    rules: dict[str, str],
    profile: DetectorProfile,
    seed: int,
) -> int:
    """Mutate a domain corpus with lookalike rules and count OCR errors.

    Each domain gets one lookalike substitution (when a rule applies),
    then passes through the OCR channel; the return value is the total
    number of characters read back differently than rendered.
    """
    rng = random.Random(seed)
    errors = 0
    for raw in domains:
        name = extract_hostname(raw)
        mutated = confusable_mutate(name, rules, rng) if rules else name
        truth = str(mutated)
        seen = apply_ocr_noise(truth, profile.ocr, Theme.LIGHT, rng)
        errors += char_errors(truth, seen)
    return errors


# ---------------------------------------------------------------------------
# Profile serialization (CLI input)
# ---------------------------------------------------------------------------


def profile_from_dict(obj: dict) -> DetectorProfile:
    """Build a DetectorProfile from parsed JSON; keys it does not know are ignored.

    Each model's "mode", "oracle" (the default) or "noisy", sets its `oracle` field.
    """
    if not isinstance(obj, dict):
        raise ValueError("a profile must be a JSON object")
    obj = dict(obj)
    for key in ("ocr", "addrbar"):
        model = obj.get(key, {})
        if not isinstance(model, dict):
            raise ValueError(f"profile.{key}: expected an object, got {type(model).__name__}")
        mode = model.get("mode", "oracle")
        if mode not in ("oracle", "noisy"):
            raise ValueError(f'profile.{key}.mode: expected "oracle" or "noisy", got {mode!r}')
        obj[key] = {**model, "oracle": mode == "oracle"}
    return from_json(DetectorProfile, obj, "profile")


def load_profile(path: str) -> DetectorProfile:
    import json

    with open(path, encoding="utf-8") as fh:
        return profile_from_dict(json.load(fh))
