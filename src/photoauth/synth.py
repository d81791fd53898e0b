"""Synthetic browser screenshots and detector models.

There is no real camera or OCR here. A layout places ground-truth boxes
(address bar, URL text, tab title, page content) the way a desktop
browser arranges them; a detector profile turns the layout into the
analysis a real pipeline would produce, either exactly (oracle) or with
configurable failure modes (noisy).
"""

from __future__ import annotations

import json
import random
from difflib import SequenceMatcher
from enum import Enum
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
        if not box.contains(url_text_box):
            raise ValueError("URL text must sit inside its address bar")
        return tuple.__new__(cls, (box, url_text_box, url_string))


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
        bounds = resolution.bounds()
        genuine = bars[0].box
        for bar in bars:
            if not bounds.contains(bar.box):
                raise ValueError("address bar outside the screenshot")
        for region in title_boxes + content_boxes:
            if not bounds.contains(region.box):
                raise ValueError("text region outside the screenshot")
            if intersection_area(region.box, genuine) > 0:
                raise ValueError("title/content text may not overlap the genuine bar")
        return tuple.__new__(cls, (resolution, bars, title_boxes, content_boxes, theme))


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
        if self.jitter_px < 0:
            raise ValueError("jitter_px must be non-negative")
        for p in (self.cutoff_prob, self.miss_prob, self.spurious_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability must be in [0, 1], got {p}")
        return self


class DetectorProfile(NamedTuple):
    ocr: OcrModel = OcrModel()
    addrbar: AddrbarModel = AddrbarModel()
    seed: int = 0


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


def _clamp_box(x: float, y: float, w: float, h: float, res: Resolution) -> BoundingBox:
    # min(max(v, lo), hi) written out, each keeping the builtin's choice on ties.
    rw, rh = float(res.width), float(res.height)
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
    width, height = resolution.width, resolution.height
    name = extract_hostname(domain)
    url = str(name)

    bar_x = float(rng.randint(8, 40))
    bar_y = float(rng.randint(36, 90))
    bar_w = rng.uniform(0.45, 0.75) * width
    bar_h = float(rng.randint(38, 64))
    bar = _clamp_box(bar_x, bar_y, bar_w, bar_h, resolution)

    def url_box_inside(bar_box: BoundingBox, text: str) -> BoundingBox:
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

    # Tab strip above the bar.
    title_text = f"Sign in to {url}"
    if injected_placement is InjectionPlacement.TITLE and injected_text is not None:
        title_text = injected_text
    title_h = float(rng.randint(18, min(26, int(bar.y) - 6)))
    title_y = rng.uniform(2, bar.y - title_h - 2)
    title_w = rng.uniform(180, 420)
    title_x = rng.uniform(60, width * 0.4)
    titles = [TextRegion(_clamp_box(title_x, title_y, title_w, title_h, resolution), title_text)]
    # Titles may not dip into the bar.
    if titles[0].box.bottom > bar.y:
        titles = [
            TextRegion(
                BoundingBox(titles[0].box.x, 2.0, titles[0].box.width, max(bar.y - 4.0, 2.0)),
                title_text,
            )
        ]

    content_top = bar.bottom + rng.uniform(30, 80)
    contents: list[TextRegion] = []
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
        contents.append(TextRegion(_clamp_box(x, y, w, h, resolution), line))
        y += h + rng.uniform(16, 44)

    if variant is LayoutVariant.PICTURE_IN_PICTURE:
        spoof_url = injected_text if injected_text is not None else url
        spoof_w = rng.uniform(0.35, 0.55) * width
        spoof_h = rng.uniform(36, 56)
        spoof_x = rng.uniform(60, width - spoof_w - 20)
        spoof_y = rng.uniform(y + 20, height - spoof_h - 20)
        spoof = _clamp_box(spoof_x, spoof_y, spoof_w, spoof_h, resolution)
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


def apply_ocr_noise(text: str, ocr: OcrModel, theme: Theme, rng: random.Random) -> str:
    """Run one string through the OCR error channel.

    Draws are made in a fixed order regardless of outcomes so detection
    runs stay aligned across profiles that differ only in probabilities.
    """
    if ocr.oracle:
        return text
    draw = rng.random
    u_dot = draw()
    if theme is Theme.DARK and text.startswith("www.") and u_dot < ocr.dot_drop_rate_dark:
        text = "www" + text[4:]
    sub_rate = ocr.sub_rate
    out = None  # a copy of `text`, made on the first substitution
    for i, ch in enumerate(text):
        if draw() < sub_rate:
            if out is None:
                out = list(text)
            choices = CONFUSION_MAP.get(ch)
            if choices is None:
                choices = _FALLBACK_ALPHABET.replace(ch, "")
            out[i] = choices[rng.randrange(len(choices))]
    return text if out is None else "".join(out)


def _detect_bar(
    bar: BarTruth, model: AddrbarModel, res: Resolution, rng: random.Random
) -> AddressBarPrediction | None:
    # Fixed draw order: miss, cutoff, cut fraction, jitter, confidence.
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
    box = _clamp_box(bar.box.x + dx, bar.box.y + dy, bar.box.width, bar.box.height, res)
    if u_cut < model.cutoff_prob:
        # Raise the top edge so the bar covers only ~cut_frac of the URL text.
        text = bar.url_text_box
        new_top = text.y + text.height * (1.0 - cut_frac)
        new_bottom = max(box.bottom, new_top + 2.0)
        box = _clamp_box(box.x, new_top, box.width, new_bottom - new_top, res)
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
        rng = random.Random(profile.seed)
    res = layout.resolution
    # Each read once: a record's field costs more to read than a local.
    ocr, addrbar, theme = profile.ocr, profile.addrbar, layout.theme
    split_url = ocr.split_url and not ocr.oracle

    texts: list[TextRegion] = []
    for region in layout.title_boxes:
        texts.append(TextRegion(region.box, apply_ocr_noise(region.text, ocr, theme, rng)))
    for bar in layout.bars:
        seen = apply_ocr_noise(bar.url_string, ocr, theme, rng)
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
        texts.append(TextRegion(region.box, apply_ocr_noise(region.text, ocr, theme, rng)))

    bars: list[AddressBarPrediction] = []
    for bar in layout.bars:
        pred = _detect_bar(bar, addrbar, res, rng)
        if pred is not None:
            bars.append(pred)
    # Spurious bar draws happen unconditionally to keep streams aligned.
    u_spur = rng.random()
    spur_w = rng.uniform(200, 600)
    spur_h = rng.uniform(30, 70)
    spur_x = rng.uniform(0, res.width - spur_w)
    spur_y = rng.uniform(res.height * 0.5, res.height - spur_h)
    spur_conf = rng.uniform(0.25, 0.95)
    if not addrbar.oracle and u_spur < addrbar.spurious_prob:
        bars.append(AddressBarPrediction(_clamp_box(spur_x, spur_y, spur_w, spur_h, res), spur_conf))

    return PhotoAnalysis(resolution=res, texts=tuple(texts), addrbars=tuple(bars))


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
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def evaluate_corpus(
    n: int,
    params: GeneratorParams,
    profile: DetectorProfile,
    verify_cfg: VerifyConfig,
    accept_set: frozenset[DomainName] | set[DomainName],
    seed: int | None = None,
) -> EvalReport:
    """Run n generate->detect->verify cycles over genuine screenshots.

    Per-item seeds derive from the corpus seed alone, so shards evaluated
    separately add up to the same report.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    base = profile.seed if seed is None else seed
    domains, resolution, dark_fraction, variant = (
        params.domains, params.resolution, params.dark_fraction, params.variant
    )
    tp = fp = fn = retakes = 0
    for i in range(n):
        rng = random.Random(base * 1_000_003 + i)
        domain = domains[i % len(domains)]
        theme = Theme.DARK if rng.random() < dark_fraction else Theme.LIGHT
        layout = generate_layout(
            domain,
            theme=theme,
            variant=variant,
            seed=rng.getrandbits(32),
            resolution=resolution,
        )
        result = verify_photo(simulate_detection(layout, profile, rng), accept_set, verify_cfg)
        if result.kind is VerdictKind.MATCH:
            tp += 1
        else:
            retakes += 1
            if result.kind is VerdictKind.MISMATCH:
                fp += 1
            elif result.reason == RETAKE_UNREADABLE:
                fn += 1
    return EvalReport(EvalCounts(tp, fp, fn, retakes, n))


# ---------------------------------------------------------------------------
# Homograph stress
# ---------------------------------------------------------------------------


def char_errors(truth: str, seen: str) -> int:
    """Character-level recognition errors between two strings."""
    if len(truth) == len(seen):
        return sum(1 for a, b in zip(truth, seen) if a != b)
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
    with open(path, encoding="utf-8") as fh:
        return profile_from_dict(json.load(fh))
