"""Photo verification: pick the address-bar text and compare domains.

Input is the analysis of one photo: OCR text boxes plus predicted
address-bar boxes. The text whose box is sufficiently covered by the
predicted bar is treated as the URL; its hostname must match one of the
server's accepted names.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .domain import DomainError, DomainName, extract_hostname
from .geometry import BoundingBox, Resolution, area, cover_rate

RETAKE_MULTIPLE_ADDRBARS = "multiple-addrbars"
RETAKE_UNREADABLE = "unreadable"
# Address-bar predictions below this confidence are ignored.
CONFIDENCE_FLOOR = 0.5


class _TextFields(NamedTuple):
    box: BoundingBox
    text: str


class TextRegion(_TextFields):
    """One OCR result: where the text sits and what it reads as."""

    __slots__ = ()

    def __new__(cls, box: BoundingBox, text: str):
        if not isinstance(text, str):
            raise ValueError(f"text region text must be a string, got {type(text).__name__}")
        if not text:
            raise ValueError("text region must carry non-empty text")
        return tuple.__new__(cls, (box, text))


class _PredictionFields(NamedTuple):
    box: BoundingBox
    confidence: float


class AddressBarPrediction(_PredictionFields):
    """One detector result with its confidence score."""

    __slots__ = ()

    def __new__(cls, box: BoundingBox, confidence: float):
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        return tuple.__new__(cls, (box, confidence))


class _AnalysisFields(NamedTuple):
    resolution: Resolution
    texts: tuple[TextRegion, ...]
    addrbars: tuple[AddressBarPrediction, ...]


class PhotoAnalysis(_AnalysisFields):
    """Everything extracted from one photo, in photo pixel coordinates."""

    __slots__ = ()

    def __new__(
        cls,
        resolution: Resolution,
        texts: tuple[TextRegion, ...],
        addrbars: tuple[AddressBarPrediction, ...],
    ):
        bounds = resolution.bounds()
        for region in texts:
            if not bounds.contains(region.box):
                raise ValueError(f"text box outside {resolution}: {region.box}")
        for pred in addrbars:
            if not bounds.contains(pred.box):
                raise ValueError(f"address-bar box outside {resolution}: {pred.box}")
        return tuple.__new__(cls, (resolution, texts, addrbars))


class _VerifyConfigFields(NamedTuple):
    cr_threshold: float = 0.8


class VerifyConfig(_VerifyConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.cr_threshold <= 1.0:
            raise ValueError(f"cr_threshold must be in (0, 1], got {self.cr_threshold}")
        return self


class ExtractionKind(Enum):
    DOMAIN = "domain"
    MULTIPLE_ADDRESS_BARS = "multiple-address-bars"
    NO_ADDRESS_BAR = "no-address-bar"
    NO_QUALIFYING_TEXT = "no-qualifying-text"


class ExtractionOutcome(NamedTuple):
    kind: ExtractionKind
    domain: DomainName | None = None
    cover_rate: float | None = None


class VerdictKind(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    RETAKE = "retake"


class VerifyResult(NamedTuple):
    kind: VerdictKind
    found: DomainName | None = None
    reason: str | None = None


def extract_domain(analysis: PhotoAnalysis, cfg: VerifyConfig = VerifyConfig()) -> ExtractionOutcome:
    """Select the URL text in a photo and parse its hostname.

    Steps:
      1. Drop address-bar predictions below `CONFIDENCE_FLOOR`.
      2. More than one remains: reject, the photo may contain an
         embedded fake bar.
      3. None remain: the bar was not found.
      4. Keep texts whose cover rate against the bar reaches the
         threshold; none qualifying means the URL text is not readable
         inside the detected bar.
      5. Take the highest cover rate; ties go to the larger text box,
         then to the leftmost-topmost one. Hostname parse failures are
         reported as no qualifying text.
    """
    bars = [p for p in analysis.addrbars if p.confidence >= CONFIDENCE_FLOOR]
    if len(bars) > 1:
        return ExtractionOutcome(ExtractionKind.MULTIPLE_ADDRESS_BARS)
    if not bars:
        return ExtractionOutcome(ExtractionKind.NO_ADDRESS_BAR)
    bar = bars[0]

    candidates = []
    threshold = cfg.cr_threshold
    for region in analysis.texts:
        cr = cover_rate(region.box, bar.box)
        if cr >= threshold:
            candidates.append((cr, region))
    if not candidates:
        return ExtractionOutcome(ExtractionKind.NO_QUALIFYING_TEXT)

    candidates.sort(key=lambda c: (-c[0], -area(c[1].box), c[1].box.x, c[1].box.y))
    best_cr, best = candidates[0]
    try:
        name = extract_hostname(best.text)
    except DomainError:
        return ExtractionOutcome(ExtractionKind.NO_QUALIFYING_TEXT)
    return ExtractionOutcome(ExtractionKind.DOMAIN, domain=name, cover_rate=best_cr)


def verify_photo(
    analysis: PhotoAnalysis,
    accept_set: Iterable[DomainName],
    cfg: VerifyConfig = VerifyConfig(),
) -> VerifyResult:
    """Decide whether a photo shows one of the accepted domains.

    Multiple detected bars and an unreadable photo both ask for a retake,
    told apart by `reason`. A readable photo either matches or exposes the
    domain actually visited.
    """
    outcome = extract_domain(analysis, cfg)
    if outcome.kind is ExtractionKind.MULTIPLE_ADDRESS_BARS:
        return VerifyResult(VerdictKind.RETAKE, reason=RETAKE_MULTIPLE_ADDRBARS)
    if outcome.kind in (ExtractionKind.NO_ADDRESS_BAR, ExtractionKind.NO_QUALIFYING_TEXT):
        return VerifyResult(VerdictKind.RETAKE, reason=RETAKE_UNREADABLE)
    assert outcome.domain is not None
    if outcome.domain in accept_set:
        return VerifyResult(VerdictKind.MATCH, found=outcome.domain)
    return VerifyResult(VerdictKind.MISMATCH, found=outcome.domain)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def _box_fields(box: BoundingBox) -> dict:
    return {"x": box.x, "y": box.y, "w": box.width, "h": box.height}


def _number(obj: dict, key: str):
    # JSON's true and false are Python ints; on the wire they are no number.
    value = obj[key]
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return value


def _box_from(obj: dict) -> BoundingBox:
    return BoundingBox(
        _number(obj, "x"), _number(obj, "y"), _number(obj, "w"), _number(obj, "h")
    )


def analysis_to_dict(analysis: PhotoAnalysis) -> dict:
    return {
        "resolution": {"w": analysis.resolution.width, "h": analysis.resolution.height},
        "texts": [{**_box_fields(t.box), "text": t.text} for t in analysis.texts],
        "addrbars": [
            {**_box_fields(p.box), "confidence": p.confidence} for p in analysis.addrbars
        ],
    }


def analysis_from_dict(obj: dict) -> PhotoAnalysis:
    try:
        size = obj["resolution"]
        resolution = Resolution(_number(size, "w"), _number(size, "h"))
        texts = tuple(TextRegion(_box_from(t), t["text"]) for t in obj["texts"])
        addrbars = tuple(
            AddressBarPrediction(_box_from(p), _number(p, "confidence")) for p in obj["addrbars"]
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed photo analysis: {exc}") from exc
    return PhotoAnalysis(resolution=resolution, texts=texts, addrbars=addrbars)
