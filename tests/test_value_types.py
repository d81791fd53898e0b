"""The photo value types are named tuples that behave as the dataclasses did.

Each type is built side by side with its reference in `_oracles`: the same
fields must be accepted or refused alike, with the same exception type and
message, and an accepted value must have the same `repr` and `hash`.
"""

import copy
import math
import os
import pickle
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from photoauth.domain import extract_hostname
from photoauth.geometry import BoundingBox, Resolution
from photoauth.synth import BarTruth, BrowserLayout, EvalCounts, EvalReport, Theme
from photoauth.verify import (
    AddressBarPrediction,
    ExtractionKind,
    ExtractionOutcome,
    PhotoAnalysis,
    TextRegion,
    VerdictKind,
    VerifyResult,
)

from _oracles import (
    OldAddressBarPrediction,
    OldBarTruth,
    OldBoundingBox,
    OldBrowserLayout,
    OldEvalCounts,
    OldEvalReport,
    OldExtractionOutcome,
    OldPhotoAnalysis,
    OldTextRegion,
    OldVerifyResult,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "photoauth")

# Numbers at and around every edge the checks draw, and what is no number.
EDGES = st.sampled_from([0, 0.0, -0.0, 1, -1, 0.5, 1.0, 1.5, True, False,
                         math.nan, math.inf, -math.inf, 1e308, -1e-300])
NUMBERS = st.one_of(EDGES, st.floats(), st.integers(-3, 70))
ANYTHING = st.one_of(NUMBERS, st.none(), st.text(max_size=2), st.binary(max_size=2))
TEXTS = st.one_of(st.text(max_size=3), st.sampled_from(["", "microsoft.com"]),
                  st.integers(-1, 1), st.booleans(), st.none(), st.binary(max_size=2))
# Small boxes on a small screen, so that many fall partly outside it.
COORDS = st.one_of(st.integers(0, 40), st.sampled_from([-0.0, 0.5, 39.5]))
SIZES = st.one_of(st.integers(1, 40), st.sampled_from([0.25, 40.0]))
BOX_FIELDS = st.tuples(COORDS, COORDS, SIZES, SIZES)
RESOLUTIONS = st.builds(Resolution, st.integers(1, 48), st.integers(1, 48))


def outcome(build, *args):
    """What building gives: its repr and hash, or its exception's type and message."""
    try:
        value = build(*args)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return ("refused", type(exc), str(exc))
    return ("built", repr(value), hash(value))


def same(new, old, *args):
    result = outcome(new, *args)
    assert result == outcome(old, *args)
    return result


def region(box_type, region_type):
    return lambda fields, text: region_type(box_type(*fields), text)


class TestAgainstTheDataclasses:
    @settings(max_examples=400)
    @given(st.tuples(NUMBERS, NUMBERS, NUMBERS, NUMBERS))
    def test_bounding_box(self, fields):
        same(BoundingBox, OldBoundingBox, *fields)

    @given(st.tuples(ANYTHING, ANYTHING, ANYTHING, ANYTHING))
    def test_bounding_box_of_anything(self, fields):
        same(BoundingBox, OldBoundingBox, *fields)

    @given(BOX_FIELDS, TEXTS)
    def test_text_region(self, fields, text):
        same(region(BoundingBox, TextRegion), region(OldBoundingBox, OldTextRegion), fields, text)

    @settings(max_examples=200)
    @given(BOX_FIELDS, st.one_of(NUMBERS, st.text(max_size=1), st.none()))
    def test_address_bar_prediction(self, fields, confidence):
        same(region(BoundingBox, AddressBarPrediction),
             region(OldBoundingBox, OldAddressBarPrediction), fields, confidence)

    @settings(max_examples=300)
    @given(RESOLUTIONS, st.lists(BOX_FIELDS, max_size=3), st.lists(BOX_FIELDS, max_size=3))
    def test_photo_analysis(self, resolution, text_boxes, bar_boxes):
        def build(box, text_region, prediction, analysis):
            texts = tuple(text_region(box(*b), "a") for b in text_boxes)
            bars = tuple(prediction(box(*b), 0.9) for b in bar_boxes)
            return lambda: analysis(resolution, texts, bars)

        same(build(BoundingBox, TextRegion, AddressBarPrediction, PhotoAnalysis),
             build(OldBoundingBox, OldTextRegion, OldAddressBarPrediction, OldPhotoAnalysis))

    @given(BOX_FIELDS, BOX_FIELDS, TEXTS)
    def test_bar_truth(self, bar, url, text):
        same(lambda: BarTruth(BoundingBox(*bar), BoundingBox(*url), text),
             lambda: OldBarTruth(OldBoundingBox(*bar), OldBoundingBox(*url), text))

    @settings(max_examples=300)
    @given(RESOLUTIONS, st.lists(BOX_FIELDS, max_size=2), st.lists(BOX_FIELDS, max_size=2),
           st.lists(BOX_FIELDS, max_size=2), st.sampled_from(Theme))
    def test_browser_layout(self, resolution, bars, titles, contents, theme):
        def build(box, bar_truth, text_region, layout):
            def make():
                return layout(
                    resolution,
                    tuple(bar_truth(box(*b), box(*b), "u") for b in bars),
                    tuple(text_region(box(*b), "t") for b in titles),
                    tuple(text_region(box(*b), "c") for b in contents),
                    theme,
                )
            return make

        same(build(BoundingBox, BarTruth, TextRegion, BrowserLayout),
             build(OldBoundingBox, OldBarTruth, OldTextRegion, OldBrowserLayout))

    def test_browser_layout_default_theme(self):
        res = Resolution(100, 100)
        result = same(lambda: BrowserLayout(res, (BarTruth(BoundingBox(0, 0, 50, 10),
                                                           BoundingBox(1, 1, 5, 5), "u"),), (), ()),
                      lambda: OldBrowserLayout(res, (OldBarTruth(OldBoundingBox(0, 0, 50, 10),
                                                                 OldBoundingBox(1, 1, 5, 5), "u"),),
                                               (), ()))
        assert result[0] == "built"
        assert "theme=<Theme.LIGHT: 'light'>" in result[1]

    @given(st.sampled_from(ExtractionKind), st.sampled_from(["microsoft.com", "xn--bcher-kva.de"]),
           st.one_of(st.none(), st.floats(0, 1)), st.booleans())
    def test_extraction_outcome(self, kind, domain, cover, with_domain):
        name = extract_hostname(domain) if with_domain else None
        same(ExtractionOutcome, OldExtractionOutcome, kind, name, cover)
        same(ExtractionOutcome, OldExtractionOutcome, kind)

    @given(st.sampled_from(VerdictKind), st.one_of(st.none(), st.sampled_from(["unreadable"])))
    def test_verify_result(self, kind, reason):
        name = extract_hostname("microsoft.com")
        same(VerifyResult, OldVerifyResult, kind, name, reason)
        same(lambda: VerifyResult(kind, reason=reason), lambda: OldVerifyResult(kind, reason=reason))

    @given(st.lists(st.integers(0, 10**6), min_size=5, max_size=5))
    def test_eval_counts_and_report(self, counts):
        same(EvalCounts, OldEvalCounts, *counts)
        same(lambda: EvalReport(EvalCounts(*counts)), lambda: OldEvalReport(OldEvalCounts(*counts)))


class TestNamedTupleSemantics:
    def test_equal_fields_equal_values(self):
        a, b = BoundingBox(1, 2, 3, 4), BoundingBox(1.0, 2.0, 3.0, 4.0)
        assert a == b and hash(a) == hash(b)
        assert TextRegion(a, "x") == TextRegion(b, "x")

    def test_fields_are_read_only(self):
        box = BoundingBox(1, 2, 3, 4)
        for name in ("x", "y", "width", "height"):
            try:
                setattr(box, name, 0)
            except AttributeError:
                continue
            raise AssertionError(f"{name} was assigned")
        assert not hasattr(box, "__dict__")

    def test_keywords_name_the_fields(self):
        box = BoundingBox(x=1, y=2, width=3, height=4)
        assert (box.right, box.bottom) == (4, 6)
        assert TextRegion(box=box, text="a").text == "a"

    def test_copy_and_pickle_round_trip(self):
        box = BoundingBox(1, 2, 3, 4)
        assert copy.copy(box) == box
        assert pickle.loads(pickle.dumps(box)) == box

    def test_nothing_builds_a_value_past_its_check(self):
        # `_make` and `_replace` build a tuple without calling `__new__`.
        uses = []
        for name in sorted(os.listdir(SRC)):
            if name.endswith(".py"):
                with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                    uses += [name for line in fh if re.search(r"\._(make|replace)\(", line)]
        assert uses == []
