import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photoauth.verify
from photoauth.domain import extract_hostname
from photoauth.geometry import BoundingBox, Resolution, cover_rate
from photoauth.verify import (
    CONFIDENCE_FLOOR,
    AddressBarPrediction,
    ExtractionKind,
    PhotoAnalysis,
    RETAKE_MULTIPLE_ADDRBARS,
    RETAKE_UNREADABLE,
    TextRegion,
    VerdictKind,
    VerifyConfig,
    analysis_from_dict,
    analysis_to_dict,
    extract_domain,
    verify_photo,
)

from _oracles import plain_extract_domain, plain_verify_photo

RES = Resolution(1920, 1080)
BAR = BoundingBox(20, 50, 1000, 50)
URL_BOX = BoundingBox(120, 62, 300, 26)  # fully inside BAR


def make_analysis(texts, bars):
    return PhotoAnalysis(resolution=RES, texts=tuple(texts), addrbars=tuple(bars))


def accepted(*names):
    return frozenset(extract_hostname(n) for n in names)


class TestTypes:
    def test_text_region_needs_text(self):
        with pytest.raises(ValueError):
            TextRegion(URL_BOX, "")

    @pytest.mark.parametrize("text", [5, ["a"], {}, True, None, b"microsoft.com"])
    def test_text_region_needs_a_string(self, text):
        with pytest.raises(ValueError):
            TextRegion(URL_BOX, text)

    def test_confidence_range(self):
        with pytest.raises(ValueError):
            AddressBarPrediction(BAR, 1.5)

    def test_boxes_must_fit_resolution(self):
        with pytest.raises(ValueError):
            make_analysis([TextRegion(BoundingBox(1900, 1070, 100, 100), "x")], [])
        with pytest.raises(ValueError):
            make_analysis([], [AddressBarPrediction(BoundingBox(0, 1000, 10, 100), 0.9)])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VerifyConfig(cr_threshold=0.0)


class TestExtractDomain:
    def test_reads_url_inside_bar(self):
        analysis = make_analysis(
            [TextRegion(URL_BOX, "https://microsoft.com/login")],
            [AddressBarPrediction(BAR, 0.97)],
        )
        outcome = extract_domain(analysis)
        assert outcome.kind is ExtractionKind.DOMAIN
        assert str(outcome.domain) == "microsoft.com"
        assert outcome.cover_rate == 1.0

    def test_confidence_floor_drops_weak_predictions(self):
        weak = AddressBarPrediction(BAR, 0.4)
        analysis = make_analysis([TextRegion(URL_BOX, "microsoft.com")], [weak])
        assert extract_domain(analysis).kind is ExtractionKind.NO_ADDRESS_BAR

    def test_two_confident_bars_rejected(self):
        second = AddressBarPrediction(BoundingBox(100, 600, 800, 48), 0.9)
        analysis = make_analysis(
            [TextRegion(URL_BOX, "microsoft.com")],
            [AddressBarPrediction(BAR, 0.95), second],
        )
        outcome = extract_domain(analysis)
        assert outcome.kind is ExtractionKind.MULTIPLE_ADDRESS_BARS

    def test_second_bar_below_floor_is_ignored(self):
        second = AddressBarPrediction(BoundingBox(100, 600, 800, 48), 0.3)
        analysis = make_analysis(
            [TextRegion(URL_BOX, "microsoft.com")],
            [AddressBarPrediction(BAR, 0.95), second],
        )
        assert extract_domain(analysis).kind is ExtractionKind.DOMAIN

    def test_no_qualifying_text(self):
        below = TextRegion(BoundingBox(100, 600, 300, 30), "microsoft.com")
        analysis = make_analysis([below], [AddressBarPrediction(BAR, 0.95)])
        assert extract_domain(analysis).kind is ExtractionKind.NO_QUALIFYING_TEXT

    def test_highest_cover_rate_wins(self):
        # Partially covered text vs fully covered text.
        partial = TextRegion(BoundingBox(20, 40, 200, 20), "evil.com")  # sticks out above
        assert 0.0 < cover_rate(partial.box, BAR) < 1.0
        full = TextRegion(URL_BOX, "good.com")
        analysis = make_analysis([partial, full], [AddressBarPrediction(BAR, 0.95)])
        outcome = extract_domain(analysis, VerifyConfig(cr_threshold=0.4))
        assert str(outcome.domain) == "good.com"

    def test_tie_breaks_by_area_then_position(self):
        a = TextRegion(BoundingBox(200, 60, 100, 20), "small.com")
        b = TextRegion(BoundingBox(400, 60, 300, 20), "big.com")
        analysis = make_analysis([a, b], [AddressBarPrediction(BAR, 0.95)])
        assert str(extract_domain(analysis).domain) == "big.com"

        c = TextRegion(BoundingBox(500, 60, 100, 20), "right.com")
        d = TextRegion(BoundingBox(100, 60, 100, 20), "left.com")
        analysis = make_analysis([c, d], [AddressBarPrediction(BAR, 0.95)])
        assert str(extract_domain(analysis).domain) == "left.com"

    def test_unparseable_best_text_is_no_qualifying(self):
        garbage = TextRegion(URL_BOX, "???!!!")
        analysis = make_analysis([garbage], [AddressBarPrediction(BAR, 0.95)])
        assert extract_domain(analysis).kind is ExtractionKind.NO_QUALIFYING_TEXT


# Photos around one bar: texts above it, below it, across either edge, inside
# it, and exactly touching its top or bottom edge (dyadic sizes keep those
# sums exact), some of zero area; 0-3 predictions with confidences around the
# floor, the first on that bar.
_size = st.one_of(st.sampled_from([1e-200, 0.25, 1, 20, 40.5]), st.floats(1e-3, 80))
_gap = st.one_of(st.sampled_from([0, 5e-324, 1e-9, 0.5, 7]), st.floats(0, 20))
_confidence = st.one_of(
    st.sampled_from([0.0, 0.49999999999999994, CONFIDENCE_FLOOR, 0.5000000000000001, 1.0]),
    st.floats(0.0, 1.0),
)
_texts = st.sampled_from(
    ["microsoft.com", "https://login.live.com/x", "bücher.de", "rnicrosoft.com", "???", "a b"]
)


@st.composite
def _photos(draw):
    bar = BoundingBox(
        draw(st.one_of(st.sampled_from([0, 20.0]), st.floats(0, 800))),
        draw(st.one_of(st.sampled_from([100, 100.25, 333.3]), st.floats(100, 800))),
        draw(st.one_of(st.sampled_from([1e-200, 600.0]), st.floats(1e-3, 1000))),
        draw(st.one_of(st.sampled_from([1e-200, 1, 40.5]), st.floats(1e-3, 100))),
    )
    top, bottom = bar.y, bar.y + bar.height
    texts = []
    for _ in range(draw(st.integers(0, 4))):
        h = draw(_size)
        y = draw(st.sampled_from([
            top - h - draw(_gap),  # above
            top - h,  # touching the top edge
            top - h + draw(_gap),  # a hair across the top edge
            top - h / 2,  # across the top edge
            top + draw(st.floats(0, 1)) * bar.height,  # inside
            bottom - h / 2,  # across the bottom edge
            bottom - draw(_gap),  # a hair across the bottom edge
            bottom,  # touching the bottom edge
            bottom + draw(_gap),  # below
        ]))
        x = draw(st.one_of(st.sampled_from([0, bar.x]), st.floats(0, 1500)))
        box = BoundingBox(x, max(y, 0.0), draw(_size) * 5, h)
        texts.append(TextRegion(box, draw(_texts)))
    bars = [AddressBarPrediction(bar, draw(_confidence))]
    for _ in range(draw(st.integers(0, 2))):
        other = BoundingBox(draw(st.floats(0, 900)), draw(st.floats(0, 900)),
                            draw(st.floats(1, 1000)), draw(st.floats(1, 100)))
        bars.append(AddressBarPrediction(other, draw(_confidence)))
    return make_analysis(texts, draw(st.sampled_from([[], bars[:1], bars])))


_configs = st.builds(VerifyConfig, st.one_of(
    st.sampled_from([5e-324, 1e-300, 0.5, 0.8, 1.0]), st.floats(5e-324, 1.0)))


class TestOffRowTextsAreNotScored:
    """`extract_domain` skips texts wholly above or below the bar's rows;
    the outcome is the one of scoring every text."""

    @given(analysis=_photos(), cfg=_configs)
    @settings(max_examples=400)
    def test_same_outcome_and_verdict_as_scoring_every_text(self, analysis, cfg):
        accept = accepted("microsoft.com", "bücher.de")
        assert repr(extract_domain(analysis, cfg)) == repr(plain_extract_domain(analysis, cfg))
        assert repr(verify_photo(analysis, accept, cfg)) == repr(
            plain_verify_photo(analysis, accept, cfg)
        )

    @pytest.fixture
    def scored(self, monkeypatch):
        """The text boxes `cover_rate` is called on, in order."""
        calls = []

        def counting(text_box, bar_box):
            calls.append(text_box)
            return cover_rate(text_box, bar_box)

        monkeypatch.setattr(photoauth.verify, "cover_rate", counting)
        return calls

    def test_only_a_text_on_the_bar_rows_is_scored(self, scored):
        calls = scored
        title = TextRegion(BoundingBox(120, 10, 300, 20), "Sign in to microsoft.com")
        url = TextRegion(BoundingBox(120, 45, 300, 26), "microsoft.com")  # across the top edge
        content = TextRegion(BoundingBox(120, 100, 300, 20), "Welcome back")  # touching the bottom
        analysis = make_analysis([title, url, content], [AddressBarPrediction(BAR, 0.95)])
        result = verify_photo(analysis, accepted("microsoft.com"), VerifyConfig(cr_threshold=0.5))
        assert result.kind is VerdictKind.MATCH
        assert calls == [url.box]

    # BAR spans rows 50 to 100; a 16-high text at y 34 ends on row 50 exactly.
    @pytest.mark.parametrize(
        "y, on_rows",
        [
            (34.0, False),
            (math.nextafter(34.0, math.inf), True),
            (100.0, False),
            (math.nextafter(100.0, 0.0), True),
        ],
        ids=["touching-top", "one-ulp-across-top", "touching-bottom", "one-ulp-across-bottom"],
    )
    def test_a_text_one_ulp_across_an_edge_is_scored(self, scored, y, on_rows):
        analysis = make_analysis(
            [TextRegion(BoundingBox(120, y, 300, 16), "microsoft.com")],
            [AddressBarPrediction(BAR, 0.95)],
        )
        cfg = VerifyConfig(cr_threshold=5e-324)
        outcome = extract_domain(analysis, cfg)
        assert len(scored) == on_rows
        assert (outcome.kind is ExtractionKind.DOMAIN) is on_rows
        assert repr(outcome) == repr(plain_extract_domain(analysis, cfg))


class TestVerifyPhoto:
    def test_match(self):
        analysis = make_analysis(
            [TextRegion(URL_BOX, "microsoft.com")], [AddressBarPrediction(BAR, 0.95)]
        )
        result = verify_photo(analysis, accepted("microsoft.com"))
        assert result.kind is VerdictKind.MATCH

    def test_mismatch_reports_found_domain(self):
        analysis = make_analysis(
            [TextRegion(URL_BOX, "rnicrosoft.com")], [AddressBarPrediction(BAR, 0.95)]
        )
        result = verify_photo(analysis, accepted("microsoft.com"))
        assert result.kind is VerdictKind.MISMATCH
        assert str(result.found) == "rnicrosoft.com"

    def test_multiple_bars_retake_warns(self):
        analysis = make_analysis(
            [TextRegion(URL_BOX, "microsoft.com")],
            [AddressBarPrediction(BAR, 0.95),
             AddressBarPrediction(BoundingBox(100, 600, 800, 48), 0.9)],
        )
        result = verify_photo(analysis, accepted("microsoft.com"))
        assert result.kind is VerdictKind.RETAKE
        assert result.reason == RETAKE_MULTIPLE_ADDRBARS

    def test_unreadable_retake(self):
        analysis = make_analysis([TextRegion(URL_BOX, "microsoft.com")], [])
        result = verify_photo(analysis, accepted("microsoft.com"))
        assert result.kind is VerdictKind.RETAKE
        assert result.reason == RETAKE_UNREADABLE

    @pytest.mark.parametrize("container", [set, frozenset, list, tuple, iter])
    def test_accept_set_any_iterable(self, container):
        analysis = make_analysis(
            [TextRegion(URL_BOX, "microsoft.com")], [AddressBarPrediction(BAR, 0.95)]
        )
        names = container([extract_hostname("example.com"), extract_hostname("microsoft.com")])
        assert verify_photo(analysis, names).kind is VerdictKind.MATCH

    def test_match_needs_exact_labels(self):
        def verdict(text, *names):
            analysis = make_analysis([TextRegion(URL_BOX, text)], [AddressBarPrediction(BAR, 0.95)])
            return verify_photo(analysis, accepted(*names)).kind

        both = ("www.example.com", "example.com")
        assert verdict("example.com", *both) is VerdictKind.MATCH
        assert verdict("www.example.com", *both) is VerdictKind.MATCH
        assert verdict("www.example.com", "example.com") is VerdictKind.MISMATCH
        assert verdict("example.com", "www.example.com") is VerdictKind.MISMATCH

    def test_accept_set_with_multiple_names(self):
        analysis = make_analysis(
            [TextRegion(URL_BOX, "www.microsoft.com")], [AddressBarPrediction(BAR, 0.95)]
        )
        result = verify_photo(analysis, accepted("microsoft.com", "www.microsoft.com"))
        assert result.kind is VerdictKind.MATCH


class TestWireFormat:
    def test_round_trip(self):
        analysis = make_analysis(
            [TextRegion(URL_BOX, "microsoft.com")],
            [AddressBarPrediction(BAR, 0.97)],
        )
        again = analysis_from_dict(json.loads(json.dumps(analysis_to_dict(analysis))))
        assert again == analysis

    def test_schema_keys(self):
        analysis = make_analysis(
            [TextRegion(URL_BOX, "a.com")], [AddressBarPrediction(BAR, 0.9)]
        )
        obj = json.loads(json.dumps(analysis_to_dict(analysis)))
        assert set(obj) == {"resolution", "texts", "addrbars"}
        assert set(obj["resolution"]) == {"w", "h"}
        assert set(obj["texts"][0]) == {"x", "y", "w", "h", "text"}
        assert set(obj["addrbars"][0]) == {"x", "y", "w", "h", "confidence"}

    @pytest.mark.parametrize(
        "payload",
        [
            "{}",
            '{"resolution": {"w": 100}, "texts": [], "addrbars": []}',
            '{"resolution": {"w": 100, "h": 100}, "texts": [{"x": 0}], "addrbars": []}',
        ],
    )
    def test_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            analysis_from_dict(json.loads(payload))
