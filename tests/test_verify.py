import json

import pytest

from photoauth.domain import extract_hostname
from photoauth.geometry import BoundingBox, Resolution, cover_rate
from photoauth.verify import (
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
