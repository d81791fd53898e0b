import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoauth.domain import extract_hostname
from photoauth.geometry import Resolution, cover_rate, intersection_area
from photoauth.synth import (
    AddrbarModel,
    BarTruth,
    BrowserLayout,
    DEFAULT_CONFUSABLE_RULES,
    DEFAULT_NOISY_PROFILE,
    DOMAIN_CORPUS,
    DetectorProfile,
    EvalCounts,
    EvalReport,
    GeneratorParams,
    InjectionPlacement,
    LayoutVariant,
    OcrModel,
    ORACLE_PROFILE,
    Theme,
    _clamp_box,
    apply_ocr_noise,
    char_errors,
    evaluate_corpus,
    generate_layout,
    homograph_stress,
    profile_from_dict,
    load_profile,
    simulate_detection,
)
from photoauth.verify import (
    RETAKE_MULTIPLE_ADDRBARS,
    RETAKE_UNREADABLE,
    VerdictKind,
    VerifyConfig,
    verify_photo,
)

from _oracles import (
    plain_clamp_box,
    plain_contains,
    plain_generate_layout,
    plain_ocr_noise,
    plain_simulate_detection,
    screen_box,
)

CFG = VerifyConfig()
CORPUS_ACCEPT = frozenset(extract_hostname(d) for d in DOMAIN_CORPUS)


def accept(*names):
    return frozenset(extract_hostname(n) for n in names)


class TestLayoutGeneration:
    @pytest.mark.parametrize("variant", list(LayoutVariant))
    @pytest.mark.parametrize("theme", list(Theme))
    def test_invariants_over_many_seeds(self, theme, variant):
        for seed in range(150):
            layout = generate_layout("microsoft.com", theme=theme, variant=variant, seed=seed)
            screen = screen_box(layout.resolution)
            expected_bars = 2 if variant is LayoutVariant.PICTURE_IN_PICTURE else 1
            assert len(layout.bars) == expected_bars
            for bar in layout.bars:
                assert plain_contains(screen, bar.box)
                assert plain_contains(bar.box, bar.url_text_box)
            for region in layout.title_boxes + layout.content_boxes:
                assert plain_contains(screen, region.box)
                assert intersection_area(region.box, layout.bars[0].box) == 0.0
            assert layout.bars[0].url_string == "microsoft.com"

    @pytest.mark.parametrize("size", [(1920, 1080), (1280, 720), (800, 600)])
    def test_title_ends_at_least_two_pixels_above_the_bar(self, size):
        resolution = Resolution(*size)
        for seed in range(2000):
            layout = generate_layout("microsoft.com", seed=seed, resolution=resolution)
            title = layout.title_boxes[0].box
            assert title.y + title.height <= layout.bars[0].box.y - 2, seed

    def test_same_seed_same_layout(self):
        a = generate_layout("github.com", seed=99)
        b = generate_layout("github.com", seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_layout("github.com", seed=1) != generate_layout("github.com", seed=2)

    def test_title_mentions_domain_by_default(self):
        layout = generate_layout("github.com", seed=3)
        assert "github.com" in layout.title_boxes[0].text

    def test_injected_title(self):
        layout = generate_layout(
            "rnicrosoft.com",
            seed=4,
            injected_text="microsoft.com",
            injected_placement=InjectionPlacement.TITLE,
        )
        assert layout.title_boxes[0].text == "microsoft.com"
        assert layout.bars[0].url_string == "rnicrosoft.com"

    def test_injected_content(self):
        layout = generate_layout(
            "rnicrosoft.com",
            seed=5,
            injected_text="microsoft.com",
            injected_placement=InjectionPlacement.PAGE_CONTENT,
        )
        assert any(r.text == "microsoft.com" for r in layout.content_boxes)

    def test_pip_second_bar_shows_spoofed_url(self):
        layout = generate_layout(
            "rnicrosoft.com",
            variant=LayoutVariant.PICTURE_IN_PICTURE,
            seed=6,
            injected_text="microsoft.com",
        )
        assert layout.bars[1].url_string == "microsoft.com"
        assert layout.bars[0].url_string == "rnicrosoft.com"

    def test_layout_validation_rejects_overlap(self):
        layout = generate_layout("microsoft.com", seed=7)
        bar = layout.bars[0]
        from photoauth.verify import TextRegion

        with pytest.raises(ValueError):
            BrowserLayout(
                resolution=layout.resolution,
                bars=layout.bars,
                title_boxes=(TextRegion(bar.box, "overlap"),),
                content_boxes=(),
            )
        with pytest.raises(ValueError):
            BrowserLayout(
                resolution=layout.resolution,
                bars=(),
                title_boxes=(),
                content_boxes=(),
            )

    def test_bar_truth_requires_contained_text(self):
        from photoauth.geometry import BoundingBox

        with pytest.raises(ValueError):
            BarTruth(
                box=BoundingBox(0, 0, 100, 40),
                url_text_box=BoundingBox(90, 10, 30, 20),
                url_string="x.com",
            )


class TestOracleDetection:
    def test_every_corpus_domain_matches(self):
        for i, domain in enumerate(DOMAIN_CORPUS):
            layout = generate_layout(domain, seed=i)
            analysis = simulate_detection(layout, ORACLE_PROFILE)
            result = verify_photo(analysis, CORPUS_ACCEPT, CFG)
            assert result.kind is VerdictKind.MATCH, domain
            assert str(result.found) == domain

    def test_oracle_reports_exact_boxes_full_confidence(self):
        layout = generate_layout("microsoft.com", seed=1)
        analysis = simulate_detection(layout, ORACLE_PROFILE)
        assert len(analysis.addrbars) == 1
        assert analysis.addrbars[0].box == layout.bars[0].box
        assert analysis.addrbars[0].confidence == 1.0

    def test_detection_is_pure_function_of_layout_and_profile(self):
        layout = generate_layout("microsoft.com", seed=8)
        a = simulate_detection(layout, DEFAULT_NOISY_PROFILE)
        b = simulate_detection(layout, DEFAULT_NOISY_PROFILE)
        assert a == b

    def test_shared_rng_draws_independent_photos(self):
        layout = generate_layout("microsoft.com", seed=8)
        rng = random.Random(0)
        profile = DetectorProfile(addrbar=AddrbarModel(oracle=False, jitter_px=10.0))
        a = simulate_detection(layout, profile, rng)
        b = simulate_detection(layout, profile, rng)
        assert a.addrbars[0].box != b.addrbars[0].box


class TestOcrChannel:
    def test_oracle_is_identity(self):
        ocr = OcrModel()
        assert apply_ocr_noise("microsoft.com", ocr, Theme.DARK, random.Random(0)) == "microsoft.com"

    def test_dark_theme_drops_www_dot(self):
        ocr = OcrModel(oracle=False, dot_drop_rate_dark=1.0)
        out = apply_ocr_noise("www.google.com", ocr, Theme.DARK, random.Random(0))
        assert out == "wwwgoogle.com"

    def test_light_theme_never_drops_dot(self):
        ocr = OcrModel(oracle=False, dot_drop_rate_dark=1.0)
        out = apply_ocr_noise("www.google.com", ocr, Theme.LIGHT, random.Random(0))
        assert out == "www.google.com"

    def test_dot_drop_needs_www_prefix(self):
        ocr = OcrModel(oracle=False, dot_drop_rate_dark=1.0)
        out = apply_ocr_noise("google.com", ocr, Theme.DARK, random.Random(0))
        assert out == "google.com"

    def test_full_substitution_changes_every_character(self):
        ocr = OcrModel(oracle=False, sub_rate=1.0)
        text = "microsoft.com"
        out = apply_ocr_noise(text, ocr, Theme.LIGHT, random.Random(3))
        assert len(out) == len(text)
        assert all(a != b for a, b in zip(text, out))

    def test_zero_rates_are_identity(self):
        ocr = OcrModel(oracle=False)
        assert apply_ocr_noise("paypal.com", ocr, Theme.DARK, random.Random(0)) == "paypal.com"

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            OcrModel(sub_rate=1.5)
        with pytest.raises(ValueError):
            AddrbarModel(miss_prob=-0.1)
        with pytest.raises(ValueError):
            AddrbarModel(jitter_px=-1.0)

    @pytest.mark.parametrize("jitter", [math.nan, math.inf])
    def test_jitter_must_be_finite(self, jitter):
        # A NaN or infinite jitter would first fail inside `_clamp_box`, mid-draw.
        with pytest.raises(ValueError, match="jitter_px must be finite"):
            AddrbarModel(oracle=False, jitter_px=jitter)


_rate = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


class TestOcrChannelEquivalence:
    """`apply_ocr_noise` against the plain per-character loop it replaced."""

    @given(
        text=st.one_of(st.text(max_size=40), st.text(max_size=20).map(lambda t: "www." + t)),
        sub_rate=_rate,
        dot_drop=_rate,
        oracle=st.booleans(),
        theme=st.sampled_from(list(Theme)),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200)
    def test_same_output_and_same_draws(self, text, sub_rate, dot_drop, oracle, theme, seed):
        ocr = OcrModel(oracle=oracle, sub_rate=sub_rate, dot_drop_rate_dark=dot_drop)
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = apply_ocr_noise(text, ocr, theme, got_rng)
        want = plain_ocr_noise(text, ocr, theme, want_rng)
        assert got == want
        assert got_rng.getstate() == want_rng.getstate()

    def test_no_substitution_returns_the_input(self):
        text = "login.live.com"
        ocr = OcrModel(oracle=False)
        assert apply_ocr_noise(text, ocr, Theme.LIGHT, random.Random(0)) is text


class TestClampEquivalence:
    @given(
        x=st.floats(-3000, 5000),
        y=st.floats(-3000, 5000),
        w=st.one_of(st.sampled_from([0.0, 1.0, 640.0]), st.floats(-10, 5000)),
        h=st.one_of(st.sampled_from([0.0, 1.0, 480.0]), st.floats(-10, 5000)),
        res=st.builds(Resolution, st.integers(1, 4000), st.integers(1, 4000)),
    )
    @settings(max_examples=200)
    def test_same_box_as_min_max(self, x, y, w, h, res):
        got = _clamp_box(x, y, w, h, float(res.width), float(res.height))
        assert repr(got) == repr(plain_clamp_box(x, y, w, h, res))

    def test_ties_keep_the_first_operand(self):
        res = Resolution(640, 480)
        for args in [(-0.0, 0.0, 1.0, 1.0), (0.0, -0.0, 640, 480), (10, 10, 1, 1)]:
            assert repr(_clamp_box(*args, 640.0, 480.0)) == repr(plain_clamp_box(*args, res))

    @pytest.mark.parametrize(
        "args",
        [
            (math.nan, 0.0, 10.0, 10.0),
            (0.0, math.nan, 10.0, 10.0),
            (0.0, 0.0, math.nan, 10.0),
            (0.0, 0.0, 10.0, math.nan),
            (math.inf, -math.inf, math.inf, -math.inf),
            (-math.inf, math.inf, -math.inf, math.inf),
        ],
    )
    def test_nan_is_refused_and_infinity_clamped_as_before(self, args):
        got = built_or_refused(lambda: _clamp_box(*args, 640.0, 480.0))
        want = built_or_refused(lambda: plain_clamp_box(*args, Resolution(640, 480)))
        assert repr(got) == repr(want)


def built_or_refused(build):
    """`build()`, or the refusal it raised.

    An empty `randrange` range is told apart by its start alone: the rest
    of that message differs between Python versions.
    """
    try:
        return build()
    except ValueError as exc:
        message = str(exc)
        return ("refused", "empty range" if message.startswith("empty range") else message)


_probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_profiles = st.one_of(
    st.just(ORACLE_PROFILE),
    st.just(DEFAULT_NOISY_PROFILE),
    st.builds(
        DetectorProfile,
        ocr=st.builds(OcrModel, oracle=st.booleans(), sub_rate=_probability,
                      dot_drop_rate_dark=_probability, split_url=st.booleans()),
        addrbar=st.builds(AddrbarModel, oracle=st.booleans(),
                          jitter_px=st.sampled_from([0.0, 10.0]) | st.floats(0.0, 500.0),
                          cutoff_prob=_probability, miss_prob=_probability,
                          spurious_prob=_probability),
    ),
)
_layout_args = st.fixed_dictionaries(
    {
        "domain": st.sampled_from(["microsoft.com", "bücher.de", "www.google.com", "x.io"]),
        "theme": st.sampled_from(list(Theme)),
        "variant": st.sampled_from(list(LayoutVariant)),
        "seed": st.integers(0, 2**32),
        "resolution": st.one_of(
            st.just(Resolution(1920, 1080)),
            st.sampled_from([Resolution(200, 60), Resolution(320, 120), Resolution(640, 480)]),
            st.builds(Resolution, st.integers(1, 2600), st.integers(1, 1600)),
        ),
        "injected_text": st.one_of(
            st.none(), st.sampled_from(["microsoft.com", "www.microsoft.com", ""]), st.text()
        ),
        "injected_placement": st.one_of(st.none(), st.sampled_from(list(InjectionPlacement))),
    }
)


class TestDrawsWrittenOut:
    """Layout and detection against their versions that call `rng.uniform` and
    `rng.randint`: the same records, float for float, and the same draws."""

    @given(args=_layout_args)
    @settings(max_examples=300)
    def test_same_layout(self, args):
        got = built_or_refused(lambda: generate_layout(**args))
        want = built_or_refused(lambda: plain_generate_layout(**args))
        assert repr(got) == repr(want)

    @given(args=_layout_args, profile=_profiles, seed=st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_same_analysis_and_draws(self, args, profile, seed):
        layout = built_or_refused(lambda: generate_layout(**args))
        if not isinstance(layout, BrowserLayout):
            return
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = built_or_refused(lambda: simulate_detection(layout, profile, got_rng))
        want = built_or_refused(lambda: plain_simulate_detection(layout, profile, want_rng))
        assert repr(got) == repr(want)
        assert got_rng.getstate() == want_rng.getstate()
        assert repr(built_or_refused(lambda: simulate_detection(layout, profile))) == repr(
            built_or_refused(lambda: plain_simulate_detection(layout, profile))
        )

    def test_same_layout_for_the_first_seeds(self):
        for seed in range(50):
            got = generate_layout("microsoft.com", seed=seed)
            assert repr(got) == repr(plain_generate_layout("microsoft.com", seed=seed))

    def test_a_screen_too_short_for_the_tab_strip_is_refused(self):
        for build in (generate_layout, plain_generate_layout):
            with pytest.raises(ValueError, match="^empty range"):
                build("microsoft.com", resolution=Resolution(200, 60))

    def test_an_unchanged_region_is_passed_on(self):
        layout = generate_layout("microsoft.com", seed=3)
        analysis = simulate_detection(layout, ORACLE_PROFILE)
        assert analysis.texts[0] is layout.title_boxes[0]
        assert analysis.texts[-1] is layout.content_boxes[-1]


class TestNoisyOutcomes:
    def test_dark_dot_drop_reads_wrong_domain(self):
        profile = DetectorProfile(ocr=OcrModel(oracle=False, dot_drop_rate_dark=1.0))
        layout = generate_layout("www.google.com", theme=Theme.DARK, seed=11)
        analysis = simulate_detection(layout, profile)
        result = verify_photo(analysis, accept("www.google.com", "google.com"), CFG)
        assert result.kind is VerdictKind.MISMATCH
        assert str(result.found) == "wwwgoogle.com"

    def test_light_theme_unaffected_by_dot_drop(self):
        profile = DetectorProfile(ocr=OcrModel(oracle=False, dot_drop_rate_dark=1.0))
        layout = generate_layout("www.google.com", theme=Theme.LIGHT, seed=11)
        analysis = simulate_detection(layout, profile)
        result = verify_photo(analysis, accept("www.google.com", "google.com"), CFG)
        assert result.kind is VerdictKind.MATCH

    def test_split_url_is_never_a_match(self):
        profile = DetectorProfile(ocr=OcrModel(oracle=False, split_url=True))
        layout = generate_layout("microsoft.com", seed=12)
        analysis = simulate_detection(layout, profile)
        inside = [t for t in analysis.texts if cover_rate(t.box, layout.bars[0].box) >= 0.8]
        assert len(inside) == 2
        result = verify_photo(analysis, accept("microsoft.com"), CFG)
        assert result.kind is VerdictKind.MISMATCH
        assert str(result.found) == "oft.com"  # wider right half wins the tie-break

    def test_miss_means_unreadable(self):
        profile = DetectorProfile(addrbar=AddrbarModel(oracle=False, miss_prob=1.0))
        layout = generate_layout("microsoft.com", seed=13)
        result = verify_photo(simulate_detection(layout, profile), accept("microsoft.com"), CFG)
        assert result.kind is VerdictKind.RETAKE
        assert result.reason == RETAKE_UNREADABLE

    def test_cutoff_hides_url_text(self):
        profile = DetectorProfile(addrbar=AddrbarModel(oracle=False, cutoff_prob=1.0))
        for seed in range(30):
            layout = generate_layout("microsoft.com", seed=seed)
            analysis = simulate_detection(layout, profile)
            assert len(analysis.addrbars) == 1
            cr = cover_rate(layout.bars[0].url_text_box, analysis.addrbars[0].box)
            assert cr < CFG.cr_threshold
            result = verify_photo(analysis, accept("microsoft.com"), CFG)
            assert result.kind is VerdictKind.RETAKE
            assert result.reason == RETAKE_UNREADABLE

    def test_spurious_bar_always_appended(self):
        profile = DetectorProfile(addrbar=AddrbarModel(oracle=False, spurious_prob=1.0))
        layout = generate_layout("microsoft.com", seed=14)
        analysis = simulate_detection(layout, profile)
        assert len(analysis.addrbars) == 2

    def test_confident_spurious_bar_forces_warned_retake(self):
        profile = DetectorProfile(addrbar=AddrbarModel(oracle=False, spurious_prob=1.0))
        warned = 0
        for seed in range(100):
            layout = generate_layout("microsoft.com", seed=seed)
            rng = random.Random(seed)
            analysis = simulate_detection(layout, profile, rng)
            result = verify_photo(analysis, accept("microsoft.com"), CFG)
            if result.reason == RETAKE_MULTIPLE_ADDRBARS:
                warned += 1
        # Spurious confidence spans [0.25, 0.95]; a good share clears the floor.
        assert warned > 30


class TestInjectionResistance:
    def test_injected_title_never_selected(self):
        layout = generate_layout(
            "rnicrosoft.com",
            seed=21,
            injected_text="microsoft.com",
            injected_placement=InjectionPlacement.TITLE,
        )
        result = verify_photo(
            simulate_detection(layout, ORACLE_PROFILE), accept("microsoft.com"), CFG
        )
        assert result.kind is VerdictKind.MISMATCH
        assert str(result.found) == "rnicrosoft.com"

    def test_injected_content_never_selected(self):
        layout = generate_layout(
            "rnicrosoft.com",
            seed=22,
            injected_text="microsoft.com",
            injected_placement=InjectionPlacement.PAGE_CONTENT,
        )
        result = verify_photo(
            simulate_detection(layout, ORACLE_PROFILE), accept("microsoft.com"), CFG
        )
        assert result.kind is VerdictKind.MISMATCH
        assert str(result.found) == "rnicrosoft.com"

    def test_picture_in_picture_triggers_warned_retake(self):
        for seed in range(50):
            layout = generate_layout(
                "rnicrosoft.com",
                variant=LayoutVariant.PICTURE_IN_PICTURE,
                seed=seed,
                injected_text="microsoft.com",
            )
            result = verify_photo(
                simulate_detection(layout, ORACLE_PROFILE), accept("microsoft.com"), CFG
            )
            assert result.kind is VerdictKind.RETAKE
            assert result.reason == RETAKE_MULTIPLE_ADDRBARS


class TestCorpusEvaluation:
    def test_oracle_corpus_is_perfect(self):
        params = GeneratorParams(domains=DOMAIN_CORPUS)
        report = evaluate_corpus(200, params, ORACLE_PROFILE, CFG, CORPUS_ACCEPT, seed=5)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.retake_rate == 0.0
        assert report.counts.true_positives == 200

    def test_total_miss_zeroes_recall(self):
        params = GeneratorParams(domains=("microsoft.com",))
        profile = DetectorProfile(addrbar=AddrbarModel(oracle=False, miss_prob=1.0))
        report = evaluate_corpus(100, params, profile, CFG, accept("microsoft.com"), seed=5)
        assert report.recall == 0.0
        assert report.retake_rate == 1.0
        assert report.counts.false_negatives == 100
        assert report.precision == 1.0  # vacuous: nothing was recognized at all

    def test_same_seed_same_report(self):
        params = GeneratorParams(domains=DOMAIN_CORPUS)
        a = evaluate_corpus(100, params, DEFAULT_NOISY_PROFILE, CFG, CORPUS_ACCEPT, seed=3)
        b = evaluate_corpus(100, params, DEFAULT_NOISY_PROFILE, CFG, CORPUS_ACCEPT, seed=3)
        assert a.to_json() == b.to_json()

    def test_default_corpus_seed_is_zero(self):
        params = GeneratorParams(domains=DOMAIN_CORPUS)
        a = evaluate_corpus(100, params, DEFAULT_NOISY_PROFILE, CFG, CORPUS_ACCEPT)
        b = evaluate_corpus(100, params, DEFAULT_NOISY_PROFILE, CFG, CORPUS_ACCEPT, seed=0)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("knob", ["miss_prob", "cutoff_prob"])
    def test_retake_rate_monotone_in_failure_probability(self, knob):
        params = GeneratorParams(domains=DOMAIN_CORPUS)
        rates = []
        for level in (0.0, 0.3, 0.7, 1.0):
            profile = DetectorProfile(
                ocr=OcrModel(oracle=False, sub_rate=0.002, dot_drop_rate_dark=0.05),
                addrbar=AddrbarModel(oracle=False, jitter_px=10.0, **{knob: level}),
            )
            report = evaluate_corpus(150, params, profile, CFG, CORPUS_ACCEPT, seed=17)
            rates.append(report.retake_rate)
        assert rates == sorted(rates)
        assert rates[-1] == 1.0

    def test_rejects_non_positive_n(self):
        with pytest.raises(ValueError):
            evaluate_corpus(0, GeneratorParams(), ORACLE_PROFILE, CFG, CORPUS_ACCEPT)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GeneratorParams(domains=())
        with pytest.raises(ValueError):
            GeneratorParams(dark_fraction=1.5)

    def test_report_json_shape(self):
        report = EvalReport(EvalCounts(8, 1, 1, 2, 10))
        obj = json.loads(report.to_json())
        assert obj["counts"] == {"tp": 8, "fp": 1, "fn": 1, "retakes": 2, "total": 10}
        assert obj["precision"] == pytest.approx(8 / 9)
        assert obj["recall"] == pytest.approx(8 / 9)
        assert obj["retake_rate"] == pytest.approx(0.2)


GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden_corpus.json")


class TestGoldenCorpus:
    """The benchmark's recorded counts, reproduced from `evaluate_corpus`.

    Cycle k of seed s is a one-item corpus with seed s * 10**6 + k whose
    domain list is rotated to start at domain k mod 3, as the corpus
    workload runs it. A change in any random draw or verdict of the
    generate -> detect -> verify cycle shows here as a count mismatch.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            return json.load(fh)

    @pytest.mark.parametrize("seed", [0, 101, 255])
    def test_counts_reproduce(self, golden, seed):
        domains = tuple(golden["domains"])
        rotations = [
            GeneratorParams(domains=domains[i:] + domains[:i]) for i in range(len(domains))
        ]
        accept_set = frozenset(extract_hostname(d) for d in domains)
        got = {"tp": 0, "fp": 0, "fn": 0, "retakes": 0}
        for k in range(golden["cycles"]):
            counts = evaluate_corpus(
                1, rotations[k % len(domains)], DEFAULT_NOISY_PROFILE, CFG, accept_set,
                seed=seed * 10**6 + k,
            ).counts
            got["tp"] += counts.true_positives
            got["fp"] += counts.false_positives
            got["fn"] += counts.false_negatives
            got["retakes"] += counts.retakes
        assert got == golden["counts"][str(seed)]


class TestHomographStress:
    def test_corpus_shape(self):
        assert len(DOMAIN_CORPUS) == 50
        assert sum(len(d) for d in DOMAIN_CORPUS) == 527

    def test_oracle_reads_back_exactly(self):
        for seed in range(20):
            assert homograph_stress(DOMAIN_CORPUS, DEFAULT_CONFUSABLE_RULES,
                                    ORACLE_PROFILE, seed) == 0

    def test_full_substitution_misreads_every_character(self):
        profile = DetectorProfile(ocr=OcrModel(oracle=False, sub_rate=1.0))
        assert homograph_stress(DOMAIN_CORPUS, DEFAULT_CONFUSABLE_RULES, profile, 0) == 527

    def test_without_rules_counts_plain_ocr_errors(self):
        profile = DetectorProfile(ocr=OcrModel(oracle=False, sub_rate=1.0))
        assert homograph_stress(DOMAIN_CORPUS, {}, profile, 0) == 527

    def test_error_counts_are_deterministic(self):
        profile = DetectorProfile(ocr=OcrModel(oracle=False, sub_rate=0.01))
        a = homograph_stress(DOMAIN_CORPUS, DEFAULT_CONFUSABLE_RULES, profile, 123)
        b = homograph_stress(DOMAIN_CORPUS, DEFAULT_CONFUSABLE_RULES, profile, 123)
        assert a == b


class TestCharErrors:
    @pytest.mark.parametrize(
        "truth,seen,expected",
        [
            ("abc", "abc", 0),
            ("abc", "axc", 1),
            ("g0ogle.com", "google.com", 1),
            ("abc", "ab", 1),
            ("ab", "axxb", 2),
            ("abc", "", 3),
            ("", "", 0),
            ("www.google.com", "wwwgoogle.com", 1),
        ],
    )
    def test_counts(self, truth, seen, expected):
        assert char_errors(truth, seen) == expected


class TestProfileSerialization:
    def test_empty_dict_is_oracle(self):
        assert profile_from_dict({}) == ORACLE_PROFILE

    def test_round_trip_fields(self):
        obj = {
            "ocr": {"mode": "noisy", "sub_rate": 0.01, "dot_drop_rate_dark": 0.2,
                    "split_url": True},
            "addrbar": {"mode": "noisy", "jitter_px": 5.0, "cutoff_prob": 0.1,
                        "miss_prob": 0.2, "spurious_prob": 0.3},
        }
        profile = profile_from_dict(obj)
        assert not profile.ocr.oracle
        assert profile.ocr.sub_rate == 0.01
        assert profile.ocr.split_url
        assert not profile.addrbar.oracle
        assert profile.addrbar.miss_prob == 0.2

    def test_load_profile_from_file(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"addrbar": {"mode": "noisy", "miss_prob": 1.0}}', encoding="utf-8")
        profile = load_profile(str(path))
        assert profile.addrbar.miss_prob == 1.0
        assert profile.ocr.oracle
