import functools
import hashlib
import json
import os
import random

import pytest

from photoauth import simulator
from photoauth.simulator import (
    ADVERSARY,
    Outcome,
    OutcomeKind,
    PHONE,
    SAFE,
    SERVER,
    Scenario,
    UNSAFE,
    load_scenario,
    matches_expectation,
    run_benign_login,
    run_injection_attack,
    run_otp_baseline,
    run_redirection_attack,
    run_rtp_attack,
    run_scenario,
    run_token_bruteforce,
)
from photoauth.service import App, Config, WireRequest
from photoauth.synth import (
    DEFAULT_NOISY_PROFILE,
    AddrbarModel,
    DetectorProfile,
    GeneratorParams,
    ORACLE_PROFILE,
    OcrModel,
    Theme,
    generate_layout,
    simulate_detection,
)
from photoauth.verify import analysis_to_dict

CUTOFF_PROFILE = DetectorProfile(
    ocr=OcrModel(oracle=False),
    addrbar=AddrbarModel(oracle=False, cutoff_prob=0.5, jitter_px=4.0),
)
DOT_DROP_PROFILE = DetectorProfile(ocr=OcrModel(oracle=False, dot_drop_rate_dark=1.0))
MISS_PROFILE = DetectorProfile(addrbar=AddrbarModel(oracle=False, miss_prob=1.0))


def adversary_authorized(report):
    return any(
        d["kind"] == "authorize" and d["owner"] == ADVERSARY for d in report.trail
    )


class TestCookieJar:
    def test_victim_page_names_the_fake_domain(self):
        # A real name given in capitals is still rewritten: the proxy
        # works with canonical names on both sides.
        report = run_rtp_attack(0, upstream="Microsoft.com")
        relayed = [e["data"]["page"] for e in report.log if e["kind"] == "login-relayed"]
        assert relayed == ["POST microsoft.com/login"]
        pages = [
            e["data"]["page"] for e in report.log
            if e["kind"] == "set-cookie" and e["to"] == "user-pc"
        ]
        assert pages == ["Welcome to rnicrosoft.com"]


class TestBenignLogin:
    def test_pc_login_needs_one_photo(self):
        report = run_benign_login(3)
        assert report.outcome == Outcome(OutcomeKind.AUTHORIZED, "user")
        assert report.photos_taken == 1
        assert [d["kind"] for d in report.trail] == ["link-sent", "require-photo", "authorize"]

    def test_phone_login_skips_the_photo(self):
        report = run_benign_login(3, login_device="phone")
        assert report.outcome.kind is OutcomeKind.AUTHORIZED
        assert report.photos_taken == 0
        assert [d["kind"] for d in report.trail] == ["link-sent", "authorize"]

    @pytest.mark.parametrize("seed", range(25))
    def test_many_seeds_authorize(self, seed):
        assert run_benign_login(seed).outcome.kind is OutcomeKind.AUTHORIZED

    def test_cutoff_noise_recovers_within_one_session(self):
        # Seed picked so the first shot is truncated and the second lands.
        report = run_benign_login(0, detector_profile=CUTOFF_PROFILE)
        assert report.outcome.kind is OutcomeKind.AUTHORIZED
        assert report.photos_taken == 2
        kinds = [d["kind"] for d in report.trail]
        assert kinds == ["link-sent", "require-photo", "request-retake", "authorize"]
        sessions = {d["session"] for d in report.trail}
        assert len(sessions) == 1  # the retake stayed in the same session

    def test_dark_theme_dot_drop_denies_then_retries(self):
        """A misread that parses to a different name is a hard deny; the
        user's recourse is a whole fresh login, not a retake."""
        report = run_benign_login(
            5,
            detector_profile=DOT_DROP_PROFILE,
            theme=Theme.DARK,
            server_domain="www.google.com",
        )
        assert report.outcome == Outcome(OutcomeKind.DENIED, "photo-verification")
        assert report.photos_taken == 3
        kinds = [d["kind"] for d in report.trail]
        assert kinds == ["link-sent", "require-photo", "deny"] * 3
        assert len({d["session"] for d in report.trail}) == 3  # one per login attempt

    @pytest.mark.parametrize("seed", range(3))
    def test_bar_never_found_falls_back(self, seed):
        """Retakes past the cap end in the fallback, within one session: no
        fresh login follows."""
        report = run_benign_login(seed, detector_profile=MISS_PROFILE)
        assert report.outcome == Outcome(OutcomeKind.FALLBACK)
        assert report.photos_taken == 6
        kinds = [d["kind"] for d in report.trail]
        assert kinds == ["link-sent", "require-photo"] + ["request-retake"] * 5 + ["fallback"]
        assert {d["owner"] for d in report.trail} == {"user"}
        assert len({d["session"] for d in report.trail}) == 1

    def test_denied_login_retries_and_succeeds_in_light_theme(self):
        report = run_benign_login(
            5,
            detector_profile=DOT_DROP_PROFILE,
            theme=Theme.LIGHT,
            server_domain="www.google.com",
        )
        assert report.outcome.kind is OutcomeKind.AUTHORIZED
        assert report.photos_taken == 1


class TestRtpAttack:
    @pytest.mark.parametrize("seed", range(25))
    def test_plain_lookalike_detected(self, seed):
        report = run_rtp_attack(seed)
        assert report.outcome == Outcome(OutcomeKind.ATTACK_DETECTED, "phishing-detected")
        assert not adversary_authorized(report)

    def test_deny_lands_on_the_adversary_session(self):
        report = run_rtp_attack(9)
        deny = [d for d in report.trail if d["kind"] == "deny"]
        assert len(deny) == 1
        assert deny[0]["owner"] == ADVERSARY
        assert deny[0]["warning"]

    def test_homograph_shows_punycode(self):
        report = run_rtp_attack(4, fake_domain="аpple.com", upstream="apple.com")
        assert report.outcome == Outcome(OutcomeKind.ATTACK_DETECTED, "phishing-detected")
        photos = [e for e in report.log if e["kind"] == "photo"]
        assert photos and photos[0]["data"]["displayed"] == "xn--pple-43d.com"

    def test_typosquat_detected(self):
        report = run_rtp_attack(4, fake_domain="g0og1e.com", upstream="google.com")
        assert report.outcome == Outcome(OutcomeKind.ATTACK_DETECTED, "phishing-detected")

    def test_one_photo_is_enough(self):
        assert run_rtp_attack(2).photos_taken == 1


class TestRedirectionAttack:
    @pytest.mark.parametrize("seed", range(25))
    def test_blocked_without_valid_cookie(self, seed):
        report = run_redirection_attack(seed)
        assert report.outcome == Outcome(OutcomeKind.ATTACK_BLOCKED, "no-valid-cookie")
        assert not adversary_authorized(report)
        assert report.photos_taken == 0

    def test_stolen_cookie_sits_under_the_fake_origin(self):
        report = run_redirection_attack(1)
        resume = [e for e in report.log if e["kind"] == "resume"]
        assert resume and resume[0]["data"]["cookie_attached"] is False
        set_cookies = [e for e in report.log if e["kind"] == "set-cookie"]
        origins = {e["data"]["origin"] for e in set_cookies if e["to"] == "user-pc"}
        assert origins == {"rnicrosoft.com"}


class TestInjectionAttack:
    @pytest.fixture
    def photographed(self, monkeypatch):
        """The layouts the victim's phone photographs, in order."""
        layouts = []

        def spy(*args, **kwargs):
            layouts.append(generate_layout(*args, **kwargs))
            return layouts[-1]

        monkeypatch.setattr(simulator, "generate_layout", spy)
        return layouts

    @pytest.mark.parametrize("placement", ["title", "page-content"])
    @pytest.mark.parametrize("seed", range(10))
    def test_decoy_text_detected(self, seed, placement):
        report = run_injection_attack(seed, placement)
        assert report.outcome == Outcome(OutcomeKind.ATTACK_DETECTED, "phishing-detected")
        assert not adversary_authorized(report)

    @pytest.mark.parametrize("seed", range(10))
    def test_picture_in_picture_blocked_with_warning(self, seed):
        report = run_injection_attack(seed, "picture-in-picture")
        assert report.outcome == Outcome(OutcomeKind.ATTACK_BLOCKED, "multiple-addrbars")
        assert not adversary_authorized(report)
        kinds = [d["kind"] for d in report.trail]
        assert kinds == ["link-sent", "require-photo", "request-retake"]
        assert report.trail[-1]["warning"]
        assert report.photos_taken == 1

    def test_unknown_placement_rejected(self):
        # "default" is a layout variant, and it places no decoy.
        for placement in ("footer", "default"):
            with pytest.raises(ValueError) as info:
                run_injection_attack(0, placement)
            for name in PLACEMENTS:
                assert repr(name) in str(info.value)

    @pytest.mark.parametrize(
        "placement, decoy",
        [
            ("title", lambda layout: layout.title_boxes[0].text),
            ("page-content", lambda layout: layout.content_boxes[0].text),
            ("picture-in-picture", lambda layout: layout.bars[1].url_string),
        ],
        ids=["title", "page-content", "picture-in-picture"],
    )
    def test_the_decoy_reaches_the_photo(self, photographed, placement, decoy):
        """The real domain is drawn where the placement says, and the
        genuine bar still shows the fake one."""
        run_injection_attack(0, placement)
        assert photographed
        for layout in photographed:
            assert decoy(layout) == "microsoft.com"
            assert layout.bars[0].url_string == "rnicrosoft.com"

    def test_a_plain_proxy_page_carries_no_decoy(self, photographed):
        run_rtp_attack(0)
        assert photographed
        for layout in photographed:
            texts = [r.text for r in layout.title_boxes + layout.content_boxes]
            assert "microsoft.com" not in texts
            assert [bar.url_string for bar in layout.bars] == ["rnicrosoft.com"]


class TestTokenBruteforce:
    def test_blocked_and_session_survives(self):
        report = run_token_bruteforce(6, guesses=1500)
        assert report.outcome == Outcome(OutcomeKind.ATTACK_BLOCKED, "unknown-token")
        assert not adversary_authorized(report)
        done = [e for e in report.log if e["kind"] == "token-guessing-done"]
        assert done and done[0]["data"] == {"guesses": 1500, "hit": False}

    @pytest.mark.parametrize("seed", range(5))
    def test_short_campaigns_never_land(self, seed):
        report = run_token_bruteforce(seed, guesses=300)
        assert report.outcome.kind is OutcomeKind.ATTACK_BLOCKED


class TestOtpBaseline:
    @pytest.mark.parametrize("seed", range(25))
    def test_relay_always_wins(self, seed):
        report = run_otp_baseline(seed)
        assert report.outcome == Outcome(OutcomeKind.AUTHORIZED, ADVERSARY)
        assert adversary_authorized(report)

    def test_code_travels_safe_then_leaks_unsafe(self):
        report = run_otp_baseline(0)
        otp_out = [e for e in report.log if e["kind"] == "otp"]
        assert otp_out[0]["link"] == SAFE
        assert (otp_out[0]["from"], otp_out[0]["to"]) == (SERVER, PHONE)
        entry = [e for e in report.log if e["kind"] == "otp-entry"]
        assert entry[0]["link"] == UNSAFE
        assert entry[0]["data"]["code"] == otp_out[0]["data"]["code"]


class TestChannelDiscipline:
    """The short link must only ever travel the server<->phone channel."""

    @pytest.mark.parametrize(
        "runner", [run_benign_login, run_rtp_attack, run_redirection_attack]
    )
    def test_link_messages_are_safe_and_phone_bound(self, runner):
        report = runner(11)
        token_digits = {
            e["data"]["link"].rsplit("/", 1)[-1]
            for e in report.log
            if e["kind"].endswith("-link")
        }
        for entry in report.log:
            if entry["kind"].endswith("-link"):
                assert entry["link"] == SAFE
                assert (entry["from"], entry["to"]) == (SERVER, PHONE)
            if entry["link"] == UNSAFE:
                payload = json.dumps(entry["data"])
                for digits in token_digits:
                    assert digits not in payload

    def test_proxy_only_touches_unsafe_links(self):
        report = run_rtp_attack(11)
        for entry in report.log:
            if "proxy" in (entry["from"], entry["to"]):
                assert entry["link"] == UNSAFE


class TestDeterminism:
    @pytest.mark.parametrize(
        "runner",
        [
            run_benign_login,
            run_rtp_attack,
            run_redirection_attack,
            run_otp_baseline,
            lambda seed: run_injection_attack(seed, "picture-in-picture"),
            lambda seed: run_token_bruteforce(seed, guesses=200),
        ],
    )
    def test_same_seed_identical_log(self, runner):
        a, b = runner(13), runner(13)
        assert a.log_jsonl() == b.log_jsonl()
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        assert run_benign_login(1).log_jsonl() != run_benign_login(2).log_jsonl()

    def test_log_lines_are_json_with_monotone_time(self):
        report = run_rtp_attack(3)
        times = []
        for line in report.log_jsonl().splitlines():
            entry = json.loads(line)
            assert set(entry) == {"t", "from", "to", "link", "kind", "data"}
            times.append(entry["t"])
        assert times == sorted(times)


class TestScenarioFiles:
    def test_load_run_and_match(self, tmp_path):
        path = tmp_path / "rtp.json"
        path.write_text(
            json.dumps(
                {
                    "name": "lookalike-proxy",
                    "kind": "rtp",
                    "seed": 7,
                    "params": {"fake_domain": "rnicrosoft.com"},
                    "expected": {"kind": "attack-detected", "detail": "phishing-detected"},
                }
            ),
            encoding="utf-8",
        )
        scenario = load_scenario(str(path))
        assert scenario.name == "lookalike-proxy"
        report = run_scenario(scenario)
        assert report.name == "lookalike-proxy"
        assert matches_expectation(report, scenario.expected)

    def test_seed_override(self, tmp_path):
        path = tmp_path / "benign.json"
        path.write_text('{"kind": "benign", "seed": 1}', encoding="utf-8")
        assert load_scenario(str(path)).seed == 1
        assert load_scenario(str(path), seed_override=42).seed == 42

    def test_params_reach_the_runner_typed(self, tmp_path, monkeypatch):
        seen = {}
        runner = simulator._RUNNERS["rtp"]

        @functools.wraps(runner)
        def spy(seed, **params):
            seen.update(params)
            return runner(seed, **params)

        monkeypatch.setitem(simulator._RUNNERS, "rtp", spy)
        path = tmp_path / "dark.json"
        path.write_text('{"kind": "rtp", "seed": 1, "params": {"theme": "dark"}}', encoding="utf-8")
        run_scenario(load_scenario(str(path)))
        assert seen == {"theme": Theme.DARK}

    def test_inject_placement_routing(self):
        scenario = Scenario(
            name="pip", kind="inject", seed=2, params={"placement": "picture-in-picture"}
        )
        report = run_scenario(scenario)
        assert report.outcome == Outcome(OutcomeKind.ATTACK_BLOCKED, "multiple-addrbars")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            run_scenario(Scenario(name="x", kind="teleport", seed=0))

    def test_expectation_matching(self):
        report = run_otp_baseline(0)
        assert matches_expectation(report, None)
        assert matches_expectation(report, Outcome(OutcomeKind.AUTHORIZED))
        assert matches_expectation(report, Outcome(OutcomeKind.AUTHORIZED, ADVERSARY))
        assert not matches_expectation(report, Outcome(OutcomeKind.ATTACK_BLOCKED))
        assert not matches_expectation(report, Outcome(OutcomeKind.AUTHORIZED, "user"))


# ---------------------------------------------------------------------------
# Golden transcripts, pinned across commits
# ---------------------------------------------------------------------------

_HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(_HERE, "golden_transcripts.json")
SCENARIO_DIR = os.path.join(_HERE, "..", "scenarios")
GOLDEN_SEEDS = (0, 29, 101)
NOISE_SEEDS = range(20)
PLACEMENTS = ("title", "page-content", "picture-in-picture")
# Every detector fault at once, so a missed or spurious bar shows up in
# the picture-in-picture and proxy runs.
HARSH_PROFILE = DetectorProfile(
    ocr=OcrModel(oracle=False, sub_rate=0.05, dot_drop_rate_dark=0.5, split_url=True),
    addrbar=AddrbarModel(
        oracle=False, jitter_px=12.0, cutoff_prob=0.3, miss_prob=0.3, spurious_prob=0.3
    ),
)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_digests(report):
    return {"report": _sha(report.to_json()), "log": _sha(report.log_jsonl())}


def _golden_reports():
    """Yield (key, report) for every pinned run."""
    for seed in GOLDEN_SEEDS:
        yield f"benign/{seed}", run_benign_login(seed)
        yield f"rtp/{seed}", run_rtp_attack(seed)
        yield f"redirect/{seed}", run_redirection_attack(seed)
        for placement in PLACEMENTS:
            yield f"inject-{placement}/{seed}", run_injection_attack(seed, placement)
        yield f"bruteforce/{seed}", run_token_bruteforce(seed)
        yield f"otp-baseline/{seed}", run_otp_baseline(seed)
    for name in sorted(os.listdir(SCENARIO_DIR)):
        yield f"scenario/{name}", run_scenario(load_scenario(os.path.join(SCENARIO_DIR, name)))
    for label, profile in (("noisy", DEFAULT_NOISY_PROFILE), ("harsh", HARSH_PROFILE)):
        for seed in NOISE_SEEDS:
            yield f"{label}/rtp/{seed}", run_rtp_attack(seed, detector_profile=profile)
            for placement in PLACEMENTS:
                yield (
                    f"{label}/inject-{placement}/{seed}",
                    run_injection_attack(seed, placement, detector_profile=profile),
                )


def _golden_corpus_bytes():
    """25 noisy detections of genuine screenshots at seed 9, one JSON line each.

    Item i draws from its own rng, seeded 9 * 1_000_003 + i, and shows
    domain i mod 3, as `evaluate_corpus` generates its items.
    """
    params = GeneratorParams(domains=("microsoft.com", "bücher.de", "login.live.com"))
    lines = []
    for i in range(25):
        rng = random.Random(9 * 1_000_003 + i)
        theme = Theme.DARK if rng.random() < params.dark_fraction else Theme.LIGHT
        layout = generate_layout(
            params.domains[i % len(params.domains)],
            theme=theme,
            variant=params.variant,
            seed=rng.getrandbits(32),
            resolution=params.resolution,
        )
        analysis = simulate_detection(layout, DEFAULT_NOISY_PROFILE, rng)
        lines.append(json.dumps(analysis_to_dict(analysis), sort_keys=True, separators=(",", ":")))
    return "".join(line + "\n" for line in lines).encode()


def _golden_wire_bytes():
    """A scripted `App.handle` session at seed 7, one JSON line per request.

    Each line holds the request's method and path and the response's
    status, headers and body bytes. The clock moves only when the script
    moves it: 1.5 s after each request, so the token lookup limit is
    reached only by the burst that tests it.
    """
    now = [1000.0]
    app = App(Config(seed=7), clock=lambda: now[0])
    lines = []

    def send(method, path, body=None, cookie=None, source="198.51.100.23", tick=1.5):
        headers = {} if cookie is None else {"Cookie": f"auth={cookie}"}
        response = app.handle(WireRequest(method, path, headers, body, source))
        lines.append(json.dumps(
            [method, path, response.status, dict(response.headers),
             response.to_bytes().decode()],
            sort_keys=True, separators=(",", ":"),
        ))
        now[0] += tick
        return response

    def login():
        response = send("POST", "/login", {"username": "bob"})
        cookie = response.headers["Set-Cookie"].split(";")[0][len("auth="):]
        return response.body["link"], cookie, f"/session/{response.body['session_id']}/status"

    phone = "203.0.113.7"
    genuine = analysis_to_dict(simulate_detection(generate_layout("microsoft.com", seed=1),
                                                  ORACLE_PROFILE))
    lookalike = analysis_to_dict(simulate_detection(generate_layout("rnicrosoft.com", seed=1),
                                                    ORACLE_PROFILE))
    two_bars = {**genuine, "addrbars": genuine["addrbars"] * 2}
    unreadable = {"resolution": {"w": 1920, "h": 1080}, "texts": [], "addrbars": []}

    # Colocated click, then a returning login with the cookie it authorized.
    link, cookie, status = login()
    send("GET", status)
    send("GET", link, cookie=cookie)
    send("POST", "/login", {"username": "bob"}, cookie)
    send("GET", status)
    # Remote clicks, each followed by one kind of photo and a status poll.
    for photos in ([genuine, genuine], [lookalike], [unreadable] * 6, [two_bars, genuine]):
        link, _, status = login()
        send("GET", link, source=phone)
        send("GET", link, source=phone)  # a second click while the photo is awaited
        for photo in photos:
            send("POST", f"{link}/photo", photo, source=phone)
        send("GET", link, source=phone)  # a click on the decided session
        send("GET", status)
    send("POST", f"{link}/photo", {"resolution": {}}, source=phone)
    send("POST", "/login", {"username": "mallory"})
    send("POST", "/login", {})
    send("POST", "/login", {"username": "bob"}, "not-hex")
    send("GET", "/c/0000000000", source=phone)
    send("GET", f"/session/{'0' * 32}/status")
    for _ in range(11):
        send("GET", "/c/1234567890", source="192.0.2.99", tick=0.0)
    send("GET", "/nope")
    return "".join(line + "\n" for line in lines).encode()


def golden_digests():
    digests = {key: _report_digests(report) for key, report in _golden_reports()}
    digests["export_corpus"] = hashlib.sha256(_golden_corpus_bytes()).hexdigest()
    digests["wire"] = hashlib.sha256(_golden_wire_bytes()).hexdigest()
    return digests


class TestGoldenTranscripts:
    """Reports and message logs hash as they did when the file was written."""

    def test_digests_match_the_committed_file(self):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            expected = json.load(fh)
        actual = golden_digests()
        assert sorted(actual) == sorted(expected)
        changed = [key for key in expected if actual[key] != expected[key]]
        assert changed == []


if __name__ == "__main__":
    # Rewrite the golden file: only for a deliberate change of transcripts.
    digests = golden_digests()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
