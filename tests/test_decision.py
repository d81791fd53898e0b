import random

import pytest

from photoauth.decision import (
    AuthDecision,
    AuthEngine,
    AuthRequest,
    ColocationMode,
    ColocationPolicy,
    DecisionKind,
    LinkClick,
    REASON_PHISHING,
    REASON_SESSION_DENIED,
    REASON_UNKNOWN_TOKEN,
    SAME_BROWSER_HINT,
)
from photoauth.domain import extract_hostname
from photoauth.geometry import BoundingBox, Resolution
from photoauth.session import (
    Channel,
    DEFAULT_RETAKE_CAP,
    InvalidState,
    Preference,
    SessionState,
    SessionStore,
)
from photoauth.verify import AddressBarPrediction, PhotoAnalysis, TextRegion

SERVER = extract_hostname("microsoft.com")
ACCEPT = frozenset({SERVER})
PC = "198.51.100.23"
PHONE = "203.0.113.7"


class FakeClock:
    def __init__(self, start=0.0):
        self.t = start

    def __call__(self):
        self.t += 0.001  # keep the lookup rate limiter quiet
        return self.t


def make_engine(policy=None, users=None):
    store = SessionStore(SERVER, rng=random.Random(42), clock=FakeClock(), ttl_s=1e9)
    engine = AuthEngine(
        store,
        users if users is not None else {"bob": Preference.SMS},
        ACCEPT,
        policy=policy if policy is not None else ColocationPolicy(),
    )
    return engine


def photo_of(domain_text):
    bar = BoundingBox(20, 50, 1000, 50)
    return PhotoAnalysis(
        resolution=Resolution(1920, 1080),
        texts=(TextRegion(BoundingBox(120, 62, 300, 26), domain_text),),
        addrbars=(AddressBarPrediction(bar, 0.97),),
    )


def unreadable_photo():
    return PhotoAnalysis(resolution=Resolution(1920, 1080), texts=(), addrbars=())


def two_bar_photo():
    """The genuine name under a second, embedded address bar."""
    bar = BoundingBox(20, 50, 1000, 50)
    second = BoundingBox(100, 600, 800, 48)
    return PhotoAnalysis(
        resolution=Resolution(1920, 1080),
        texts=(TextRegion(BoundingBox(120, 62, 300, 26), "microsoft.com"),),
        addrbars=(AddressBarPrediction(bar, 0.97), AddressBarPrediction(second, 0.9)),
    )


def start_login(engine, cookie=None, source=PC, channel=Channel.PC_BROWSER):
    return engine.handle_auth_request(
        AuthRequest(username="bob", presented_cookie=cookie,
                    source_address=source, channel=channel)
    )


class TestAuthRequest:
    def test_fresh_login_sends_link(self):
        engine = make_engine()
        decision = start_login(engine)
        assert decision.kind is DecisionKind.LINK_SENT
        assert len(engine.outbox) == 1
        note = engine.outbox[0]
        assert note.username == "bob"
        assert note.preference is Preference.SMS
        assert note.link == f"microsoft.com/c/{decision.token_digits}"

    def test_link_keeps_leading_zeros(self):
        engine = make_engine()
        for _ in range(100):
            decision = start_login(engine)
            if decision.token_digits.startswith("0"):
                break
        assert decision.token_digits.startswith("0") and len(decision.token_digits) == 10
        assert engine.outbox[-1].link == f"microsoft.com/c/{decision.token_digits}"

    def test_reprs_hide_cookie_and_token(self):
        engine = make_engine()
        decision = start_login(engine)
        session = engine.store.get(decision.session_id)
        secrets = (session.cookie.value, session.token)
        for value in (session, decision, engine.outbox[0]):
            assert not any(secret in repr(value) for secret in secrets), repr(value)

    @pytest.mark.parametrize("preference", list(Preference))
    def test_every_preference_carries_the_same_link(self, preference):
        engine = make_engine(users={"bob": preference})
        decision = start_login(engine)
        assert decision.kind is DecisionKind.LINK_SENT
        assert engine.outbox[0].preference is preference
        assert engine.outbox[0].link == f"microsoft.com/c/{decision.token_digits}"

    def test_malformed_cookie_is_bad_request(self):
        engine = make_engine()
        decision = start_login(engine, cookie="not-hex!")
        assert decision.kind is DecisionKind.BAD_REQUEST
        assert decision.reason == "malformed-cookie"
        assert not engine.outbox

    def test_authorized_cookie_short_circuits(self):
        engine = make_engine()
        first = start_login(engine)
        session = engine.store.get(first.session_id)
        engine.store.authorize(session.id)
        again = start_login(engine, cookie=session.cookie.value)
        assert again.kind is DecisionKind.AUTHORIZE
        assert again.session_id == session.id
        assert len(engine.outbox) == 1  # no second notification

    def test_stale_cookie_falls_through_to_fresh_login(self):
        engine = make_engine()
        first = start_login(engine)  # session still LINK_SENT, not authorized
        stale = engine.store.get(first.session_id).cookie.value
        again = start_login(engine, cookie=stale)
        assert again.kind is DecisionKind.LINK_SENT
        assert again.session_id != first.session_id

    def test_unknown_cookie_falls_through(self):
        engine = make_engine()
        decision = start_login(engine, cookie="0" * 32)
        assert decision.kind is DecisionKind.LINK_SENT

    def test_missing_username_without_cookie(self):
        engine = make_engine()
        decision = engine.handle_auth_request(
            AuthRequest(username=None, presented_cookie=None, source_address=PC)
        )
        assert decision.kind is DecisionKind.BAD_REQUEST
        assert decision.reason == "missing-username"

    def test_unregistered_username_is_denied(self):
        engine = make_engine()
        decision = engine.handle_auth_request(
            AuthRequest(username="mallory", presented_cookie=None, source_address=PC)
        )
        assert decision == AuthDecision(DecisionKind.DENY, reason="unknown-user")
        assert engine.store.live_count() == 0 and not engine.outbox


class TestLinkClick:
    def test_unknown_token_denied(self):
        engine = make_engine()
        decision = engine.handle_link_click(
            LinkClick(token_digits="0" * 10, presented_cookie=None, source_address=PHONE)
        )
        assert decision.kind is DecisionKind.DENY
        assert decision.reason == REASON_UNKNOWN_TOKEN

    def test_colocated_click_authorizes(self):
        engine = make_engine()
        sent = start_login(engine)
        cookie = engine.store.get(sent.session_id).cookie.value
        decision = engine.handle_link_click(
            LinkClick(token_digits=engine.outbox[0].link.rsplit("/", 1)[1],
                      presented_cookie=cookie, source_address=PC)
        )
        assert decision.kind is DecisionKind.AUTHORIZE
        assert engine.store.get(sent.session_id).state is SessionState.AUTHORIZED

    def test_remote_click_requires_photo(self):
        engine = make_engine()
        sent = start_login(engine)
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address=PHONE)
        )
        assert decision.kind is DecisionKind.REQUIRE_PHOTO
        assert engine.store.get(sent.session_id).state is SessionState.AWAITING_PHOTO
        assert decision.message is None  # login was from a pc browser

    def test_phone_login_gets_same_browser_hint(self):
        engine = make_engine()
        start_login(engine, source=PHONE, channel=Channel.PHONE_BROWSER)
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address=PHONE)
        )
        assert decision.kind is DecisionKind.REQUIRE_PHOTO
        assert decision.message == SAME_BROWSER_HINT

    def test_replayed_click_is_idempotent(self):
        engine = make_engine()
        sent = start_login(engine)
        cookie = engine.store.get(sent.session_id).cookie.value
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        click = LinkClick(token_digits=token, presented_cookie=cookie, source_address=PC)
        assert engine.handle_link_click(click).kind is DecisionKind.AUTHORIZE
        again = engine.handle_link_click(click)
        assert again.kind is DecisionKind.AUTHORIZE
        assert again.session_id == sent.session_id

    def test_click_on_denied_session(self):
        engine = make_engine()
        sent = start_login(engine)
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        engine.store.mark_awaiting_photo(sent.session_id)
        engine.store.deny(sent.session_id)
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address=PHONE)
        )
        assert decision.kind is DecisionKind.DENY
        assert decision.reason == REASON_SESSION_DENIED
        assert decision.warning

    def test_click_while_awaiting_photo_repeats_requirement(self):
        engine = make_engine()
        start_login(engine)
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        click = LinkClick(token_digits=token, presented_cookie=None, source_address=PHONE)
        assert engine.handle_link_click(click).kind is DecisionKind.REQUIRE_PHOTO
        assert engine.handle_link_click(click).kind is DecisionKind.REQUIRE_PHOTO

    @staticmethod
    def fall_back(engine, session_id, warned):
        """Retake past the cap, the first retake `warned`."""
        engine.store.mark_awaiting_photo(session_id)
        for i in range(DEFAULT_RETAKE_CAP + 1):
            session = engine.store.record_retake(session_id, warned and i == 0)
        assert session.state is SessionState.FALLBACK_OFFERED

    def test_click_on_fallback_session(self):
        engine = make_engine()
        sent = start_login(engine)
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        self.fall_back(engine, sent.session_id, False)
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address=PHONE)
        )
        assert decision.kind is DecisionKind.FALLBACK

    @pytest.mark.parametrize("warned", [True, False])
    def test_click_on_fallback_session_answers_its_warning(self, warned):
        engine = make_engine()
        sent = start_login(engine)
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        self.fall_back(engine, sent.session_id, warned)
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address=PHONE)
        )
        assert (decision.kind, decision.warning) == (DecisionKind.FALLBACK, warned)


class TestColocationModes:
    def test_cookie_mode_rejects_different_cookie(self):
        engine = make_engine()
        start_login(engine)
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie="f" * 32, source_address=PC)
        )
        assert decision.kind is DecisionKind.REQUIRE_PHOTO

    def test_ip_equality_authorizes_same_address(self):
        engine = make_engine(policy=ColocationPolicy(mode=ColocationMode.IP_EQUALITY))
        start_login(engine, source=PC)
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address=PC)
        )
        assert decision.kind is DecisionKind.AUTHORIZE

    def test_ip_equality_rejects_other_address(self):
        engine = make_engine(policy=ColocationPolicy(mode=ColocationMode.IP_EQUALITY))
        start_login(engine, source=PC)
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address=PHONE)
        )
        assert decision.kind is DecisionKind.REQUIRE_PHOTO

    def test_same_network_within_prefix(self):
        engine = make_engine(
            policy=ColocationPolicy(mode=ColocationMode.SAME_NETWORK, prefix_len=24)
        )
        start_login(engine, source="192.0.2.10")
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address="192.0.2.77")
        )
        assert decision.kind is DecisionKind.AUTHORIZE

    def test_same_network_full_prefix_requires_exact_match(self):
        engine = make_engine(
            policy=ColocationPolicy(mode=ColocationMode.SAME_NETWORK, prefix_len=32)
        )
        start_login(engine, source="192.0.2.10")
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address="192.0.2.77")
        )
        assert decision.kind is DecisionKind.REQUIRE_PHOTO

    def test_same_network_prefix_longer_than_ipv4_compares_whole_addresses(self):
        engine = make_engine(
            policy=ColocationPolicy(mode=ColocationMode.SAME_NETWORK, prefix_len=64)
        )
        start_login(engine, source="10.0.0.1")
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address="10.0.0.1")
        )
        assert decision.kind is DecisionKind.AUTHORIZE

    def test_same_network_across_networks(self):
        engine = make_engine(
            policy=ColocationPolicy(mode=ColocationMode.SAME_NETWORK, prefix_len=24)
        )
        start_login(engine, source="192.0.2.10")
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        decision = engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=None, source_address="198.51.100.9")
        )
        assert decision.kind is DecisionKind.REQUIRE_PHOTO

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            ColocationPolicy(prefix_len=129)


def reach_awaiting_photo(engine):
    sent = start_login(engine)
    token = engine.outbox[-1].link.rsplit("/", 1)[1]
    engine.handle_link_click(
        LinkClick(token_digits=token, presented_cookie=None, source_address=PHONE)
    )
    return sent.session_id, token


class TestPhotoSubmission:
    def test_matching_photo_authorizes(self):
        engine = make_engine()
        session_id, token = reach_awaiting_photo(engine)
        decision = engine.handle_photo_submission(token, photo_of("microsoft.com"))
        assert decision.kind is DecisionKind.AUTHORIZE
        assert engine.store.get(session_id).state is SessionState.AUTHORIZED

    def test_mismatch_denies_with_phishing_warning(self):
        engine = make_engine()
        session_id, token = reach_awaiting_photo(engine)
        decision = engine.handle_photo_submission(token, photo_of("rnicrosoft.com"))
        assert decision.kind is DecisionKind.DENY
        assert decision.reason == REASON_PHISHING
        assert decision.warning
        assert "rnicrosoft.com" in decision.message
        assert engine.store.get(session_id).state is SessionState.DENIED

    def test_denied_session_never_authorizes_afterwards(self):
        engine = make_engine()
        session_id, token = reach_awaiting_photo(engine)
        engine.handle_photo_submission(token, photo_of("rnicrosoft.com"))
        with pytest.raises(InvalidState):
            engine.handle_photo_submission(token, photo_of("microsoft.com"))
        assert engine.store.get(session_id).state is SessionState.DENIED

    def test_unreadable_photo_requests_retake(self):
        engine = make_engine()
        session_id, token = reach_awaiting_photo(engine)
        decision = engine.handle_photo_submission(token, unreadable_photo())
        assert decision.kind is DecisionKind.REQUEST_RETAKE
        assert decision.reason == "unreadable"
        assert decision.retakes_left == 4
        assert not decision.warning

    def test_retakes_count_down_to_fallback(self):
        engine = make_engine()
        _, token = reach_awaiting_photo(engine)
        for expected_left in (4, 3, 2, 1, 0):
            decision = engine.handle_photo_submission(token, unreadable_photo())
            assert decision.kind is DecisionKind.REQUEST_RETAKE
            assert decision.retakes_left == expected_left
        decision = engine.handle_photo_submission(token, unreadable_photo())
        assert decision.kind is DecisionKind.FALLBACK

    def test_retake_then_match_authorizes(self):
        engine = make_engine()
        session_id, token = reach_awaiting_photo(engine)
        engine.handle_photo_submission(token, unreadable_photo())
        decision = engine.handle_photo_submission(token, photo_of("microsoft.com"))
        assert decision.kind is DecisionKind.AUTHORIZE
        assert engine.store.get(session_id).state is SessionState.AUTHORIZED

    def test_two_bars_warns_phishing(self):
        engine = make_engine()
        _, token = reach_awaiting_photo(engine)
        decision = engine.handle_photo_submission(token, two_bar_photo())
        assert decision.kind is DecisionKind.REQUEST_RETAKE
        assert decision.reason == "multiple-addrbars"
        assert decision.warning

    @pytest.mark.parametrize("first,warned", [(two_bar_photo, True), (unreadable_photo, False)])
    def test_fallback_keeps_the_two_bar_warning(self, first, warned):
        engine = make_engine()
        _, token = reach_awaiting_photo(engine)
        decision = engine.handle_photo_submission(token, first())
        for _ in range(DEFAULT_RETAKE_CAP):
            assert decision.kind is DecisionKind.REQUEST_RETAKE
            decision = engine.handle_photo_submission(token, unreadable_photo())
        assert decision.kind is DecisionKind.FALLBACK
        assert decision.warning is warned

    def test_photo_for_unknown_token_denied(self):
        engine = make_engine()
        decision = engine.handle_photo_submission("9" * 10, photo_of("microsoft.com"))
        assert decision.kind is DecisionKind.DENY
        assert decision.reason == REASON_UNKNOWN_TOKEN

    def test_photo_before_click_raises(self):
        engine = make_engine()
        sent = start_login(engine)
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        with pytest.raises(InvalidState):
            engine.handle_photo_submission(token, photo_of("microsoft.com"))
        assert engine.store.get(sent.session_id).state is SessionState.LINK_SENT

    def test_photo_after_authorize_raises(self):
        engine = make_engine()
        sent = start_login(engine)
        cookie = engine.store.get(sent.session_id).cookie.value
        token = engine.outbox[0].link.rsplit("/", 1)[1]
        engine.handle_link_click(
            LinkClick(token_digits=token, presented_cookie=cookie, source_address=PC)
        )
        with pytest.raises(InvalidState):
            engine.handle_photo_submission(token, photo_of("microsoft.com"))


class TestDecisionDataclass:
    def test_defaults(self):
        d = AuthDecision(DecisionKind.DENY)
        assert d.reason is None and d.session_id is None and not d.warning
