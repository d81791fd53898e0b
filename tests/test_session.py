import itertools
import random
from unittest.mock import ANY

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from photoauth.domain import extract_hostname
from photoauth.session import (
    Channel,
    DEFAULT_RETAKE_CAP,
    InvalidState,
    LOOKUP_RATE_LIMIT,
    RateLimited,
    SessionState,
    SessionStore,
    cookie_value_well_formed,
    draw_cookie_value,
    draw_token_digits,
)

SERVER = extract_hostname("microsoft.com")
LOGIN = {"source": "198.51.100.23", "channel": Channel.PC_BROWSER}


class FakeClock:
    """Manually advanced clock for deterministic TTL and rate-limit tests."""

    def __init__(self, start=1000.0):
        self.t = start

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_store(**kwargs):
    kwargs.setdefault("rng", random.Random(7))
    kwargs.setdefault("clock", FakeClock())
    return SessionStore(SERVER, **kwargs)


def token_index_is_one_to_one(store):
    """True when the token index maps exactly the stored tokened sessions, 1:1."""
    tokened = {s.token: sid for sid, s in store._sessions.items() if s.token}
    return tokened == store._token_index


class TestValues:
    def test_cookie_value_shape(self):
        value = draw_cookie_value()
        assert cookie_value_well_formed(value)
        assert len(value) == 32

    def test_cookie_value_seeded_is_reproducible(self):
        assert draw_cookie_value(random.Random(5)) == draw_cookie_value(random.Random(5))

    @pytest.mark.parametrize("bad", ["", "xyz", "A" * 32, "0" * 31, "0" * 33, "0" * 32 + "\n"])
    def test_malformed_cookie_values(self, bad):
        assert not cookie_value_well_formed(bad)

    def test_token_digits_length_and_charset(self):
        store = make_store()
        linked = store.issue_short_link(store.create_session("bob", **LOGIN).id)
        for length, digits in [(6, draw_token_digits(6, random.Random(3))),
                               (12, draw_token_digits(12, random.Random(3))),
                               (10, linked.token)]:
            assert len(digits) == length
            assert digits.isdigit()

    @pytest.mark.parametrize("length", [0, 5, 13])
    def test_token_length_bounds(self, length):
        with pytest.raises(ValueError):
            draw_token_digits(length)

    def test_token_leading_zeros_kept(self):
        rng = random.Random(3)
        draws = [draw_token_digits(10, rng) for _ in range(100)]
        zero_led = [d for d in draws if d.startswith("0")]
        assert zero_led
        assert all(len(d) == 10 and d.isdigit() for d in zero_led)


class TestLifecycle:
    def test_create_starts_at_credentials_ok(self):
        store = make_store()
        s = store.create_session("bob", source="1.2.3.4", channel=Channel.PHONE_BROWSER)
        assert s.state is SessionState.CREDENTIALS_OK
        assert s.token is None
        assert s.retakes == 0
        assert not s.phishing_warned
        assert s.login_source == "1.2.3.4"
        assert s.login_channel is Channel.PHONE_BROWSER

    def test_issue_link_then_resolve(self):
        store = make_store()
        s = store.create_session("bob", **LOGIN)
        s = store.issue_short_link(s.id)
        assert s.state is SessionState.LINK_SENT
        assert s.token is not None
        found = store.resolve_token(s.token)
        assert found is not None and found.id == s.id

    def test_happy_path_to_authorized(self):
        store = make_store()
        s = store.create_session("bob", **LOGIN)
        s = store.issue_short_link(s.id)
        s = store.mark_awaiting_photo(s.id)
        assert s.state is SessionState.AWAITING_PHOTO
        s = store.authorize(s.id)
        assert s.state is SessionState.AUTHORIZED

    def test_direct_authorize_from_link_sent(self):
        store = make_store()
        s = store.create_session("bob", **LOGIN)
        s = store.issue_short_link(s.id)
        assert store.authorize(s.id).state is SessionState.AUTHORIZED

    def test_transition_matrix(self):
        """Every illegal (state, operation) pair raises InvalidState."""
        ops = {
            "link": lambda st, sid: st.issue_short_link(sid),
            "await": lambda st, sid: st.mark_awaiting_photo(sid),
            "authorize": lambda st, sid: st.authorize(sid),
            "deny": lambda st, sid: st.deny(sid),
            "retake": lambda st, sid: st.record_retake(sid, False),
        }
        allowed = {
            SessionState.CREDENTIALS_OK: {"link"},
            SessionState.LINK_SENT: {"await", "authorize"},
            SessionState.AWAITING_PHOTO: {"await", "authorize", "deny", "retake"},
            SessionState.AUTHORIZED: set(),
            SessionState.DENIED: set(),
            SessionState.FALLBACK_OFFERED: set(),
        }

        def put_in_state(store, target):
            s = store.create_session("bob", **LOGIN)
            if target is SessionState.CREDENTIALS_OK:
                return s
            s = store.issue_short_link(s.id)
            if target is SessionState.LINK_SENT:
                return s
            if target is SessionState.AUTHORIZED:
                return store.authorize(s.id)
            s = store.mark_awaiting_photo(s.id)
            if target is SessionState.AWAITING_PHOTO:
                return s
            if target is SessionState.DENIED:
                return store.deny(s.id)
            for _ in range(DEFAULT_RETAKE_CAP + 1):
                s = store.record_retake(s.id, False)
            assert s.state is SessionState.FALLBACK_OFFERED
            return s

        for state, op_name in itertools.product(allowed, ops):
            store = make_store()
            s = put_in_state(store, state)
            assert s.state is state
            if op_name in allowed[state]:
                ops[op_name](store, s.id)
            else:
                with pytest.raises(InvalidState):
                    ops[op_name](store, s.id)

    def test_mark_awaiting_is_idempotent(self):
        store = make_store()
        s = store.create_session("bob", **LOGIN)
        store.issue_short_link(s.id)
        store.mark_awaiting_photo(s.id)
        assert store.mark_awaiting_photo(s.id).state is SessionState.AWAITING_PHOTO

    def test_empty_username_rejected(self):
        with pytest.raises(ValueError):
            make_store().create_session("", **LOGIN)


class TestRetakes:
    def test_fallback_exactly_past_cap(self):
        store = make_store()
        s = store.create_session("bob", **LOGIN)
        store.issue_short_link(s.id)
        store.mark_awaiting_photo(s.id)
        for i in range(1, 6):
            s = store.record_retake(s.id, False)
            assert s.state is SessionState.AWAITING_PHOTO
            assert s.retakes == i
        s = store.record_retake(s.id, False)
        assert s.state is SessionState.FALLBACK_OFFERED
        assert s.retakes == 6

    def test_multiple_addrbars_sets_phishing_flag(self):
        store = make_store()
        s = store.create_session("bob", **LOGIN)
        store.issue_short_link(s.id)
        store.mark_awaiting_photo(s.id)
        s = store.record_retake(s.id, True)
        assert s.phishing_warned
        # The flag is sticky across later plain retakes.
        s = store.record_retake(s.id, False)
        assert s.phishing_warned

    def test_plain_retake_does_not_warn(self):
        store = make_store()
        s = store.create_session("bob", **LOGIN)
        store.issue_short_link(s.id)
        store.mark_awaiting_photo(s.id)
        assert not store.record_retake(s.id, False).phishing_warned


class TestExpiry:
    def test_expired_session_vanishes_everywhere(self):
        clock = FakeClock()
        store = make_store(clock=clock, ttl_s=300.0)
        s = store.create_session("bob", **LOGIN)
        s = store.issue_short_link(s.id)
        clock.advance(301.0)
        assert store.get(s.id) is None
        assert store.resolve_token(s.token) is None
        assert store.find_by_cookie(s.cookie.value) is None
        assert store.live_count() == 0

    def test_session_alive_within_ttl(self):
        clock = FakeClock()
        store = make_store(clock=clock, ttl_s=300.0)
        s = store.create_session("bob", **LOGIN)
        clock.advance(299.0)
        assert store.get(s.id) is not None

    def test_operations_on_expired_session_raise(self):
        clock = FakeClock()
        store = make_store(clock=clock, ttl_s=10.0)
        s = store.create_session("bob", **LOGIN)
        clock.advance(11.0)
        with pytest.raises(InvalidState):
            store.issue_short_link(s.id)

    def test_expired_token_frees_digits_for_reuse(self):
        clock = FakeClock()
        store = make_store(clock=clock, ttl_s=10.0)
        s = store.create_session("bob", **LOGIN)
        s = store.issue_short_link(s.id)
        clock.advance(11.0)
        assert store.resolve_token(s.token) is None
        assert token_index_is_one_to_one(store)

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            make_store(ttl_s=0.0)

    def test_nan_ttl_rejected(self):
        with pytest.raises(ValueError):
            make_store(ttl_s=float("nan"))

    def test_expiry_order_survives_state_changes(self):
        clock = FakeClock()
        store = make_store(clock=clock, ttl_s=10.0)
        a = store.issue_short_link(store.create_session("alice", **LOGIN).id)
        clock.advance(5.0)
        b = store.issue_short_link(store.create_session("bob", **LOGIN).id)
        store.authorize(a.id)  # rewrites A after B was created
        clock.advance(6.0)  # A is 11 s old, B 6 s
        assert store.get(a.id) is None
        assert store.resolve_token(a.token) is None
        assert store.find_by_cookie(a.cookie.value) is None
        assert store.get(b.id) == b
        assert store.resolve_token(b.token) == b
        assert store.find_by_cookie(b.cookie.value) == b
        assert store.live_count() == 1
        assert token_index_is_one_to_one(store)

    def test_bulk_expiry_pops_exactly_the_older_sessions(self):
        clock = FakeClock()
        store = make_store(clock=clock, ttl_s=10_000.0)
        created = []
        for i in range(10_000):
            s = store.create_session(f"user{i}", **LOGIN)
            if i % 2:
                s = store.issue_short_link(s.id)
            created.append(s)
            clock.advance(1.0)
        # Now 11000 + 2500.5: sessions created before 3500.5 (i <= 2500) are dead.
        clock.advance(2500.5)
        assert store.live_count() == 10_000 - 2501
        live = [s for s in created if store.get(s.id) is not None]
        assert live == created[2501:]
        assert token_index_is_one_to_one(store)


class TestRateLimit:
    def test_eleventh_lookup_in_one_second_is_limited(self):
        clock = FakeClock()
        store = make_store(clock=clock)
        for _ in range(LOOKUP_RATE_LIMIT):
            store.resolve_token("0" * 10, source="203.0.113.9")
        with pytest.raises(RateLimited):
            store.resolve_token("0" * 10, source="203.0.113.9")

    def test_window_resets_after_one_second(self):
        clock = FakeClock()
        store = make_store(clock=clock)
        for _ in range(LOOKUP_RATE_LIMIT):
            store.resolve_token("0" * 10, source="203.0.113.9")
        clock.advance(1.0)
        store.resolve_token("0" * 10, source="203.0.113.9")

    def test_limit_is_per_source(self):
        clock = FakeClock()
        store = make_store(clock=clock)
        for _ in range(LOOKUP_RATE_LIMIT):
            store.resolve_token("0" * 10, source="203.0.113.9")
        store.resolve_token("0" * 10, source="203.0.113.10")

    def test_unattributed_lookups_not_limited(self):
        store = make_store()
        for _ in range(5 * LOOKUP_RATE_LIMIT):
            store.resolve_token("0" * 10)

    def test_ended_windows_are_dropped(self):
        clock = FakeClock()
        store = make_store(clock=clock)
        for i in range(10_000):
            store.resolve_token("0" * 10, source=f"10.0.{i // 256}.{i % 256}")
        clock.advance(0.5)
        store.resolve_token("0" * 10, source="203.0.113.1")
        clock.advance(0.5)
        store.resolve_token("0" * 10, source="203.0.113.2")
        # The store keeps no other record of sources; this is its memory.
        assert set(store._lookup_windows) == {"203.0.113.1", "203.0.113.2"}

    def test_limiter_matches_a_limiter_that_forgets_nothing(self):
        """Random traffic gets the verdicts of the one-entry-per-source limiter."""
        rng = random.Random(5)
        clock = FakeClock()
        store = make_store(clock=clock)
        windows = {}
        refused = 0
        for _ in range(5000):
            # Dense enough that a source passes the limit now and then.
            clock.advance(rng.choice([0.0, 0.0, 0.01, 0.05, 0.3]))
            source = f"198.51.100.{rng.randrange(3)}"
            start, count = windows.get(source, (clock.t, 0))
            if clock.t - start >= 1.0:
                start, count = clock.t, 0
            windows[source] = (start, count + 1)
            try:
                store.resolve_token("0" * 10, source=source)
                limited = False
            except RateLimited:
                limited = True
            assert limited == (count + 1 > LOOKUP_RATE_LIMIT)
            refused += limited
        assert 0 < refused < 5000


class TestUniqueness:
    def test_session_ids_and_cookies_distinct(self):
        store = make_store(ttl_s=1e9)
        seen_ids, seen_cookies = set(), set()
        for i in range(1000):
            s = store.create_session(f"user{i}", **LOGIN)
            seen_ids.add(s.id)
            seen_cookies.add(s.cookie.value)
        assert len(seen_ids) == 1000
        assert len(seen_cookies) == 1000

    def test_cookie_draws_distinct(self):
        rng = random.Random(11)
        values = {draw_cookie_value(rng) for _ in range(100_000)}
        assert len(values) == 100_000

    def test_token_collision_redraws(self):
        """An rng that repeats its first token forces a redraw, not a clash."""

        class RiggedRandom(random.Random):
            def __init__(self):
                super().__init__(0)
                self.token_calls = 0

            def randrange(self, *args, **kwargs):
                self.token_calls += 1
                if self.token_calls <= 2:
                    return 123456789  # same digits for the first two sessions
                return super().randrange(*args, **kwargs)

        store = SessionStore(SERVER, rng=RiggedRandom(), clock=FakeClock(), ttl_s=1e9)
        a = store.create_session("a", **LOGIN)
        b = store.create_session("b", **LOGIN)
        a = store.issue_short_link(a.id)
        b = store.issue_short_link(b.id)
        assert a.token != b.token
        assert token_index_is_one_to_one(store)


MODEL_TTL_S = 10.0
MODEL_RETAKE_CAP = DEFAULT_RETAKE_CAP
# The lifecycle as the model knows it: store operation -> states it may start from.
MODEL_STARTS = {
    "issue_short_link": {SessionState.CREDENTIALS_OK},
    "mark_awaiting_photo": {SessionState.LINK_SENT, SessionState.AWAITING_PHOTO},
    "authorize": {SessionState.LINK_SENT, SessionState.AWAITING_PHOTO},
    "deny": {SessionState.AWAITING_PHOTO},
    "record_retake": {SessionState.AWAITING_PHOTO},
}


class StoreMachine(RuleBasedStateMachine):
    """SessionStore against a plain dict of the sessions that should be live."""

    sessions = Bundle("sessions")

    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.store = make_store(clock=self.clock, ttl_s=MODEL_TTL_S)
        self.model = {}  # id -> the snapshot the store should hand out
        self.cookies = {}  # id -> cookie value, kept after the session dies
        self.digits = {}  # id -> token digits, kept after the session dies

    def _expire(self):
        now = self.clock.t
        self.model = {
            sid: s for sid, s in self.model.items() if now - s.created_at <= MODEL_TTL_S
        }

    def _mutate(self, op, sid, *args, step):
        """Run one store operation; expect InvalidState exactly where the model does.

        `step` maps the model's session to the fields the operation changes.
        """
        self._expire()
        before = self.model.get(sid)
        call = getattr(self.store, op)
        if before is None or before.state not in MODEL_STARTS[op]:
            with pytest.raises(InvalidState):
                call(sid, *args)
            return None
        after = call(sid, *args)
        assert after == before._replace(**step(before))
        self.model[sid] = after
        return after

    @rule(target=sessions, username=st.sampled_from(["alice", "bob"]))
    def create(self, username):
        s = self.store.create_session(username, **LOGIN)
        assert s.state is SessionState.CREDENTIALS_OK and s.created_at == self.clock.t
        self._expire()
        self.model[s.id] = s
        self.cookies[s.id] = s.cookie.value
        return s.id

    @rule(sid=sessions)
    def issue(self, sid):
        s = self._mutate(
            "issue_short_link", sid, step=lambda _: {"token": ANY, "state": SessionState.LINK_SENT}
        )
        if s is not None:
            self.digits[sid] = s.token

    @rule(sid=sessions)
    def resolve(self, sid):
        digits = self.digits.get(sid, "0" * 10)
        found = self.store.resolve_token(digits)
        self._expire()
        live = [s for s in self.model.values() if s.token and s.token == digits]
        assert found == (live[0] if live else None)

    @rule(sid=sessions)
    def get(self, sid):
        found = self.store.get(sid)
        self._expire()
        assert found == self.model.get(sid)

    @rule(sid=sessions)
    def find_by_cookie(self, sid):
        found = self.store.find_by_cookie(self.cookies[sid])
        self._expire()
        assert found == self.model.get(sid)

    @rule(sid=sessions)
    def mark_awaiting_photo(self, sid):
        self._mutate(
            "mark_awaiting_photo", sid, step=lambda _: {"state": SessionState.AWAITING_PHOTO}
        )

    @rule(sid=sessions)
    def authorize(self, sid):
        self._mutate("authorize", sid, step=lambda _: {"state": SessionState.AUTHORIZED})

    @rule(sid=sessions)
    def deny(self, sid):
        self._mutate(
            "deny", sid, step=lambda _: {"state": SessionState.DENIED, "phishing_warned": True}
        )

    @rule(sid=sessions, warned=st.booleans())
    def record_retake(self, sid, warned):
        def step(s):
            retakes = s.retakes + 1
            return {
                "retakes": retakes,
                "phishing_warned": s.phishing_warned or warned,
                "state": SessionState.FALLBACK_OFFERED
                if retakes > MODEL_RETAKE_CAP
                else SessionState.AWAITING_PHOTO,
            }

        self._mutate("record_retake", sid, warned, step=step)

    @rule(dt=st.sampled_from([0.0, 1.0, MODEL_TTL_S / 2, MODEL_TTL_S + 1.0]))
    def step_clock(self, dt):
        self.clock.advance(dt)

    # A rule, not an invariant: live_count expires sessions, and doing that
    # after every step would hide an operation that skips its own expiry.
    @rule()
    def live_count(self):
        self._expire()
        assert self.store.live_count() == len(self.model)

    @invariant()
    def token_index_maps_the_live_tokened_sessions(self):
        self._expire()
        assert token_index_is_one_to_one(self.store)
        index = self.store._token_index
        live = {s.token: sid for sid, s in self.model.items() if s.token}
        assert live.items() <= index.items()
        # The rest are sessions that expired since the store last looked.
        for digits in index.keys() - live.keys():
            stored = self.store._sessions[index[digits]]
            assert self.clock.t - stored.created_at > MODEL_TTL_S


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
