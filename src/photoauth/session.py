"""Login sessions, cookies and short-link tokens.

One session tracks one login attempt from credentials to a terminal
state. The store owns all mutation; the Session values it hands out are
immutable snapshots.
"""

from __future__ import annotations

import random
import re
import time
from collections import OrderedDict
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .domain import DomainName

COOKIE_BITS = 128
_COOKIE_RE = re.compile(r"[0-9a-f]{32}\Z")

DEFAULT_TOKEN_LENGTH = 10
MIN_TOKEN_LENGTH = 6
MAX_TOKEN_LENGTH = 12

DEFAULT_TTL_S = 300.0
DEFAULT_RETAKE_CAP = 5
LOOKUP_RATE_LIMIT = 10  # token lookups per second per source


class InvalidState(Exception):
    """Raised on a transition the session lifecycle does not allow."""


class RateLimited(Exception):
    """Raised when one source exceeds the token lookup budget."""


class Preference(Enum):
    SMS = "sms"
    PUSH = "push"
    EMAIL = "email"


class Channel(Enum):
    PC_BROWSER = "pc-browser"
    PHONE_BROWSER = "phone-browser"


class SessionState(Enum):
    CREDENTIALS_OK = "credentials-ok"
    LINK_SENT = "link-sent"
    AWAITING_PHOTO = "awaiting-photo"
    AUTHORIZED = "authorized"
    DENIED = "denied"
    FALLBACK_OFFERED = "fallback-offered"


# The lifecycle: each store operation and the states it may start from.
# Terminal states (authorized, denied, fallback-offered) start none.
_STARTS: dict[str, frozenset[SessionState]] = {
    "issue_short_link": frozenset({SessionState.CREDENTIALS_OK}),
    "mark_awaiting_photo": frozenset({SessionState.LINK_SENT, SessionState.AWAITING_PHOTO}),
    "authorize": frozenset({SessionState.LINK_SENT, SessionState.AWAITING_PHOTO}),
    "deny": frozenset({SessionState.AWAITING_PHOTO}),
    "record_retake": frozenset({SessionState.AWAITING_PHOTO}),
}


class Cookie(NamedTuple):
    """Session cookie, set for the server's own origin."""

    value: str


def cookie_value_well_formed(value: str) -> bool:
    return bool(_COOKIE_RE.match(value))


def repr_without(record: tuple, hidden: tuple[str, ...]) -> str:
    """A record's repr with the `hidden` fields left out, so no secret reaches a log."""
    shown = ", ".join(
        f"{name}={value!r}" for name, value in zip(record._fields, record) if name not in hidden
    )
    return f"{type(record).__name__}({shown})"


class Session(NamedTuple):
    """Immutable snapshot of one login attempt."""

    id: str
    username: str
    cookie: Cookie
    token: Optional[str]
    state: SessionState
    retakes: int
    created_at: float
    login_source: str
    login_channel: Channel
    phishing_warned: bool = False

    def __repr__(self) -> str:
        return repr_without(self, ("cookie", "token"))


# Unseeded draws come from the OS's CSPRNG, as `secrets` draws them; importing
# `secrets` would also load OpenSSL, through `hmac`, at every server start.
_SYSTEM_RANDOM = random.SystemRandom()


def draw_cookie_value(rng: random.Random | None = None) -> str:
    """128-bit lowercase hex cookie value."""
    return f"{(rng or _SYSTEM_RANDOM).getrandbits(COOKIE_BITS):032x}"


def draw_token_digits(length: int, rng: random.Random | None = None) -> str:
    """Uniform decimal token of exactly `length` digits (leading zeros allowed)."""
    if not MIN_TOKEN_LENGTH <= length <= MAX_TOKEN_LENGTH:
        raise ValueError(f"token length must be in [{MIN_TOKEN_LENGTH}, {MAX_TOKEN_LENGTH}]")
    bound = 10**length
    n = (rng or _SYSTEM_RANDOM).randrange(bound)
    return f"{n:0{length}d}"


class SessionStore:
    """Session registry with token and cookie indexes.

    The store is not thread-safe: its owner, `AuthEngine`, serialises
    every call under its own lock. Sessions expire `ttl_s` after
    creation; expiry is applied lazily on every call so dead tokens can
    never resolve. Every session has the same TTL and calls never
    overlap, so creation order is expiry order: expiry pops sessions from
    the front of the registry and costs O(1) per call, however many
    sessions are live. The clock must not run backwards. An optional
    seeded rng makes every generated id, cookie and token reproducible.
    Every short-link token has `DEFAULT_TOKEN_LENGTH` digits, and a
    session falls back once its retakes exceed `DEFAULT_RETAKE_CAP`.
    """

    def __init__(
        self,
        server_domain: DomainName,
        *,
        rng: random.Random | None = None,
        clock: Callable[[], float] | None = None,
        ttl_s: float = DEFAULT_TTL_S,
    ):
        if not ttl_s > 0:  # NaN too
            raise ValueError("ttl_s must be positive")
        self.server_domain = server_domain
        self.ttl_s = ttl_s
        self._rng = rng
        self._clock = clock if clock is not None else time.monotonic
        # Both registries are kept in the order their entries started, and
        # expire from the front. OrderedDict rather than dict: a plain dict
        # leaves a hole per deleted entry until it resizes, and finding its
        # first entry skips every hole, which makes front pops O(n).
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self._token_index: dict[str, str] = {}
        self._cookie_index: dict[str, str] = {}
        # source -> (window start, lookups in the window), by window start.
        self._lookup_windows: OrderedDict[str, tuple[float, int]] = OrderedDict()

    # -- internal helpers --

    def _now(self) -> float:
        """Read the clock once, drop the sessions past their TTL, return the reading."""
        now = self._clock()
        # Updates reassign an existing key, which keeps its position.
        sessions = self._sessions
        while sessions:
            s = next(iter(sessions.values()))
            if now - s.created_at <= self.ttl_s:
                break
            sessions.popitem(last=False)
            if s.token is not None:
                self._token_index.pop(s.token, None)
            self._cookie_index.pop(s.cookie.value, None)
        return now

    def _count_lookup(self, source: str, now: float) -> None:
        # Ended windows leave from the front, so a source whose window
        # ended starts a new one at the back: the order stays start order.
        windows = self._lookup_windows
        while windows:
            start, _ = next(iter(windows.values()))
            if now - start < 1.0:
                break
            windows.popitem(last=False)
        window_start, count = windows.get(source, (now, 0))
        count += 1
        windows[source] = (window_start, count)
        if count > LOOKUP_RATE_LIMIT:
            raise RateLimited(f"token lookups from {source!r} exceed {LOOKUP_RATE_LIMIT}/s")

    def _live(self, op: str, session_id: str) -> Session:
        """The live session that lifecycle operation `op` may start from."""
        self._now()
        session = self._sessions.get(session_id)
        if session is None:
            raise InvalidState(f"no live session {session_id!r}")
        if session.state not in _STARTS[op]:
            raise InvalidState(f"{op} cannot start from {session.state.value}")
        return session

    def _put(self, session: Session, **changes) -> Session:
        """Store `session` with `changes` applied, and return it."""
        updated = Session(**{**session._asdict(), **changes})
        self._sessions[session.id] = updated
        return updated

    # -- public API --

    def create_session(self, username: str, *, source: str, channel: Channel) -> Session:
        if not username:
            raise ValueError("username must be non-empty")
        now = self._now()
        while True:
            sid = draw_cookie_value(self._rng)
            if sid not in self._sessions:
                break
        while True:
            cookie_value = draw_cookie_value(self._rng)
            if cookie_value not in self._cookie_index:
                break
        session = Session(
            id=sid,
            username=username,
            cookie=Cookie(value=cookie_value),
            token=None,
            state=SessionState.CREDENTIALS_OK,
            retakes=0,
            created_at=now,
            login_source=source,
            login_channel=channel,
        )
        self._sessions[sid] = session
        self._cookie_index[cookie_value] = sid
        return session

    def issue_short_link(self, session_id: str) -> Session:
        """Attach a fresh token, moving the session to LINK_SENT.

        The token is unique among live sessions; a collision with one is
        redrawn, never reused.
        """
        session = self._live("issue_short_link", session_id)
        while True:
            digits = draw_token_digits(DEFAULT_TOKEN_LENGTH, self._rng)
            if digits not in self._token_index:
                break
        self._token_index[digits] = session_id
        return self._put(session, token=digits, state=SessionState.LINK_SENT)

    def resolve_token(self, digits: str, *, source: str | None = None) -> Session | None:
        """Look up the live session behind a token, rate limited per source."""
        now = self._now()
        if source is not None:
            self._count_lookup(source, now)
        sid = self._token_index.get(digits)
        return self._sessions.get(sid) if sid is not None else None

    def get(self, session_id: str) -> Session | None:
        self._now()
        return self._sessions.get(session_id)

    def find_by_cookie(self, cookie_value: str) -> Session | None:
        self._now()
        sid = self._cookie_index.get(cookie_value)
        return self._sessions.get(sid) if sid is not None else None

    def mark_awaiting_photo(self, session_id: str) -> Session:
        session = self._live("mark_awaiting_photo", session_id)
        return self._put(session, state=SessionState.AWAITING_PHOTO)

    def authorize(self, session_id: str) -> Session:
        return self._put(self._live("authorize", session_id), state=SessionState.AUTHORIZED)

    def deny(self, session_id: str) -> Session:
        """Deny the login: its photo showed another domain, so the session
        is phishing-warned for good."""
        session = self._live("deny", session_id)
        return self._put(session, state=SessionState.DENIED, phishing_warned=True)

    def record_retake(self, session_id: str, warned: bool) -> Session:
        """Count one failed photo; past the cap the session falls back.

        A `warned` retake marks the session as phishing-warned for good.
        """
        session = self._live("record_retake", session_id)
        retakes = session.retakes + 1
        state = (SessionState.FALLBACK_OFFERED if retakes > DEFAULT_RETAKE_CAP
                 else SessionState.AWAITING_PHOTO)
        return self._put(session, retakes=retakes, state=state,
                         phishing_warned=session.phishing_warned or warned)

    def live_count(self) -> int:
        self._now()
        return len(self._sessions)
