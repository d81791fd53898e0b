"""Authentication decision engine.

Implements the full login flow:

  request with the cookie of an authorized session  -> authorize
  request with a malformed cookie                   -> bad request
  request for an unregistered username              -> deny
  request without a usable cookie                   -> create session,
        send a short link to the user's phone (SMS, push or email all
        carry the same link)
  link click colocated with the login               -> authorize
  link click from elsewhere                         -> require a photo
  photo matches an accepted domain                  -> authorize
  photo shows another domain                        -> deny, phishing
  photo unreadable or showing two address bars      -> retake, capped
  photo for a session not awaiting one              -> bad request, not-awaiting-photo
  click or photo past its source's lookup limit     -> bad request, rate-limited
"""

from __future__ import annotations

import ipaddress
import threading
from collections import deque
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .domain import DomainName
from .session import (
    Channel,
    DEFAULT_RETAKE_CAP,
    InvalidState,
    Preference,
    RateLimited,
    Session,
    SessionState,
    SessionStore,
    cookie_value_well_formed,
    repr_without,
)
from .verify import (
    PhotoAnalysis,
    RETAKE_MULTIPLE_ADDRBARS,
    VerdictKind,
    verify_photo,
)

REASON_UNKNOWN_TOKEN = "unknown-token"
REASON_UNKNOWN_USER = "unknown-user"
REASON_PHISHING = "phishing-detected"
REASON_SESSION_DENIED = "session-denied"
REASON_RATE_LIMITED = "rate-limited"
REASON_NOT_AWAITING_PHOTO = "not-awaiting-photo"

SAME_BROWSER_HINT = "open the link in the browser used to sign in"

# Nothing in the engine delivers notifications; it keeps the latest few.
NOTIFICATION_BACKLOG = 256

# The shortest `ColocationPolicy.prefix_len`. Under `same-network` a shorter
# prefix counts a relay anywhere in a large network as colocated, and /0
# counts every address.
MIN_PREFIX_LEN = 24


class ColocationMode(Enum):
    COOKIE_EQUALITY = "cookie"
    IP_EQUALITY = "ip"
    SAME_NETWORK = "same-network"


class _PolicyFields(NamedTuple):
    mode: ColocationMode = ColocationMode.COOKIE_EQUALITY
    prefix_len: int = 24


class ColocationPolicy(_PolicyFields):
    """How the server decides the link click came from the login device."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not MIN_PREFIX_LEN <= self.prefix_len <= 128:
            raise ValueError(
                f"prefix_len must be in [{MIN_PREFIX_LEN}, 128], got {self.prefix_len}")
        return self


class AuthRequest(NamedTuple):
    username: Optional[str]
    presented_cookie: Optional[str]
    source_address: str
    channel: Channel = Channel.PC_BROWSER


class LinkClick(NamedTuple):
    token_digits: str
    presented_cookie: Optional[str]
    source_address: str


class DecisionKind(Enum):
    AUTHORIZE = "authorize"
    LINK_SENT = "link-sent"
    REQUIRE_PHOTO = "require-photo"
    REQUEST_RETAKE = "request-retake"
    DENY = "deny"
    FALLBACK = "fallback"
    BAD_REQUEST = "bad-request"


class AuthDecision(NamedTuple):
    """What the engine decided.

    `message` is the same-browser hint of a `REQUIRE_PHOTO` decision. A
    `LINK_SENT` decision also carries what the login response needs from
    the new session: its short-link token digits and cookie value. The
    repr leaves both out.
    """

    kind: DecisionKind
    reason: Optional[str] = None
    session_id: Optional[str] = None
    message: Optional[str] = None
    warning: bool = False
    retakes_left: Optional[int] = None
    token_digits: Optional[str] = None
    cookie: Optional[str] = None

    def __repr__(self) -> str:
        return repr_without(self, ("token_digits", "cookie"))


class Notification(NamedTuple):
    """Short-link message delivered to the account's registered phone.

    The repr leaves the link out.
    """

    username: str
    preference: Preference
    link: str

    def __repr__(self) -> str:
        return repr_without(self, ("link",))


# The answer to a token with no live session. A store write refused after
# the session was looked up gets it too: under the engine lock nothing but
# the clock moves a session, so its link expired in between.
_UNKNOWN_TOKEN = AuthDecision(DecisionKind.DENY, reason=REASON_UNKNOWN_TOKEN)
_UNKNOWN_USER = AuthDecision(DecisionKind.DENY, reason=REASON_UNKNOWN_USER)
_RATE_LIMITED = AuthDecision(DecisionKind.BAD_REQUEST, reason=REASON_RATE_LIMITED)
_NOT_AWAITING_PHOTO = AuthDecision(DecisionKind.BAD_REQUEST, reason=REASON_NOT_AWAITING_PHOTO)


def _same_network(a: str, b: str, prefix_len: int) -> bool:
    # IPv4 addresses compare by the prefix, cut to 32 bits. IPv6 addresses
    # compare by at least their first 64 bits, one link's subnet (RFC 7421),
    # so no prefix spans more than one IPv6 link.
    try:
        net_a, net_b = (
            ipaddress.ip_network(
                (ip, min(prefix_len, 32) if ip.version == 4 else max(prefix_len, 64)),
                strict=False,
            )
            for ip in map(ipaddress.ip_address, (a, b))
        )
    except ValueError:
        return False
    return net_a == net_b


class AuthEngine:
    """Binds the session store, user registry and verifier into one flow.

    Notifications are appended to `outbox`, which keeps the latest
    `NOTIFICATION_BACKLOG`; the transport that drains it (SMS, push,
    email) is outside the engine and carries the same link either way.

    Each `handle_*` call runs whole under one engine-wide lock, so a
    decision is always applied to the session state it was made from:
    two clicks or two photos for one link never interleave. That lock is
    the store's only guard: nothing but the engine calls the store.
    """

    def __init__(
        self,
        store: SessionStore,
        users: dict[str, Preference],
        accept_set: Iterable[DomainName],
        *,
        policy: ColocationPolicy = ColocationPolicy(),
    ):
        self.store = store
        self.users = dict(users)
        self.accept_set = frozenset(accept_set)
        self.policy = policy
        self.outbox: deque[Notification] = deque(maxlen=NOTIFICATION_BACKLOG)
        self._lock = threading.Lock()

    def session_state(self, session_id: str) -> SessionState | None:
        """The state of a live session; None if there is none."""
        with self._lock:
            session = self.store.get(session_id)
        return session.state if session is not None else None

    # -- flow steps --

    def handle_auth_request(self, request: AuthRequest) -> AuthDecision:
        """First contact: cookie shortcut, else start a new session."""
        with self._lock:
            cookie = request.presented_cookie
            if cookie is not None:
                if not cookie_value_well_formed(cookie):
                    return AuthDecision(DecisionKind.BAD_REQUEST, reason="malformed-cookie")
                session = self.store.find_by_cookie(cookie)
                if session is not None and session.state is SessionState.AUTHORIZED:
                    return AuthDecision(DecisionKind.AUTHORIZE, session_id=session.id)
                # Well-formed but not an authorized session: treat as a fresh login.

            if not request.username:
                return AuthDecision(DecisionKind.BAD_REQUEST, reason="missing-username")
            preference = self.users.get(request.username)
            if preference is None:
                return _UNKNOWN_USER

            session = self.store.create_session(
                request.username, source=request.source_address, channel=request.channel
            )
            self.outbox.append(
                Notification(
                    username=session.username,
                    preference=preference,
                    link=f"{self.store.server_domain}/c/{session.token}",
                )
            )
            return AuthDecision(
                DecisionKind.LINK_SENT,
                session_id=session.id,
                token_digits=session.token,
                cookie=session.cookie.value,
            )

    def _colocated(self, click: LinkClick, session: Session) -> bool:
        mode = self.policy.mode
        if mode is ColocationMode.COOKIE_EQUALITY:
            return click.presented_cookie == session.cookie.value
        if mode is ColocationMode.IP_EQUALITY:
            return click.source_address == session.login_source
        return _same_network(click.source_address, session.login_source, self.policy.prefix_len)

    def handle_link_click(self, click: LinkClick) -> AuthDecision:
        """Short-link visit: skip the photo when the click is colocated."""
        with self._lock:
            try:
                session = self.store.resolve_token(click.token_digits, source=click.source_address)
            except RateLimited:
                return _RATE_LIMITED
            if session is None:
                return _UNKNOWN_TOKEN
            if session.state is SessionState.AUTHORIZED:
                # Replayed click on a finished session changes nothing.
                return AuthDecision(DecisionKind.AUTHORIZE, session_id=session.id)
            if session.state is SessionState.DENIED:
                return AuthDecision(DecisionKind.DENY, reason=REASON_SESSION_DENIED,
                                    session_id=session.id, warning=session.phishing_warned)
            if session.state is SessionState.FALLBACK_OFFERED:
                return AuthDecision(DecisionKind.FALLBACK, session_id=session.id,
                                    warning=session.phishing_warned)
            if session.state is SessionState.AWAITING_PHOTO:
                return AuthDecision(DecisionKind.REQUIRE_PHOTO, session_id=session.id)

            try:
                if self._colocated(click, session):
                    self.store.authorize(session.id)
                    return AuthDecision(DecisionKind.AUTHORIZE, session_id=session.id)
                self.store.mark_awaiting_photo(session.id)
            except InvalidState:
                return _UNKNOWN_TOKEN
            hint = None
            if (
                self.policy.mode is ColocationMode.COOKIE_EQUALITY
                and session.login_channel is Channel.PHONE_BROWSER
            ):
                # The login came from a phone browser; the click arrived from a
                # different one, otherwise the cookie would have matched.
                hint = SAME_BROWSER_HINT
            return AuthDecision(DecisionKind.REQUIRE_PHOTO, session_id=session.id, message=hint)

    def handle_photo_submission(
        self, token_digits: str, analysis: PhotoAnalysis, *, source: str | None = None
    ) -> AuthDecision:
        """Photo upload for a pending session."""
        with self._lock:
            try:
                session = self.store.resolve_token(token_digits, source=source)
            except RateLimited:
                return _RATE_LIMITED
            if session is None:
                return _UNKNOWN_TOKEN
            if session.state is not SessionState.AWAITING_PHOTO:
                return _NOT_AWAITING_PHOTO

            result = verify_photo(analysis, self.accept_set)
            try:
                if result.kind is VerdictKind.MATCH:
                    self.store.authorize(session.id)
                    return AuthDecision(DecisionKind.AUTHORIZE, session_id=session.id)
                if result.kind is VerdictKind.MISMATCH:
                    self.store.deny(session.id)
                    return AuthDecision(DecisionKind.DENY, reason=REASON_PHISHING,
                                        session_id=session.id, warning=True)

                warned = result.reason == RETAKE_MULTIPLE_ADDRBARS
                updated = self.store.record_retake(session.id, warned)
                if updated.state is SessionState.FALLBACK_OFFERED:
                    return AuthDecision(
                        DecisionKind.FALLBACK,
                        session_id=session.id,
                        warning=updated.phishing_warned,
                    )
                return AuthDecision(
                    DecisionKind.REQUEST_RETAKE,
                    reason=result.reason,
                    session_id=session.id,
                    warning=warned,
                    retakes_left=DEFAULT_RETAKE_CAP - updated.retakes,
                )
            except InvalidState:
                return _UNKNOWN_TOKEN
