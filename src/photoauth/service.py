"""Wire-level service: configuration, request routing, HTTP front end.

The routing core is a pure function from (store state, request) to a
response, so a recorded request log replayed against a fresh store with
the same seed reproduces the original responses byte for byte. The HTTP
server is a thin shell over that core.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from .decision import (
    AuthEngine,
    AuthRequest,
    ColocationMode,
    ColocationPolicy,
    DecisionKind,
    LinkClick,
    UnknownUser,
)
from .domain import extract_hostname
from .jsonread import from_json
from .session import (
    Channel,
    DEFAULT_RETAKE_CAP,
    DEFAULT_TOKEN_LENGTH,
    DEFAULT_TTL_S,
    InvalidState,
    MAX_TOKEN_LENGTH,
    MIN_TOKEN_LENGTH,
    Preference,
    RateLimited,
    SessionStore,
)
from .verify import VerifyConfig, analysis_from_dict

logger = logging.getLogger("photoauth.service")

ENV_PORT = "PHOTOAUTH_PORT"
ENV_SEED = "PHOTOAUTH_SEED"

# Nothing in the service delivers notifications; it keeps the latest few.
NOTIFICATION_BACKLOG = 256
# A photo analysis is a few KB; larger bodies are refused unread.
MAX_BODY_BYTES = 64 * 1024
# A kept-alive connection with no request for this long is closed.
IDLE_TIMEOUT_S = 30.0

@dataclass(frozen=True)
class Config:
    """Service settings; `server_domains[0]` names the service itself."""

    server_domains: tuple[str, ...] = ("microsoft.com",)
    users: dict = field(default_factory=lambda: {"bob": "sms"})
    token_length: int = DEFAULT_TOKEN_LENGTH
    retake_cap: int = DEFAULT_RETAKE_CAP
    cr_threshold: float = 0.8
    colocation_mode: str = "cookie"
    colocation_prefix_len: int = 24
    session_ttl_s: float = DEFAULT_TTL_S
    port: int = 8443
    seed: Optional[int] = None
    expose_notifications: bool = False

    def __post_init__(self):
        if not self.server_domains:
            raise ValueError("need at least one server domain")
        for name in self.server_domains:
            if not isinstance(name, str):
                raise ValueError(f"server domain must be a string, got {name!r}")
            extract_hostname(name)  # raises DomainError, a ValueError
        if not MIN_TOKEN_LENGTH <= self.token_length <= MAX_TOKEN_LENGTH:
            raise ValueError(
                f"token_length must be in [{MIN_TOKEN_LENGTH}, {MAX_TOKEN_LENGTH}]"
            )
        if not 0.0 < self.cr_threshold <= 1.0:
            raise ValueError("cr_threshold must be in (0, 1]")
        self.policy  # checks colocation_mode and colocation_prefix_len
        if not self.session_ttl_s > 0:  # NaN too
            raise ValueError("session_ttl_s must be positive")
        if self.retake_cap < 0:
            raise ValueError("retake_cap must be non-negative")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        for pref in self.users.values():
            Preference(pref)

    @property
    def policy(self) -> ColocationPolicy:
        return ColocationPolicy(ColocationMode(self.colocation_mode), self.colocation_prefix_len)


def config_from_dict(obj: dict) -> Config:
    """Build a Config from parsed JSON; keys it does not know are ignored.

    `PHOTOAUTH_PORT` and `PHOTOAUTH_SEED`, when set, override the file.
    """
    if not isinstance(obj, dict):
        raise ValueError("a config must be a JSON object")
    env = {key: int(os.environ[name])
           for key, name in (("port", ENV_PORT), ("seed", ENV_SEED)) if name in os.environ}
    return from_json(Config, {**obj, **env}, "config")


def load_config(path: str) -> Config:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


@dataclass(frozen=True)
class WireRequest:
    method: str
    path: str
    headers: dict = field(default_factory=dict)
    body: Optional[dict] = None
    source_address: str = "0.0.0.0"


@dataclass(frozen=True)
class WireResponse:
    status: int
    body: dict
    headers: dict = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        return json.dumps(self.body, sort_keys=True, separators=(",", ":")).encode()


_COOKIE_MORSEL = re.compile(r"(?:^|;\s*)auth=([^;]*)")
_TOKEN_PATH = re.compile(r"^/c/(\d+)$")
_PHOTO_PATH = re.compile(r"^/c/(\d+)/photo$")
_STATUS_PATH = re.compile(r"^/session/([0-9a-f]+)/status$")
# Tokens and session ids inside a request line, replaced by their names.
_PATH_SECRET = re.compile(r"(?<=/c/)(?P<token>\d+)|(?<=/session/)(?P<id>[0-9a-f]+)")


def _cookie_from_headers(headers: dict) -> Optional[str]:
    raw = headers.get("Cookie") or headers.get("cookie")
    if raw is None:
        return None
    m = _COOKIE_MORSEL.search(raw)
    # A Cookie header that does not carry our morsel is malformed for us:
    # report it rather than silently starting a new session.
    return m.group(1) if m else ""


class App:
    """One service instance: store, engine and routing."""

    def __init__(self, config: Config, clock: Callable[[], float] | None = None):
        self.config = config
        rng = random.Random(config.seed) if config.seed is not None else None
        names = [extract_hostname(d) for d in config.server_domains]
        self.store = SessionStore(
            names[0],
            rng=rng,
            clock=clock,
            ttl_s=config.session_ttl_s,
            retake_cap=config.retake_cap,
        )
        self.engine = AuthEngine(
            self.store,
            users={u: Preference(p) for u, p in config.users.items()},
            accept_set=names,
            policy=config.policy,
            verify_cfg=VerifyConfig(cr_threshold=config.cr_threshold),
            token_length=config.token_length,
            outbox=deque(maxlen=NOTIFICATION_BACKLOG),
        )

    # -- endpoint handlers --

    def _login(self, req: WireRequest) -> WireResponse:
        body = req.body if req.body is not None else {}
        if not isinstance(body, dict):
            return WireResponse(400, {"status": "error", "reason": "bad-body"})
        username = body.get("username")
        if username is not None and not isinstance(username, str):
            return WireResponse(400, {"status": "error", "reason": "bad-username"})
        channel = Channel.PHONE_BROWSER if body.get("channel") == "phone-browser" else Channel.PC_BROWSER
        cookie = _cookie_from_headers(req.headers)
        try:
            decision = self.engine.handle_auth_request(
                AuthRequest(username, cookie, req.source_address, channel)
            )
        except UnknownUser:
            return WireResponse(403, {"status": "denied", "reason": "unknown-user"})
        if decision.kind is DecisionKind.AUTHORIZE:
            return WireResponse(200, {"status": "authorized", "session_id": decision.session_id})
        if decision.kind is DecisionKind.BAD_REQUEST:
            return WireResponse(400, {"status": "error", "reason": decision.reason})
        assert decision.kind is DecisionKind.LINK_SENT and decision.preference is not None
        payload = {
            "status": "link-sent",
            "session_id": decision.session_id,
            "link": f"/c/{decision.token_digits}",
        }
        if self.config.expose_notifications:
            payload["notification"] = {
                "preference": decision.preference.value,
                "link": decision.link,
            }
        return WireResponse(
            200,
            payload,
            headers={"Set-Cookie": f"auth={decision.cookie}; Path=/; HttpOnly"},
        )

    def _click(self, req: WireRequest, digits: str) -> WireResponse:
        cookie = _cookie_from_headers(req.headers)
        if cookie == "":
            return WireResponse(400, {"status": "error", "reason": "malformed-cookie"})
        try:
            decision = self.engine.handle_link_click(
                LinkClick(digits, cookie, req.source_address)
            )
        except RateLimited:
            return WireResponse(429, {"status": "error", "reason": "rate-limited"})
        if decision.kind is DecisionKind.AUTHORIZE:
            return WireResponse(200, {"status": "authorized"})
        if decision.kind is DecisionKind.REQUIRE_PHOTO:
            body = {"status": "photo-required", "upload": f"/c/{digits}/photo"}
            if decision.message:
                body["message"] = decision.message
            return WireResponse(200, body)
        if decision.kind is DecisionKind.FALLBACK:
            return WireResponse(200, {"status": "fallback", "warning": True})
        assert decision.kind is DecisionKind.DENY
        return WireResponse(403, {"status": "denied", "reason": decision.reason})

    def _photo(self, req: WireRequest, digits: str) -> WireResponse:
        if req.body is None:
            return WireResponse(400, {"status": "error", "reason": "missing-body"})
        try:
            analysis = analysis_from_dict(req.body)
        except ValueError as exc:
            return WireResponse(400, {"status": "error", "reason": f"bad-analysis: {exc}"})
        try:
            decision = self.engine.handle_photo_submission(
                digits, analysis, source=req.source_address
            )
        except InvalidState:
            return WireResponse(409, {"status": "error", "reason": "not-awaiting-photo"})
        except RateLimited:
            return WireResponse(429, {"status": "error", "reason": "rate-limited"})
        if decision.kind is DecisionKind.AUTHORIZE:
            return WireResponse(200, {"status": "authorized"})
        if decision.kind is DecisionKind.DENY and decision.reason == "unknown-token":
            return WireResponse(403, {"status": "denied", "reason": decision.reason})
        if decision.kind is DecisionKind.DENY:
            return WireResponse(
                200,
                {"status": "denied", "reason": decision.reason, "warning": True},
            )
        if decision.kind is DecisionKind.FALLBACK:
            return WireResponse(200, {"status": "fallback", "warning": decision.warning})
        assert decision.kind is DecisionKind.REQUEST_RETAKE
        return WireResponse(
            200,
            {
                "status": "retake",
                "reason": decision.reason,
                "warning": decision.warning,
                "retakes_left": decision.retakes_left,
            },
        )

    def _status(self, session_id: str) -> WireResponse:
        session = self.store.get(session_id)
        if session is None:
            return WireResponse(403, {"status": "denied", "reason": "unknown-session"})
        return WireResponse(200, {"status": session.state.value})

    def handle(self, req: WireRequest) -> WireResponse:
        # The route template, never the raw path: that carries live tokens.
        route, response = self._route(req)
        logger.info(
            "%s",
            json.dumps(
                {
                    "method": req.method,
                    "path": route,
                    "status": response.status,
                    "body_status": response.body.get("status"),
                },
                sort_keys=True,
            ),
        )
        return response

    def _route(self, req: WireRequest) -> tuple[Optional[str], WireResponse]:
        """The matched route template (None if none matched) and the response."""
        if req.method == "POST" and req.path == "/login":
            return "/login", self._login(req)
        m = _TOKEN_PATH.match(req.path)
        if req.method == "GET" and m:
            return "/c/{token}", self._click(req, m.group(1))
        m = _PHOTO_PATH.match(req.path)
        if req.method == "POST" and m:
            return "/c/{token}/photo", self._photo(req, m.group(1))
        m = _STATUS_PATH.match(req.path)
        if req.method == "GET" and m:
            return "/session/{id}/status", self._status(m.group(1))
        return None, WireResponse(404, {"status": "error", "reason": "no-such-endpoint"})


# ---------------------------------------------------------------------------
# HTTP shell
# ---------------------------------------------------------------------------


def _error(status: int, reason: str) -> WireResponse:
    return WireResponse(status, {"status": "error", "reason": reason})


def _make_handler(app: App):
    class Handler(BaseHTTPRequestHandler):
        # Keep connections alive between requests. Responses go out in two
        # writes (headers, body); with Nagle's algorithm on, the second
        # waits for the client's delayed ACK, about 40 ms.
        protocol_version = "HTTP/1.1"
        timeout = IDLE_TIMEOUT_S
        disable_nagle_algorithm = True

        def _read_body(self):
            """The parsed JSON body, None if empty, or an error response.

            An error that leaves the body unread also marks the connection
            for closing: its next bytes are not a request.
            """
            if "Transfer-Encoding" in self.headers:
                self.close_connection = True
                return _error(411, "length-required")
            raw = self.headers.get("Content-Length") or "0"
            if not (raw.isascii() and raw.isdigit()):
                self.close_connection = True
                return _error(400, "bad-content-length")
            length = int(raw)
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                return _error(413, "body-too-large")
            if not length:
                return None
            try:
                return json.loads(self.rfile.read(length))
            except (ValueError, RecursionError):
                return _error(400, "bad-json")

        def _respond(self):
            body = self._read_body()
            if isinstance(body, WireResponse):
                self._write(body)
                return
            req = WireRequest(
                method=self.command,
                path=self.path,
                headers={k: v for k, v in self.headers.items()},
                body=body,
                source_address=self.client_address[0],
            )
            try:
                response = app.handle(req)
            except Exception:
                logger.exception("unhandled error in %s request", self.command)
                response = _error(500, "internal-error")
            self._write(response)

        def _write(self, response: WireResponse):
            payload = response.to_bytes()
            self.send_response(response.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            if self.close_connection:
                self.send_header("Connection", "close")
            for key, value in response.headers.items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):
            self._respond()

        def do_POST(self):
            self._respond()

        def log_message(self, fmt, *args):
            if logger.isEnabledFor(logging.DEBUG):
                line = _PATH_SECRET.sub(lambda m: "{%s}" % m.lastgroup, fmt % args)
                logger.debug("%s", line)

    return Handler


def serve(config: Config) -> None:
    """Run the HTTP server until interrupted."""
    app = App(config)
    server = ThreadingHTTPServer(("0.0.0.0", config.port), _make_handler(app))
    logger.info(
        "%s", json.dumps({"event": "listening", "port": config.port,
                          "domain": str(app.store.server_domain)}, sort_keys=True)
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
