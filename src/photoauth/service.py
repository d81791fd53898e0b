"""Wire-level service: configuration, request routing, HTTP front end.

The routing core is a pure function from (store state, request) to a
response, so a recorded request log replayed against a fresh store with
the same seed reproduces the original responses byte for byte. The HTTP
server is a thin shell over that core: one `selectors` loop, one
object per connection.
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import signal
import socket
import sys
import threading
import time
from collections.abc import Mapping
from http import HTTPStatus
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

from .decision import (
    AuthDecision,
    AuthEngine,
    AuthRequest,
    ColocationMode,
    ColocationPolicy,
    DecisionKind,
    LinkClick,
    REASON_NOT_AWAITING_PHOTO,
    REASON_PHISHING,
    REASON_RATE_LIMITED,
)
from .domain import extract_hostname
from .jsonread import from_json
from .session import (
    Channel,
    DEFAULT_TTL_S,
    Preference,
    SessionStore,
)
from .verify import analysis_from_dict

ENV_PORT = "PHOTOAUTH_PORT"

# A photo analysis is a few KB; larger bodies are refused unread.
MAX_BODY_BYTES = 64 * 1024
# A kept-alive connection with no request for this long is closed.
IDLE_TIMEOUT_S = 30.0


class _ConfigFields(NamedTuple):
    server_domains: tuple[str, ...] = ("microsoft.com",)
    # Read from JSON as a dict; the default is a read-only view.
    users: dict = MappingProxyType({"bob": "sms"})
    colocation_mode: str = "cookie"
    colocation_prefix_len: int = 24
    session_ttl_s: float = DEFAULT_TTL_S
    port: int = 8443
    seed: Optional[int] = None


class Config(_ConfigFields):
    """Service settings; `server_domains[0]` names the service itself."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.server_domains:
            raise ValueError("need at least one server domain")
        for name in self.server_domains:
            if not isinstance(name, str):
                raise ValueError(f"server domain must be a string, got {name!r}")
            extract_hostname(name)  # raises DomainError, a ValueError
        self.policy  # checks colocation_mode and colocation_prefix_len
        if not self.session_ttl_s > 0:  # NaN too
            raise ValueError("session_ttl_s must be positive")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        for pref in self.users.values():
            Preference(pref)
        return self

    @property
    def policy(self) -> ColocationPolicy:
        return ColocationPolicy(ColocationMode(self.colocation_mode), self.colocation_prefix_len)


def config_from_dict(obj: dict) -> Config:
    """Build a Config from parsed JSON; keys it does not know are ignored.

    `PHOTOAUTH_PORT`, when set, overrides the file's port.
    """
    if not isinstance(obj, dict):
        raise ValueError("a config must be a JSON object")
    if ENV_PORT in os.environ:
        obj = {**obj, "port": int(os.environ[ENV_PORT])}
    return from_json(Config, obj, "config")


def load_config(path: str) -> Config:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


_NO_HEADERS: Mapping[str, str] = MappingProxyType({})


class WireRequest(NamedTuple):
    method: str
    path: str
    headers: Mapping[str, str] = _NO_HEADERS
    body: Optional[dict] = None
    source_address: str = "0.0.0.0"


class WireResponse(NamedTuple):
    status: int
    body: dict
    headers: Mapping[str, str] = _NO_HEADERS
    # The route template `App.handle` matched, for the access line; never sent.
    route: Optional[str] = None

    def to_bytes(self) -> bytes:
        return _BODY_ENCODER.encode(self.body).encode()


# Built once: `json.dumps` with any option builds a new encoder per call.
_BODY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


_COOKIE_MORSEL = re.compile(r"(?:^|;\s*)auth=([^;]*)")
# Matched whole: a `$` would also match before a trailing newline.
_TOKEN_PATH = re.compile(r"/c/([0-9]+)")
_PHOTO_PATH = re.compile(r"/c/([0-9]+)/photo")
_STATUS_PATH = re.compile(r"/session/([0-9a-f]+)/status")


def _cookie_from_headers(headers: Mapping[str, str]) -> Optional[str]:
    raw = headers.get("Cookie") or headers.get("cookie")
    if raw is None:
        return None
    m = _COOKIE_MORSEL.search(raw)
    # A Cookie header that does not carry our morsel is malformed for us:
    # report it rather than silently starting a new session.
    return m.group(1) if m else ""


def _error(status: int, reason: str) -> WireResponse:
    return WireResponse(status, {"status": "error", "reason": reason})


# The status of each refusal the engine decides; any other is a 400.
_REFUSAL_STATUS = {REASON_RATE_LIMITED: 429, REASON_NOT_AWAITING_PHOTO: 409}
# A status poll for an id with no live session, unknown or expired.
_UNKNOWN_SESSION = AuthDecision(DecisionKind.DENY, reason="unknown-session")


def _answer(decision: AuthDecision, digits: str = "") -> WireResponse:
    """The answer to a decision on any route; `_login` answers its own LINK_SENT and AUTHORIZE."""
    kind = decision.kind
    if kind is DecisionKind.BAD_REQUEST:
        return _error(_REFUSAL_STATUS.get(decision.reason, 400), decision.reason)
    if kind is DecisionKind.AUTHORIZE:
        return WireResponse(200, {"status": "authorized"})
    if kind is DecisionKind.FALLBACK:
        return WireResponse(200, {"status": "fallback", "warning": decision.warning})
    if kind is DecisionKind.REQUIRE_PHOTO:
        body = {"status": "photo-required", "upload": f"/c/{digits}/photo"}
        if decision.message:
            body["message"] = decision.message
        return WireResponse(200, body)
    if kind is DecisionKind.REQUEST_RETAKE:
        return WireResponse(200, {
            "status": "retake",
            "reason": decision.reason,
            "warning": decision.warning,
            "retakes_left": decision.retakes_left,
        })
    assert kind is DecisionKind.DENY
    body = {"status": "denied", "reason": decision.reason}
    if decision.warning:
        body["warning"] = True
    # A photo that shows another domain decided the login; every other denial refuses.
    return WireResponse(200 if decision.reason == REASON_PHISHING else 403, body)


class App:
    """One service instance: store, engine and routing. It does no I/O."""

    def __init__(self, config: Config, clock: Callable[[], float] | None = None):
        rng = random.Random(config.seed) if config.seed is not None else None
        names = [extract_hostname(d) for d in config.server_domains]
        self.store = SessionStore(names[0], rng=rng, clock=clock, ttl_s=config.session_ttl_s)
        self.engine = AuthEngine(
            self.store,
            users={u: Preference(p) for u, p in config.users.items()},
            accept_set=names,
            policy=config.policy,
        )

    # -- endpoint handlers --

    def _login(self, req: WireRequest) -> WireResponse:
        body = req.body if req.body is not None else {}
        if not isinstance(body, dict):
            return _error(400, "bad-body")
        username = body.get("username")
        if username is not None and not isinstance(username, str):
            return _error(400, "bad-username")
        channel = Channel.PHONE_BROWSER if body.get("channel") == "phone-browser" else Channel.PC_BROWSER
        cookie = _cookie_from_headers(req.headers)
        decision = self.engine.handle_auth_request(
            AuthRequest(username, cookie, req.source_address, channel)
        )
        if decision.kind is DecisionKind.AUTHORIZE:
            return WireResponse(200, {"status": "authorized", "session_id": decision.session_id})
        if decision.kind is not DecisionKind.LINK_SENT:
            return _answer(decision)
        return WireResponse(
            200,
            {
                "status": "link-sent",
                "session_id": decision.session_id,
                "link": f"/c/{decision.token_digits}",
            },
            headers={"Set-Cookie": f"auth={decision.cookie}; Path=/; HttpOnly"},
        )

    def _click(self, req: WireRequest, digits: str) -> WireResponse:
        cookie = _cookie_from_headers(req.headers)
        if cookie == "":
            return _error(400, "malformed-cookie")
        decision = self.engine.handle_link_click(LinkClick(digits, cookie, req.source_address))
        return _answer(decision, digits)

    def _photo(self, req: WireRequest, digits: str) -> WireResponse:
        if req.body is None:
            return _error(400, "missing-body")
        try:
            analysis = analysis_from_dict(req.body)
        except ValueError as exc:
            return _error(400, f"bad-analysis: {exc}")
        decision = self.engine.handle_photo_submission(digits, analysis, source=req.source_address)
        return _answer(decision, digits)

    def _status(self, session_id: str) -> WireResponse:
        state = self.engine.session_state(session_id)
        if state is None:
            return _answer(_UNKNOWN_SESSION)
        return WireResponse(200, {"status": state.value})

    def handle(self, req: WireRequest) -> WireResponse:
        """The answer to `req`, carrying the route template it matched (None if none).

        The template, never the raw path, names the route: that carries live tokens.
        """
        route, (status, body, headers, _) = self._route(req)
        return WireResponse(status, body, headers, route)

    def _route(self, req: WireRequest) -> tuple[Optional[str], WireResponse]:
        if req.method == "POST" and req.path == "/login":
            return "/login", self._login(req)
        m = _TOKEN_PATH.fullmatch(req.path)
        if req.method == "GET" and m:
            return "/c/{token}", self._click(req, m.group(1))
        m = _PHOTO_PATH.fullmatch(req.path)
        if req.method == "POST" and m:
            return "/c/{token}/photo", self._photo(req, m.group(1))
        m = _STATUS_PATH.fullmatch(req.path)
        if req.method == "GET" and m:
            return "/session/{id}/status", self._status(m.group(1))
        return None, _error(404, "no-such-endpoint")


# ---------------------------------------------------------------------------
# HTTP shell
# ---------------------------------------------------------------------------

# A connection past this many open ones is answered 503 and closed. The cap
# stays well under the common limit of 1,024 open files per process.
MAX_CONNECTIONS = 256
# A request's head and body must arrive within this long of its first byte.
REQUEST_DEADLINE_S = 10.0
# http.server's limits on a request head: bytes per line, header lines.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100
# The most bytes one read takes from a connection.
RECV_BYTES = 65536
# On stop, answers still unsent this long after it are dropped.
DRAIN_S = 5.0

_VERSION = re.compile(r"HTTP/[0-9]\.[0-9]")
# A request target holds no control character and no space (RFC 9112 §3.2).
_TARGET = re.compile(r"[^\x00-\x20\x7f]+")
_HEADER_LINE = re.compile(r"([!#$%&'*+.^_`|~0-9A-Za-z-]+):[ \t]*([^\r\n\x00]*?)[ \t]*")
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
# The access line is what `json.dumps(line, sort_keys=True)` gives.
_ACCESS_ENCODER = json.JSONEncoder(sort_keys=True)


def _write(text: str) -> None:
    """Write `text` to stderr in one call; a closed or failing stream drops it."""
    try:
        sys.stderr.write(text)
    except (OSError, ValueError):
        pass


class Head(NamedTuple):
    """A request head the shell can frame and route."""

    method: str
    path: str
    headers: dict  # lower-cased names; of a repeated name the last wins
    length: int  # of the body
    keep_alive: bool
    expect_continue: bool


def parse_head(head: bytes) -> Head | WireResponse:
    """Parse the bytes of a request head that precede its blank line.

    What cannot be framed or routed is an error response, after which the
    shell closes the connection. Nothing raises. The head's size limits
    are the connection's to check, line by line as the bytes arrive.
    """
    request_line, *lines = head.decode("latin-1").split("\r\n")
    parts = request_line.split(" ")
    if (len(parts) != 3 or not parts[0] or not _TARGET.fullmatch(parts[1])
            or not _VERSION.fullmatch(parts[2])):
        return _error(400, "bad-request-line")
    method, path, version = parts
    if version[5] != "1":
        return _error(505, "http-version-not-supported")
    headers: dict[str, str] = {}
    for line in lines:
        m = _HEADER_LINE.fullmatch(line)
        if m is None:
            return _error(400, "bad-header")
        name = m[1].lower()
        if name in headers:
            if name == "content-length":
                return _error(400, "bad-content-length")
            if name == "connection":
                # Repeated lines are one list (RFC 9110 section 5.3).
                headers[name] += "," + m[2]
                continue
        headers[name] = m[2]
    # The body is left unread after these, so its bytes cannot be taken
    # for the next request.
    if "transfer-encoding" in headers:
        return _error(411, "length-required")
    raw = headers.get("content-length") or "0"
    if not (raw.isascii() and raw.isdigit()):
        return _error(400, "bad-content-length")
    # int() refuses a string of thousands of digits; such a body is too large.
    length = int(raw) if len(raw) <= 16 else MAX_BODY_BYTES + 1
    if length > MAX_BODY_BYTES:
        return _error(413, "body-too-large")
    # Connection is a list of options (RFC 9110 section 7.6.1): "close"
    # anywhere closes; HTTP/1.0 stays open only when "keep-alive" is listed.
    connection = headers.get("connection")
    options = () if connection is None else [o.strip() for o in connection.lower().split(",")]
    http11 = version[7] != "0"
    return Head(
        method,
        path,
        headers,
        length,
        keep_alive="close" not in options and (http11 or "keep-alive" in options),
        expect_continue=http11 and headers.get("expect", "").lower() == "100-continue",
    )


class HttpServer:
    """`app` served on (host, port) from one `selectors` loop, one object per connection.

    The caller runs `run`, which returns only by an exception such as
    `KeyboardInterrupt`, then may call `drain`, and then calls `close`.
    """

    def __init__(self, app: App, host: str, port: int):
        self.app = app
        self.connections: set[_Connection] = set()
        self._date = (-1, "")
        self.draining = False
        self.sock = socket.create_server((host, port))
        self.sock.setblocking(False)
        self.port = self.sock.getsockname()[1]
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.sock, selectors.EVENT_READ, self._accept)

    def date(self) -> str:
        """The Date header's value, formatted once a second."""
        second = int(time.time())
        if second != self._date[0]:
            t = time.gmtime(second)
            self._date = (second, f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} "
                                  f"{_MONTHS[t.tm_mon - 1]} {t.tm_year} {t.tm_hour:02d}:"
                                  f"{t.tm_min:02d}:{t.tm_sec:02d} GMT")
        return self._date[1]

    def run(self) -> None:
        """Serve: wait for the sockets or the earliest deadline, then act on each."""
        select = self.selector.select
        while True:
            deadline = min((conn.deadline for conn in self.connections), default=None)
            timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
            for key, mask in select(timeout):
                key.data(mask)
            now = time.monotonic()
            for conn in [conn for conn in self.connections if conn.deadline <= now]:
                conn.expire()

    def _accept(self, mask: int) -> None:
        try:
            sock, peer = self.sock.accept()
        except OSError:  # the peer gave up before it was accepted
            return
        # Without it an answer can wait on the peer's delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(self, sock, peer[0])
        if len(self.connections) > MAX_CONNECTIONS:
            conn.write(_error(503, "too-many-connections"), close=True)
        else:
            conn.on_ready(selectors.EVENT_READ)  # the request has often arrived already

    def drain(self) -> None:
        """Stop accepting, answer each request that has fully arrived, close the rest.

        A connection is closed once it has nothing left to send and nothing
        more has arrived on it. What is still unsent after DRAIN_S is left
        for `close` to drop.
        """
        self.selector.unregister(self.sock)
        self.sock.close()
        self.draining = True
        end = time.monotonic() + DRAIN_S
        while True:
            for conn in list(self.connections):
                while not conn.out and conn in self.connections and time.monotonic() < end:
                    conn.on_ready(selectors.EVENT_READ)
            left = end - time.monotonic()
            if not self.connections or left <= 0:
                return
            for key, mask in self.selector.select(left):
                key.data(mask)

    def close(self) -> None:
        """Stop listening and drop every connection."""
        for conn in list(self.connections):
            conn.close()
        self.selector.close()
        self.sock.close()


class _Connection:
    """One client connection: splits requests off the byte stream and answers each.

    `deadline` is the idle timeout between requests and the request
    deadline from a request's first byte. What the peer has not taken yet
    waits in `out`; until it has, the connection reads and answers nothing.
    """

    def __init__(self, server: HttpServer, sock: socket.socket, peer: str):
        self.server = server
        self.sock = sock
        self.peer = peer
        self.buf = bytearray()
        self.out = b""
        self.head: Optional[Head] = None  # read, not yet answered
        # Of the head being read: the lines ended, and where the next line starts.
        self.head_lines = 0
        self.line_start = 0
        self.closing = False  # answer nothing more; close once `out` is sent
        self.deadline = time.monotonic() + IDLE_TIMEOUT_S
        sock.setblocking(False)
        server.connections.add(self)
        server.selector.register(sock, selectors.EVENT_READ, self.on_ready)

    def on_ready(self, mask: int) -> None:
        """Send what is pending or, with nothing pending, read and answer."""
        if self.out:
            self._send(b"")
            if not (self.out or self.closing):
                self._answer_buffered(0)
            return
        try:
            data = self.sock.recv(RECV_BYTES)
        except BlockingIOError:
            if self.server.draining:  # nothing more has arrived
                self.close()
            return
        except OSError:  # reset by the peer
            data = b""
        if not data:
            self.close()
            return
        buf = self.buf
        if self.head is None and not buf:
            self.deadline = time.monotonic() + REQUEST_DEADLINE_S
        # The bytes of an unfinished head have been looked at already.
        searched = len(buf) if self.head is None else 0
        buf += data
        self._answer_buffered(searched)

    def _answer_buffered(self, searched: int) -> None:
        """Answer each complete request in the buffer, in order."""
        buf = self.buf
        while buf and not (self.out or self.closing):
            head = self.head
            if head is None:
                end = self._head_end(searched)
                if end is None:
                    return
                head = end if isinstance(end, WireResponse) else parse_head(bytes(buf[:end]))
                if isinstance(head, WireResponse):
                    self.write(head, close=True)
                    return
                del buf[:end + 4]
                searched = 0
                if head.expect_continue and len(buf) < head.length:
                    self._send(_CONTINUE)
                self.head = head
            if len(buf) < head.length:
                return
            body = buf[:head.length]
            del buf[:head.length]
            self._respond(head, body)
            self.head = None
            self.deadline = time.monotonic() + (REQUEST_DEADLINE_S if buf else IDLE_TIMEOUT_S)

    def _head_end(self, searched: int) -> int | WireResponse | None:
        """Where the head at the front of the buffer ends, before its blank line.

        Measures the head's lines in order, the unfinished last one too, so
        the same head gets the same answer however its bytes arrive: None
        while it is unfinished and within the limits, else the error for
        the first line that breaks one. Only the bytes from `searched` on
        are scanned, so a head sent a byte at a time is not scanned again
        for every byte.
        """
        buf = self.buf
        lines, start = self.head_lines, self.line_start
        end = buf.find(b"\r\n", max(0, searched - 1))
        while True:
            if (len(buf) if end < 0 else end) - start > MAX_LINE_BYTES:
                if lines == 0:
                    return _error(414, "request-line-too-long")
                return _error(431, "header-line-too-long")
            if end < 0:
                self.head_lines, self.line_start = lines, start
                return None
            if end == start and lines:  # the blank line
                self.head_lines = self.line_start = 0
                return end - 2
            lines += 1
            if lines > MAX_HEADERS + 1:
                return _error(431, "too-many-headers")
            start = end + 2
            end = buf.find(b"\r\n", start)

    def _respond(self, head: Head, body: bytearray) -> None:
        """Answer one request; after an answer from the app, write its access line.

        The line follows the answer to the socket, so it never delays it.
        """
        close = not head.keep_alive
        parsed = None
        if body:
            try:
                parsed = json.loads(body)
            except (ValueError, RecursionError):
                self.write(_error(400, "bad-json"), close)
                return
        req = WireRequest(head.method, head.path, head.headers, parsed, self.peer)
        try:
            response = self.server.app.handle(req)
        except Exception:
            import traceback  # loaded on the first failure, not at every start

            _write(f"unhandled error in {head.method} request\n" + traceback.format_exc())
            self.write(_error(500, "internal-error"), close)
            return
        self.write(response, close)
        _write(_ACCESS_ENCODER.encode({
            "method": head.method,
            "path": response.route,
            "status": response.status,
            "body_status": response.body.get("status"),
        }) + "\n")

    def write(self, response: WireResponse, close: bool) -> None:
        """Answer the request being read in one write; with `close`, then close.

        An answer to HEAD leaves out the body and its length (RFC 9110
        sections 9.3.2 and 8.6). Until its head is parsed, the request
        being read starts the buffer.
        """
        bare = self.head.method == "HEAD" if self.head else self.buf.startswith(b"HEAD ")
        body = b"" if bare else response.to_bytes()
        headers = "" if bare else f"Content-Length: {len(body)}\r\n"
        if close:
            headers += "Connection: close\r\n"
            self.closing = True
        for key, value in response.headers.items():
            headers += f"{key}: {value}\r\n"
        self._send(
            f"HTTP/1.1 {response.status} {_PHRASES[response.status]}\r\n"
            f"Date: {self.server.date()}\r\n"
            f"Content-Type: application/json\r\n"
            f"{headers}\r\n".encode("latin-1") + body
        )

    def _send(self, data: bytes) -> None:
        """Send `data` after the pending output, as much as the peer takes now.

        While output is pending the socket is watched for writing only,
        so a peer that reads too slowly stops its own requests being read.
        """
        pending = bool(self.out)
        data = self.out + data
        try:
            sent = self.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:  # the peer has gone
            self.close()
            return
        self.out = data[sent:]
        if self.closing and not self.out:
            self.close()
        elif pending != bool(self.out):
            events = selectors.EVENT_WRITE if self.out else selectors.EVENT_READ
            self.server.selector.modify(self.sock, events, self.on_ready)

    def expire(self) -> None:
        """The deadline has passed: answer 408 to a request under way, or close."""
        if self.closing:  # the peer reads nothing, so the close never ends
            self.close()
        elif self.buf or self.head is not None:
            self.write(_error(408, "request-timeout"), close=True)
        else:
            self.closing = True
            self._send(b"")
        self.deadline = time.monotonic() + REQUEST_DEADLINE_S

    def close(self) -> None:
        """Close the socket now, dropping any output still pending."""
        self.closing = True
        if self in self.server.connections:
            self.server.connections.remove(self)
            self.server.selector.unregister(self.sock)
            self.sock.close()


def _interrupt(mask: int) -> None:
    raise KeyboardInterrupt


def serve(config: Config) -> int:
    """Run the HTTP server until stopped, then drain it (`HttpServer.drain`) and close it.

    Called from the main thread, it stops on SIGTERM and SIGINT, SIGINT
    also where it was inherited as ignored (as a non-interactive shell's
    `&` leaves it). Until it returns, their handlers raise nothing: they
    wake the loop through a socket pair. In any thread it stops on
    `KeyboardInterrupt`. Writes to stderr a `listening` line, one access
    line per answer from the app, the traceback of any request that fails
    and, once closed, a `stopped` line. Returns 0 once stopped; a port it
    cannot bind is one `cannot listen on port P: <error>` line and 2.
    """
    app = App(config)
    try:
        server = HttpServer(app, "0.0.0.0", config.port)
    except OSError as exc:
        _write(f"cannot listen on port {config.port}: {exc}\n")
        return 2
    wake, waker = socket.socketpair()
    waker.setblocking(False)

    def on_signal(signum, frame) -> None:
        try:
            waker.send(b"\0")
        except OSError:  # the pair is full, so the loop is woken already
            pass

    replaced = {}
    try:
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                replaced[signum] = signal.signal(signum, on_signal)
            server.selector.register(wake, selectors.EVENT_READ, _interrupt)
        _write(json.dumps({"event": "listening", "port": server.port,
                           "domain": str(app.store.server_domain)}, sort_keys=True) + "\n")
        try:
            server.run()
        except KeyboardInterrupt:
            pass
        if replaced:
            server.selector.unregister(wake)
        server.drain()
    finally:
        server.close()
        for signum, handler in replaced.items():
            signal.signal(signum, handler)
        wake.close()
        waker.close()
    _write('{"event": "stopped"}\n')
    return 0
