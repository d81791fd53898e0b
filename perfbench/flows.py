"""The login flow mix of the HTTP workload.

A flow is one user's walk through the service: log in, open the short
link, maybe upload photos. Each step's response is checked against the
scripted expectation below; a transport carries the requests and times
them.
"""

from __future__ import annotations

import collections
import random
import re
import threading

from photoauth.domain import confusable_mutate, extract_hostname
from photoauth.session import DEFAULT_RETAKE_CAP
from photoauth.synth import (
    DEFAULT_CONFUSABLE_RULES,
    ORACLE_PROFILE,
    AddrbarModel,
    DetectorProfile,
    LayoutVariant,
    Theme,
    generate_layout,
    simulate_detection,
)
from photoauth.verify import analysis_to_dict

SERVER_DOMAINS = ("microsoft.com", "login.live.com", "bücher.de")
USERS = tuple(f"user{i:02d}" for i in range(64))

# Flow kinds and their weights in percent. Genuine flows are about 40%;
# with no traffic data to go on, the other kinds share the rest equally.
MIX = (
    ("genuine", 40),     # remote click, genuine photo -> authorized
    ("colocated", 10),   # click carries the login cookie -> authorized, no photo
    ("lookalike", 10),   # remote click, lookalike-domain photo -> denied, warning
    ("unreadable", 10),  # unreadable photo -> retake -> genuine photo
    ("two_bars", 10),    # two address bars -> multiple-addrbars retake -> genuine
    ("returning", 10),   # login with an authorized cookie -> shortcut
    ("poll", 10),        # GET /session/{id}/status
)
PHOTOS_PER_KIND = 48

# A detector that never finds the address bar: the photo is unreadable.
BLIND_PROFILE = DetectorProfile(addrbar=AddrbarModel(oracle=False, miss_prob=1.0))

_LINK = re.compile(r"/c/(\d{6,12})\Z")
_SET_COOKIE = re.compile(r"auth=([0-9a-f]{32});")

# Expected (status, body) per step, given the flow's context.
EXPECTED = {
    "click_colocated": lambda c: (200, {"status": "authorized"}),
    "click_remote": lambda c: (200, {"status": "photo-required", "upload": f"/c/{c['digits']}/photo"}),
    "photo_genuine": lambda c: (200, {"status": "authorized"}),
    "photo_lookalike": lambda c: (
        200,
        {"status": "denied", "reason": "phishing-detected", "warning": True},
    ),
    "photo_unreadable": lambda c: (
        200,
        {"status": "retake", "reason": "unreadable", "warning": False,
         "retakes_left": DEFAULT_RETAKE_CAP - 1},
    ),
    "photo_two_bars": lambda c: (
        200,
        {"status": "retake", "reason": "multiple-addrbars", "warning": True,
         "retakes_left": DEFAULT_RETAKE_CAP - 1},
    ),
    "returning": lambda c: (200, {"status": "authorized", "session_id": c["session_id"]}),
    "poll": lambda c: (200, {"status": c["state"]}),
}
GUESS_ANSWERS = (
    (403, {"status": "denied", "reason": "unknown-token"}),
    (429, {"status": "error", "reason": "rate-limited"}),
)


class SecurityViolation(Exception):
    """A lookalike-domain photo was answered with an authorization."""


def _photo(rng, shown: str, theme: Theme, profile=ORACLE_PROFILE,
           variant=LayoutVariant.DEFAULT) -> dict:
    layout = generate_layout(shown, theme, variant, rng.getrandbits(32))
    return analysis_to_dict(simulate_detection(layout, profile, random.Random(rng.getrandbits(32))))


def build_photos(seed: int) -> dict[str, list[dict]]:
    """Photo analyses per kind, made by the program's own synthetic pipeline."""
    rng = random.Random(seed)
    photos: dict[str, list[dict]] = {"genuine": [], "lookalike": [], "unreadable": [], "two_bars": []}
    genuine_names = {extract_hostname(d) for d in SERVER_DOMAINS}
    for i in range(PHOTOS_PER_KIND):
        domain = SERVER_DOMAINS[i % len(SERVER_DOMAINS)]
        theme = Theme.DARK if rng.random() < 0.5 else Theme.LIGHT
        photos["genuine"].append(_photo(rng, domain, theme))
        photos["unreadable"].append(_photo(rng, domain, theme, profile=BLIND_PROFILE))
        photos["two_bars"].append(
            _photo(rng, domain, theme, variant=LayoutVariant.PICTURE_IN_PICTURE)
        )
        # Lookalikes of the two names the confusable rules apply to.
        fake = confusable_mutate(extract_hostname(SERVER_DOMAINS[i % 2]), DEFAULT_CONFUSABLE_RULES, rng)
        if fake in genuine_names:
            raise RuntimeError(f"lookalike {fake} equals a served domain")
        photos["lookalike"].append(_photo(rng, str(fake), theme))
    return photos


class FlowMix:
    """Deterministic stream of flows for one seed, and the checks on them.

    `send(method, path, body, cookie, source)` returns
    `(status, body, set_cookie)`. Shared state (recently completed
    sessions, issued tokens) is guarded by a lock so two client threads
    can run flows at once.
    """

    def __init__(self, seed: int, photos: dict[str, list[dict]]):
        self.rng = random.Random(seed ^ 0x5EED)
        self.photos = photos
        self.kinds = [k for k, _ in MIX]
        self.weights = [w for _, w in MIX]
        self.lock = threading.Lock()
        self.recent = collections.deque(maxlen=64)  # (session_id, cookie, state)
        # Tokens issued so far, so that a guess never names a real one.
        self.tokens: set[str] = set()
        self.failures: list[tuple] = []

    def forget_sessions(self) -> None:
        """Drop the sessions to return to or poll, for a fresh server."""
        with self.lock:
            self.recent.clear()

    # -- script --

    def next_flow(self) -> tuple[str, str, int, int]:
        """(kind, user, photo index, choice among recent sessions)."""
        with self.lock:
            kind = self.rng.choices(self.kinds, self.weights)[0]
            return (
                kind,
                USERS[self.rng.randrange(len(USERS))],
                self.rng.randrange(PHOTOS_PER_KIND),
                self.rng.randrange(1 << 30),
            )

    def guess_digits(self, rng: random.Random) -> str:
        while True:
            digits = f"{rng.randrange(10**10):010d}"
            with self.lock:
                if digits not in self.tokens:
                    return digits

    # -- checks --

    def _check(self, step: str, got_status: int, got_body: dict, ctx: dict) -> bool:
        want_status, want_body = EXPECTED[step](ctx)
        if got_status == want_status and got_body == want_body:
            return True
        if step == "photo_lookalike" and got_body.get("status") == "authorized":
            raise SecurityViolation(f"lookalike photo authorized: {got_body}")
        self.failures.append((step, (want_status, want_body), (got_status, got_body)))
        return False

    def check_guess(self, status: int, body: dict) -> bool:
        if (status, body) in GUESS_ANSWERS:
            return True
        self.failures.append(("guess", GUESS_ANSWERS, (status, body)))
        return False

    def _login(self, send, user, source) -> dict | None:
        status, body, set_cookie = send("POST", "/login", {"username": user}, None, source)
        link = _LINK.match(str(body.get("link", "")))
        cookie = _SET_COOKIE.match(set_cookie or "")
        if (
            status != 200
            or set(body) != {"status", "session_id", "link"}
            or body["status"] != "link-sent"
            or link is None
            or cookie is None
        ):
            self.failures.append(("login", "link-sent", (status, body, set_cookie)))
            return None
        with self.lock:
            self.tokens.add(link.group(1))
        return {"digits": link.group(1), "cookie": cookie.group(1), "session_id": body["session_id"]}

    def _photo(self, send, ctx, kind, index, source) -> tuple[int, dict]:
        body = self.photos[kind][index]
        status, resp, _ = send("POST", f"/c/{ctx['digits']}/photo", body, None, source)
        return status, resp

    def _finish(self, ctx, state):
        with self.lock:
            self.recent.append((ctx["session_id"], ctx["cookie"], state))

    # -- flows --

    def run(self, send, flow: tuple[str, str, int, int], source: str) -> bool:
        """Run one flow; True when every response matched its expectation."""
        kind, user, index, pick = flow
        if kind in ("returning", "poll"):
            with self.lock:
                candidates = [r for r in self.recent if kind == "poll" or r[2] == "authorized"]
                chosen = candidates[pick % len(candidates)] if candidates else None
            if chosen is None:
                kind = "genuine"  # nothing completed yet to return to or poll
            elif kind == "returning":
                session_id, cookie, _ = chosen
                status, body, _ = send("POST", "/login", {"username": user}, cookie, source)
                return self._check("returning", status, body, {"session_id": session_id})
            else:
                session_id, _, state = chosen
                status, body, _ = send("GET", f"/session/{session_id}/status", None, None, source)
                return self._check("poll", status, body, {"state": state})

        ctx = self._login(send, user, source)
        if ctx is None:
            return False
        if kind == "colocated":
            status, body, _ = send("GET", f"/c/{ctx['digits']}", None, ctx["cookie"], source)
            ok = self._check("click_colocated", status, body, ctx)
            self._finish(ctx, "authorized")
            return ok
        status, body, _ = send("GET", f"/c/{ctx['digits']}", None, None, source)
        if not self._check("click_remote", status, body, ctx):
            return False
        if kind == "lookalike":
            status, body = self._photo(send, ctx, "lookalike", index, source)
            ok = self._check("photo_lookalike", status, body, ctx)
            self._finish(ctx, "denied")
            return ok
        if kind in ("unreadable", "two_bars"):
            status, body = self._photo(send, ctx, kind, index, source)
            if not self._check(f"photo_{kind}", status, body, ctx):
                return False
        status, body = self._photo(send, ctx, "genuine", index, source)
        ok = self._check("photo_genuine", status, body, ctx)
        self._finish(ctx, "authorized")
        return ok
