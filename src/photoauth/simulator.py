"""Deterministic actor simulation of logins and phishing attempts.

Actors: the user's PC browser, the user's phone, the authentication
server, and optionally a reverse-proxy phishing site that relays
traffic between victim and server while rewriting domain names.

Two link classes exist. The channel between server and phone (where the
short link and any one-time code travel) is safe; everything the PC
browser touches is unsafe and readable by the adversary when a proxy is
in the path. The proxy object is wired only to the unsafe side, so
leaking the safe channel to it is a type error in the script, not a
runtime check.

Every run is single-threaded over a logical clock with all randomness
drawn from one seed, so a scenario's message log is byte-identical
across repeats.
"""

from __future__ import annotations

import inspect
import json
import random
from enum import Enum
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

from .decision import (
    AuthDecision,
    AuthEngine,
    AuthRequest,
    DecisionKind,
    LinkClick,
    Notification,
)
from .domain import extract_hostname
from .jsonread import from_json, is_record
from .session import (
    Channel,
    DEFAULT_RETAKE_CAP,
    DEFAULT_TOKEN_LENGTH,
    Preference,
    SessionStore,
    draw_token_digits,
)
from .synth import (
    DetectorProfile,
    InjectionPlacement,
    LayoutVariant,
    ORACLE_PROFILE,
    Theme,
    generate_layout,
    simulate_detection,
)

SAFE = "safe"
UNSAFE = "unsafe"

USER = "user-pc"
PHONE = "phone"
SERVER = "server"
PROXY = "proxy"
ADVERSARY = "adversary"
PROXY_SOURCE = "192.0.2.66"
# A benign user gives up after this many logins denied by misread photos.
MAX_LOGINS = 3


class OutcomeKind(Enum):
    AUTHORIZED = "authorized"
    ATTACK_DETECTED = "attack-detected"
    ATTACK_BLOCKED = "attack-blocked"
    DENIED = "denied"
    FALLBACK = "fallback"


class Outcome(NamedTuple):
    kind: OutcomeKind
    detail: Optional[str] = None

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "detail": self.detail}


class Browser(NamedTuple):
    """One browser and its cookie jar, keyed by origin.

    Same-origin policy: a request carries only the cookie stored under
    exactly its destination's origin, `jar.get(destination)`.
    """

    name: str
    source: str
    jar: dict[str, str]


class RtpProxy:
    """Reverse proxy serving `fake_domain` while relaying to the real site.

    Content is rewritten in both directions so the victim sees a working
    copy of the real site under the fake name. Cookie values pass through
    unchanged; the victim's browser files them under the fake origin.
    """

    def __init__(self, fake_domain: str, upstream_domain: str, source: str):
        self.fake_domain = fake_domain
        self.upstream_domain = upstream_domain
        self.source = source
        self.jar: dict[str, str] = {}

    def rewrite_inbound(self, text: str) -> str:
        return text.replace(self.fake_domain, self.upstream_domain)

    def rewrite_outbound(self, text: str) -> str:
        return text.replace(self.upstream_domain, self.fake_domain)


class Scenario(NamedTuple):
    """Declarative description of one run: who acts, what happens, what should hold."""

    name: str
    kind: str
    seed: int
    # Read from JSON as a dict; the default is a read-only view.
    params: dict = MappingProxyType({})
    expected: Optional[Outcome] = None


class ScenarioReport(NamedTuple):
    name: str
    seed: int
    outcome: Outcome
    trail: list[dict]
    log: list[dict]
    photos_taken: int

    def log_jsonl(self) -> str:
        return "\n".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) for e in self.log
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "outcome": self.outcome.to_dict(),
            "photos_taken": self.photos_taken,
            "decisions": self.trail,
            "messages": len(self.log),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class World:
    """Wiring shared by every scenario: one server, one user, one phone.

    `t` is the logical clock, an event counter standing in for wall time;
    `inbox` holds the short links the phone has received.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        *,
        server_domain: str = "microsoft.com",
        profile: DetectorProfile = ORACLE_PROFILE,
        theme: Theme = Theme.LIGHT,
    ):
        self.name = name
        self.seed = seed
        self.rng = random.Random(seed)
        self.t = 0
        self.log: list[dict] = []
        self.profile = profile
        self.theme = theme
        self.username = "bob"
        self.server_name = str(extract_hostname(server_domain))
        self.store = SessionStore(
            extract_hostname(server_domain),
            rng=self.rng,
            clock=lambda: float(self.t),
            ttl_s=1_000_000.0,  # nothing expires within a scenario
        )
        self.engine = AuthEngine(
            self.store,
            users={self.username: Preference.SMS},
            accept_set=[extract_hostname(server_domain)],
        )
        self.user_pc = Browser(USER, "198.51.100.23", {})
        self.phone = Browser(PHONE, "203.0.113.7", {})
        self.inbox: list[Notification] = []
        self.trail: list[dict] = []
        self.owners: dict[str, str] = {}
        self.photos_taken = 0

    # -- bookkeeping --

    def finish(self, kind: OutcomeKind, detail: str | None = None) -> ScenarioReport:
        return ScenarioReport(
            name=self.name,
            seed=self.seed,
            outcome=Outcome(kind, detail),
            trail=self.trail,
            log=self.log,
            photos_taken=self.photos_taken,
        )

    def record(self, decision: AuthDecision, acting: str) -> AuthDecision:
        """Append a decision to the trail, owned by its session's creator if known."""
        owner = self.owners.get(decision.session_id or "", acting)
        self.trail.append(
            {
                "kind": decision.kind.value,
                "reason": decision.reason,
                "session": decision.session_id,
                "owner": owner,
                "warning": decision.warning,
            }
        )
        return decision

    def send(
        self, sender: str, recipient: str, trust: str, kind: str, data: dict, *, tick: bool = True
    ) -> None:
        """Log one message; it advances the logical clock by one unless `tick` is False."""
        if tick:
            self.t += 1
        self.log.append(
            {"t": self.t, "from": sender, "to": recipient, "link": trust, "kind": kind,
             "data": data}
        )

    def deliver_notifications(self) -> None:
        """Move queued short links to the phone over the safe channel."""
        while self.engine.outbox:
            note = self.engine.outbox.popleft()
            self.send(
                SERVER, PHONE, SAFE, f"{note.preference.value}-link", {"link": note.link}
            )
            self.inbox.append(note)

    # -- scripted actions --

    def login_direct(self, browser: Browser, channel: Channel) -> AuthDecision:
        """Credentials sent straight to the real server."""
        cookie = browser.jar.get(self.server_name)
        self.send(
            browser.name,
            SERVER,
            UNSAFE,
            "login",
            {"username": self.username, "cookie_attached": cookie is not None,
             "cookie_origin": self.server_name if cookie is not None else None},
        )
        decision = self.engine.handle_auth_request(
            AuthRequest(self.username, cookie, browser.source, channel)
        )
        if decision.session_id:
            self.owners.setdefault(decision.session_id, "user")
            if decision.kind is DecisionKind.LINK_SENT:
                browser.jar[self.server_name] = decision.cookie
                self.send(
                    SERVER, browser.name, UNSAFE, "set-cookie",
                    {"origin": self.server_name},
                )
        self.deliver_notifications()
        return self.record(decision, "user")

    def login_via_proxy(self, proxy: RtpProxy, browser: Browser) -> AuthDecision:
        """Credentials typed into the phishing site and relayed upstream."""
        self.send(
            browser.name, PROXY, UNSAFE, "login",
            {"username": self.username, "cookie_attached": False},
        )
        self.send(
            PROXY, SERVER, UNSAFE, "login-relayed",
            {"username": self.username, "page": proxy.rewrite_inbound(f"POST {proxy.fake_domain}/login")},
        )
        decision = self.engine.handle_auth_request(
            AuthRequest(self.username, proxy.jar.get(self.server_name),
                        proxy.source, Channel.PC_BROWSER)
        )
        if decision.session_id:
            self.owners.setdefault(decision.session_id, ADVERSARY)
            if decision.kind is DecisionKind.LINK_SENT:
                # The server's cookie lands in the proxy's jar under the real
                # origin, then gets replayed to the victim who stores it under
                # the fake origin.
                proxy.jar[self.server_name] = decision.cookie
                self.send(
                    SERVER, PROXY, UNSAFE, "set-cookie",
                    {"origin": self.server_name},
                )
                browser.jar[proxy.fake_domain] = decision.cookie
                self.send(
                    PROXY, browser.name, UNSAFE, "set-cookie",
                    {"origin": proxy.fake_domain,
                     "page": proxy.rewrite_outbound(f"Welcome to {self.server_name}")},
                )
        self.deliver_notifications()
        return self.record(decision, ADVERSARY)

    def newest_link_digits(self) -> str:
        """Token digits of the newest short link on the phone."""
        if not self.inbox:
            raise RuntimeError("no short link on the phone")
        return self.inbox[-1].link.rsplit("/", 1)[-1]

    def click_link(self) -> AuthDecision:
        """The phone opens the newest short link in its own browser."""
        digits = self.newest_link_digits()
        cookie = self.phone.jar.get(self.server_name)
        self.send(
            PHONE, SERVER, SAFE, "link-click",
            {"token": digits, "cookie_attached": cookie is not None},
        )
        decision = self.engine.handle_link_click(
            LinkClick(digits, cookie, self.phone.source)
        )
        return self.record(decision, "user")

    def take_photo(self, display_domain: str, **layout_args) -> AuthDecision:
        """Photograph the PC screen and upload the analysis.

        `layout_args` (variant, injected text and placement) go to `generate_layout`.
        """
        digits = self.newest_link_digits()
        self.photos_taken += 1
        shown = str(extract_hostname(display_domain))
        layout = generate_layout(
            shown, theme=self.theme, seed=self.rng.getrandbits(32), **layout_args
        )
        analysis = simulate_detection(layout, self.profile, self.rng)
        self.send(
            PHONE, SERVER, SAFE, "photo",
            {"token": digits, "displayed": shown, "texts": len(analysis.texts),
             "addrbars": len(analysis.addrbars)},
        )
        decision = self.engine.handle_photo_submission(digits, analysis, source=self.phone.source)
        return self.record(decision, "user")

    def photo_flow(self, display_domain: str, **layout_args) -> AuthDecision:
        """Keep photographing until the server stops asking for retakes."""
        cap = DEFAULT_RETAKE_CAP + 2
        decision = self.take_photo(display_domain, **layout_args)
        attempts = 1
        while decision.kind is DecisionKind.REQUEST_RETAKE and attempts < cap:
            decision = self.take_photo(display_domain, **layout_args)
            attempts += 1
        return decision


# How a proxy attack that authorized nobody ends; None when it authorized the adversary.
_Ending = Optional[tuple[OutcomeKind, Optional[str]]]


def _proxy_attack(
    world: World, fake_domain: str, upstream: str, victim: Callable[[RtpProxy], _Ending]
) -> ScenarioReport:
    """Relay the victim's login through a phishing proxy, then let `victim` play the rest."""
    proxy = RtpProxy(str(extract_hostname(fake_domain)), upstream, source=PROXY_SOURCE)
    decision = world.login_via_proxy(proxy, world.user_pc)
    if decision.kind is not DecisionKind.LINK_SENT:
        return world.finish(OutcomeKind.ATTACK_BLOCKED, decision.reason)
    ending = victim(proxy)
    if ending is None:
        return world.finish(OutcomeKind.AUTHORIZED, ADVERSARY)
    return world.finish(*ending)


def _photograph_fake_site(
    world: World, proxy: RtpProxy, placement: InjectionPlacement | LayoutVariant | None
) -> _Ending:
    """The victim clicks the link on the phone and photographs the fake site.

    With a `placement` the page also carries the real domain as decoy
    text. A picture-in-picture page gets exactly one photo: its second
    bar is the attack, so the run ends on that photo's decision.
    """
    if world.click_link().kind is DecisionKind.AUTHORIZE:
        return None
    if placement is LayoutVariant.PICTURE_IN_PICTURE:
        decision = world.take_photo(
            proxy.fake_domain, variant=placement, injected_text=world.server_name
        )
        if decision.kind is DecisionKind.AUTHORIZE:
            return None
        return OutcomeKind.ATTACK_BLOCKED, decision.reason or "multiple-addrbars"
    decision = world.photo_flow(
        proxy.fake_domain,
        injected_text=world.server_name if placement is not None else None,
        injected_placement=placement,
    )
    if decision.kind is DecisionKind.AUTHORIZE:
        return None
    if decision.kind is DecisionKind.DENY:
        return OutcomeKind.ATTACK_DETECTED, decision.reason
    return OutcomeKind.ATTACK_BLOCKED, "retake-cap"


def _redirect_and_resume(world: World) -> _Ending:
    """The proxy bounces the victim to the real site, where the browser tries to resume."""
    world.send(PROXY, USER, UNSAFE, "redirect", {"to": world.server_name})
    attached = world.user_pc.jar.get(world.server_name)
    world.send(
        USER, SERVER, UNSAFE, "resume",
        {"cookie_attached": attached is not None},
    )
    resume = world.engine.handle_auth_request(
        AuthRequest(None, attached, world.user_pc.source, Channel.PC_BROWSER)
    )
    world.record(resume, "user")
    if resume.kind is DecisionKind.AUTHORIZE:
        return None
    return OutcomeKind.ATTACK_BLOCKED, "no-valid-cookie"


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def run_benign_login(
    seed: int,
    *,
    detector_profile: DetectorProfile = ORACLE_PROFILE,
    server_domain: str = "microsoft.com",
    login_device: str = "pc",
    theme: Theme = Theme.LIGHT,
) -> ScenarioReport:
    """Honest user signs in at the real site.

    With `login_device="phone"` the login and the link click share one
    browser, so colocation passes and no photo is ever taken. Otherwise
    the phone photographs the PC screen, retaking as asked; a denial
    from a badly misread photo starts a fresh login, mirroring a user
    retrying after a false alarm.
    """
    world = World(
        "benign-login",
        seed,
        server_domain=server_domain,
        profile=detector_profile,
        theme=theme,
    )
    browser = world.phone if login_device == "phone" else world.user_pc
    channel = Channel.PHONE_BROWSER if login_device == "phone" else Channel.PC_BROWSER

    for _ in range(MAX_LOGINS):
        decision = world.login_direct(browser, channel)
        if decision.kind is DecisionKind.AUTHORIZE:
            return world.finish(OutcomeKind.AUTHORIZED, "user")
        if decision.kind is not DecisionKind.LINK_SENT:
            break
        decision = world.click_link()
        if decision.kind is DecisionKind.AUTHORIZE:
            return world.finish(OutcomeKind.AUTHORIZED, "user")
        if decision.kind is not DecisionKind.REQUIRE_PHOTO:
            break
        decision = world.photo_flow(world.server_name)
        if decision.kind is DecisionKind.AUTHORIZE:
            return world.finish(OutcomeKind.AUTHORIZED, "user")
        if decision.kind is DecisionKind.FALLBACK:
            return world.finish(OutcomeKind.FALLBACK)
        # Denied by a misread photo: loop around and log in again.
    return world.finish(OutcomeKind.DENIED, "photo-verification")


def run_rtp_attack(
    seed: int,
    *,
    fake_domain: str = "rnicrosoft.com",
    upstream: str = "microsoft.com",
    detector_profile: DetectorProfile = ORACLE_PROFILE,
    theme: Theme = Theme.LIGHT,
) -> ScenarioReport:
    """Reverse-proxy phishing: victim browses the fake name, proxy relays.

    The victim's screen shows the fake domain (in punycode form when the
    spoof uses lookalike Unicode), so the photo exposes it and the
    pending session is denied.
    """
    world = World(
        "rtp-attack", seed, server_domain=upstream, profile=detector_profile, theme=theme
    )
    return _proxy_attack(
        world, fake_domain, upstream, lambda proxy: _photograph_fake_site(world, proxy, None)
    )


def run_redirection_attack(
    seed: int,
    *,
    fake_domain: str = "rnicrosoft.com",
    upstream: str = "microsoft.com",
) -> ScenarioReport:
    """Harvest credentials, then bounce the victim to the real site.

    The stolen session cookie sits in the victim's jar under the fake
    origin, so the browser never presents it to the real server and the
    pending session cannot be continued from the victim's side.
    """
    world = World("redirection-attack", seed, server_domain=upstream)
    return _proxy_attack(
        world, fake_domain, upstream, lambda proxy: _redirect_and_resume(world)
    )


def run_injection_attack(
    seed: int,
    placement: InjectionPlacement | LayoutVariant | str = "title",
    *,
    fake_domain: str = "rnicrosoft.com",
    upstream: str = "microsoft.com",
    detector_profile: DetectorProfile = ORACLE_PROFILE,
) -> ScenarioReport:
    """Phishing page carrying the real domain as decoy text.

    Placements "title" and "page-content" write the real domain outside
    the address bar; those regions have zero cover rate, so the photo
    still exposes the fake domain. "picture-in-picture" draws a second
    address bar, which trips the multiple-bars rejection instead.
    """
    if isinstance(placement, str):
        placement = _PLACEMENTS[placement]
    world = World("injection-attack", seed, server_domain=upstream, profile=detector_profile)
    return _proxy_attack(
        world, fake_domain, upstream, lambda proxy: _photograph_fake_site(world, proxy, placement)
    )


def run_token_bruteforce(
    seed: int,
    *,
    guesses: int = 10_000,
    upstream: str = "microsoft.com",
) -> ScenarioReport:
    """Adversary fires random token guesses at one live session.

    Guesses come from their own rng stream; each miss is a deny. The
    scenario succeeds for the adversary only if a guess lands on the one
    live token.
    """
    world = World("token-bruteforce", seed, server_domain=upstream)
    decision = world.login_direct(world.user_pc, Channel.PC_BROWSER)
    assert decision.kind is DecisionKind.LINK_SENT
    guess_rng = random.Random(seed ^ 0x5EED)
    hit = False
    for _ in range(guesses):
        digits = draw_token_digits(DEFAULT_TOKEN_LENGTH, guess_rng)
        world.t += 1
        result = world.engine.handle_link_click(LinkClick(digits, None, PROXY_SOURCE))
        if result.kind is not DecisionKind.DENY:
            world.send(ADVERSARY, SERVER, UNSAFE, "token-guess-hit", {"token": digits}, tick=False)
            world.record(result, ADVERSARY)
            hit = True
            break
    world.send(ADVERSARY, SERVER, UNSAFE, "token-guessing-done", {"guesses": guesses, "hit": hit})
    if hit:
        return world.finish(OutcomeKind.AUTHORIZED, ADVERSARY)
    return world.finish(OutcomeKind.ATTACK_BLOCKED, "unknown-token")


def run_otp_baseline(seed: int, *, upstream: str = "microsoft.com") -> ScenarioReport:
    """Classic SMS code under the same proxy: the baseline this system replaces.

    The code travels safely to the phone, but the user types it into the
    page in front of them, which belongs to the proxy. Relaying it wins.
    """
    world = World("otp-baseline", seed, server_domain=upstream)

    # Credentials relayed; the baseline server answers with a code, not a link.
    world.send(USER, PROXY, UNSAFE, "login", {"username": world.username})
    world.send(PROXY, SERVER, UNSAFE, "login-relayed", {"username": world.username})
    otp = f"{world.rng.randrange(10**6):06d}"
    world.send(SERVER, PHONE, SAFE, "otp", {"code": otp})

    # The user reads the code off the phone and types it into the fake
    # page; the relayed code is the one the server sent, so it is accepted.
    world.send(USER, PROXY, UNSAFE, "otp-entry", {"code": otp})
    world.send(PROXY, SERVER, UNSAFE, "otp-relayed", {"code": otp})
    world.record(AuthDecision(DecisionKind.AUTHORIZE), ADVERSARY)
    return world.finish(OutcomeKind.AUTHORIZED, ADVERSARY)


# ---------------------------------------------------------------------------
# Declarative scenario files
# ---------------------------------------------------------------------------

_PLACEMENTS = {
    "title": InjectionPlacement.TITLE,
    "page-content": InjectionPlacement.PAGE_CONTENT,
    "picture-in-picture": LayoutVariant.PICTURE_IN_PICTURE,
}

_RUNNERS = {
    "benign": run_benign_login,
    "rtp": run_rtp_attack,
    "redirect": run_redirection_attack,
    "inject": run_injection_attack,
    "bruteforce": run_token_bruteforce,
    "otp-baseline": run_otp_baseline,
}


def _runner(kind: str) -> Callable[..., ScenarioReport]:
    if not isinstance(kind, str) or kind not in _RUNNERS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    return _RUNNERS[kind]


def run_scenario(scenario: Scenario) -> ScenarioReport:
    report = _runner(scenario.kind)(scenario.seed, **scenario.params)
    return ScenarioReport(scenario.name, *report[1:])


def load_scenario(path: str, seed_override: int | None = None) -> Scenario:
    """Read a scenario file: {"name", "kind", "seed", "params", "expected"}.

    Each param is read as its runner's annotation types it. Raises
    ValueError for an unknown kind, a param its runner does not take or a
    value of the wrong type.
    """
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("a scenario must be a JSON object")
    if seed_override is not None:
        obj["seed"] = seed_override
    scenario = from_json(Scenario, {"name": path, "seed": 0, **obj}, "scenario")
    accepted = inspect.signature(_runner(scenario.kind), eval_str=True).parameters
    params = {}
    for key, value in scenario.params.items():
        if key == "seed" or key not in accepted:
            raise ValueError(f"scenario kind {scenario.kind!r} takes no param {key!r}")
        tp = accepted[key].annotation
        if is_record(tp):
            raise ValueError(f"param {key!r} cannot be set from a scenario file")
        params[key] = from_json(tp, value, f"scenario.params.{key}")
    return Scenario(scenario.name, scenario.kind, scenario.seed, params, scenario.expected)


def matches_expectation(report: ScenarioReport, expected: Outcome | None) -> bool:
    if expected is None:
        return True
    if report.outcome.kind is not expected.kind:
        return False
    return expected.detail is None or report.outcome.detail == expected.detail
