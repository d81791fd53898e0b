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

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .decision import (
    AuthDecision,
    AuthEngine,
    AuthRequest,
    ColocationMode,
    ColocationPolicy,
    DecisionKind,
    LinkClick,
    Notification,
)
from .domain import DomainName, extract_hostname
from .session import Channel, Preference, SessionStore, draw_token_digits
from .synth import (
    DetectorProfile,
    InjectionPlacement,
    LayoutVariant,
    ORACLE_PROFILE,
    Theme,
    generate_layout,
    simulate_detection,
)
from .verify import VerifyConfig

SAFE = "safe"
UNSAFE = "unsafe"

USER = "user-pc"
PHONE = "phone"
SERVER = "server"
PROXY = "proxy"
ADVERSARY = "adversary"


class OutcomeKind(Enum):
    AUTHORIZED = "authorized"
    ATTACK_DETECTED = "attack-detected"
    ATTACK_BLOCKED = "attack-blocked"
    DENIED = "denied"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    detail: Optional[str] = None

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "detail": self.detail}


class LogicalClock:
    """Integer event counter standing in for wall time."""

    def __init__(self):
        self._t = 0

    def now(self) -> float:
        return float(self._t)

    def tick(self) -> int:
        self._t += 1
        return self._t


@dataclass
class MessageLog:
    entries: list[dict] = field(default_factory=list)

    def emit(self, t: int, sender: str, recipient: str, trust: str, kind: str, data: dict) -> None:
        self.entries.append(
            {"t": t, "from": sender, "to": recipient, "link": trust, "kind": kind, "data": data}
        )

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) for e in self.entries
        )


class CookieJar:
    """Per-browser cookie storage honoring the same-origin policy."""

    def __init__(self):
        self._by_origin: dict[str, str] = {}

    def store(self, origin: str, value: str) -> None:
        self._by_origin[origin] = value

    def cookie_for(self, destination: str) -> Optional[str]:
        """Only cookies stored under exactly this origin are attached."""
        return self._by_origin.get(destination)


@dataclass
class Browser:
    name: str
    source: str
    jar: CookieJar = field(default_factory=CookieJar)
    location: Optional[str] = None  # domain currently shown in the address bar


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
        self.jar = CookieJar()

    def rewrite_inbound(self, text: str) -> str:
        return text.replace(self.fake_domain, self.upstream_domain)

    def rewrite_outbound(self, text: str) -> str:
        return text.replace(self.upstream_domain, self.fake_domain)


@dataclass
class Phone:
    source: str
    browser: Browser
    inbox: list[Notification] = field(default_factory=list)
    otp_inbox: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one run: who acts, what happens, what should hold."""

    name: str
    kind: str
    seed: int
    params: dict = field(default_factory=dict)
    expected: Optional[Outcome] = None


@dataclass
class ScenarioReport:
    name: str
    seed: int
    outcome: Outcome
    trail: list[dict] = field(default_factory=list)
    log: MessageLog = field(default_factory=MessageLog)
    photos_taken: int = 0

    def log_jsonl(self) -> str:
        return self.log.to_jsonl()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "outcome": self.outcome.to_dict(),
            "photos_taken": self.photos_taken,
            "decisions": self.trail,
            "messages": len(self.log.entries),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class World:
    """Wiring shared by every scenario: one server, one user, one phone."""

    def __init__(
        self,
        seed: int,
        *,
        server_domain: str = "microsoft.com",
        accept: tuple[str, ...] | None = None,
        username: str = "bob",
        preference: Preference = Preference.SMS,
        policy: ColocationPolicy = ColocationPolicy(ColocationMode.COOKIE_EQUALITY),
        verify_cfg: VerifyConfig = VerifyConfig(),
        token_length: int = 10,
        retake_cap: int = 5,
        ttl_s: float = 1_000_000.0,
        profile: DetectorProfile = ORACLE_PROFILE,
        theme: Theme = Theme.LIGHT,
    ):
        self.rng = random.Random(seed)
        self.clock = LogicalClock()
        self.log = MessageLog()
        self.profile = profile
        self.theme = theme
        self.username = username
        accepted = accept if accept is not None else (server_domain,)
        self.server_name = str(extract_hostname(server_domain))
        self.store = SessionStore(
            extract_hostname(server_domain),
            rng=self.rng,
            clock=self.clock.now,
            ttl_s=ttl_s,
            retake_cap=retake_cap,
        )
        self.engine = AuthEngine(
            self.store,
            users={username: preference},
            accept_set=[extract_hostname(a) for a in accepted],
            policy=policy,
            verify_cfg=verify_cfg,
            token_length=token_length,
        )
        self.user_pc = Browser(USER, source="198.51.100.23")
        self.phone = Phone(source="203.0.113.7", browser=Browser(PHONE, source="203.0.113.7"))
        self.trail: list[dict] = []
        self.owners: dict[str, str] = {}
        self.photos_taken = 0

    # -- bookkeeping --

    def record(self, decision: AuthDecision, acting: str) -> AuthDecision:
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

    def deliver_notifications(self) -> None:
        """Move queued short links to the phone over the safe channel."""
        while self.engine.outbox:
            note = self.engine.outbox.pop(0)
            t = self.clock.tick()
            self.log.emit(
                t, SERVER, PHONE, SAFE, f"{note.preference.value}-link", {"link": note.link}
            )
            self.phone.inbox.append(note)

    # -- scripted actions --

    def login_direct(self, browser: Browser, channel: Channel, owner: str = "user") -> AuthDecision:
        """Credentials sent straight to the real server."""
        browser.location = self.server_name
        cookie = browser.jar.cookie_for(self.server_name)
        t = self.clock.tick()
        self.log.emit(
            t,
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
            self.owners.setdefault(decision.session_id, owner)
            if decision.kind is DecisionKind.LINK_SENT:
                browser.jar.store(self.server_name, decision.cookie)
                self.log.emit(
                    self.clock.tick(), SERVER, browser.name, UNSAFE, "set-cookie",
                    {"origin": self.server_name},
                )
        self.deliver_notifications()
        return self.record(decision, owner)

    def login_via_proxy(self, proxy: RtpProxy, browser: Browser) -> AuthDecision:
        """Credentials typed into the phishing site and relayed upstream."""
        browser.location = proxy.fake_domain
        t = self.clock.tick()
        self.log.emit(
            t, browser.name, PROXY, UNSAFE, "login",
            {"username": self.username, "cookie_attached": False},
        )
        t = self.clock.tick()
        self.log.emit(
            t, PROXY, SERVER, UNSAFE, "login-relayed",
            {"username": self.username, "page": proxy.rewrite_inbound(f"POST {proxy.fake_domain}/login")},
        )
        decision = self.engine.handle_auth_request(
            AuthRequest(self.username, proxy.jar.cookie_for(self.upstream_name(proxy)),
                        proxy.source, Channel.PC_BROWSER)
        )
        if decision.session_id:
            self.owners.setdefault(decision.session_id, ADVERSARY)
            if decision.kind is DecisionKind.LINK_SENT:
                # The server's cookie lands in the proxy's jar under the real
                # origin, then gets replayed to the victim who stores it under
                # the fake origin.
                proxy.jar.store(self.upstream_name(proxy), decision.cookie)
                self.log.emit(
                    self.clock.tick(), SERVER, PROXY, UNSAFE, "set-cookie",
                    {"origin": self.upstream_name(proxy)},
                )
                browser.jar.store(proxy.fake_domain, decision.cookie)
                self.log.emit(
                    self.clock.tick(), PROXY, browser.name, UNSAFE, "set-cookie",
                    {"origin": proxy.fake_domain,
                     "page": proxy.rewrite_outbound(f"Welcome to {self.upstream_name(proxy)}")},
                )
        self.deliver_notifications()
        return self.record(decision, ADVERSARY)

    def upstream_name(self, proxy: RtpProxy) -> str:
        return str(extract_hostname(proxy.upstream_domain))

    def click_link(self) -> AuthDecision:
        """The phone opens the newest short link in its own browser."""
        if not self.phone.inbox:
            raise RuntimeError("no link to click")
        note = self.phone.inbox[-1]
        digits = note.link.rsplit("/", 1)[-1]
        cookie = self.phone.browser.jar.cookie_for(self.server_name)
        t = self.clock.tick()
        self.log.emit(
            t, PHONE, SERVER, SAFE, "link-click",
            {"token": digits, "cookie_attached": cookie is not None},
        )
        decision = self.engine.handle_link_click(
            LinkClick(digits, cookie, self.phone.source)
        )
        return self.record(decision, self.owners.get(decision.session_id or "", "user"))

    def take_photo(
        self,
        display_domain: str,
        *,
        variant: LayoutVariant = LayoutVariant.DEFAULT,
        injected_text: str | None = None,
        injected_placement: InjectionPlacement | None = None,
    ) -> AuthDecision:
        """Photograph the PC screen and upload the analysis."""
        if not self.phone.inbox:
            raise RuntimeError("no pending session to photograph for")
        note = self.phone.inbox[-1]
        digits = note.link.rsplit("/", 1)[-1]
        self.photos_taken += 1
        shown = str(extract_hostname(display_domain))
        layout = generate_layout(
            shown,
            theme=self.theme,
            variant=variant,
            seed=self.rng.getrandbits(32),
            injected_text=injected_text,
            injected_placement=injected_placement,
        )
        analysis = simulate_detection(layout, self.profile, self.rng)
        t = self.clock.tick()
        self.log.emit(
            t, PHONE, SERVER, SAFE, "photo",
            {"token": digits, "displayed": shown, "texts": len(analysis.texts),
             "addrbars": len(analysis.addrbars)},
        )
        decision = self.engine.handle_photo_submission(digits, analysis, source=self.phone.source)
        return self.record(decision, self.owners.get(decision.session_id or "", "user"))

    def photo_flow(self, display_domain: str, max_attempts: int | None = None, **kwargs) -> AuthDecision:
        """Keep photographing until the server stops asking for retakes."""
        cap = max_attempts if max_attempts is not None else self.store.retake_cap + 2
        decision = self.take_photo(display_domain, **kwargs)
        attempts = 1
        while decision.kind is DecisionKind.REQUEST_RETAKE and attempts < cap:
            decision = self.take_photo(display_domain, **kwargs)
            attempts += 1
        return decision


def _adversary_authorized(world: World) -> bool:
    return any(
        d["kind"] == DecisionKind.AUTHORIZE.value and d["owner"] == ADVERSARY
        for d in world.trail
    )


def _finish(world: World, scenario_name: str, seed: int, outcome: Outcome) -> ScenarioReport:
    return ScenarioReport(
        name=scenario_name,
        seed=seed,
        outcome=outcome,
        trail=world.trail,
        log=world.log,
        photos_taken=world.photos_taken,
    )


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def run_benign_login(
    seed: int,
    *,
    detector_profile: DetectorProfile = ORACLE_PROFILE,
    server_domain: str = "microsoft.com",
    accept: tuple[str, ...] | None = None,
    login_device: str = "pc",
    policy: ColocationPolicy = ColocationPolicy(ColocationMode.COOKIE_EQUALITY),
    theme: Theme = Theme.LIGHT,
    max_logins: int = 3,
) -> ScenarioReport:
    """Honest user signs in at the real site.

    With `login_device="phone"` the login and the link click share one
    browser, so colocation passes and no photo is ever taken. Otherwise
    the phone photographs the PC screen, retaking as asked; a denial
    from a badly misread photo starts a fresh login, mirroring a user
    retrying after a false alarm.
    """
    world = World(
        seed,
        server_domain=server_domain,
        accept=accept,
        policy=policy,
        profile=detector_profile,
        theme=theme,
    )
    browser = world.phone.browser if login_device == "phone" else world.user_pc
    channel = Channel.PHONE_BROWSER if login_device == "phone" else Channel.PC_BROWSER

    for _ in range(max_logins):
        decision = world.login_direct(browser, channel)
        if decision.kind is DecisionKind.AUTHORIZE:
            return _finish(world, "benign-login", seed, Outcome(OutcomeKind.AUTHORIZED, "user"))
        if decision.kind is not DecisionKind.LINK_SENT:
            break
        decision = world.click_link()
        if decision.kind is DecisionKind.AUTHORIZE:
            return _finish(world, "benign-login", seed, Outcome(OutcomeKind.AUTHORIZED, "user"))
        if decision.kind is not DecisionKind.REQUIRE_PHOTO:
            break
        decision = world.photo_flow(world.server_name)
        if decision.kind is DecisionKind.AUTHORIZE:
            return _finish(world, "benign-login", seed, Outcome(OutcomeKind.AUTHORIZED, "user"))
        if decision.kind is DecisionKind.FALLBACK:
            return _finish(world, "benign-login", seed, Outcome(OutcomeKind.FALLBACK, None))
        # Denied by a misread photo: loop around and log in again.
    return _finish(world, "benign-login", seed, Outcome(OutcomeKind.DENIED, "photo-verification"))


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
    world = World(seed, server_domain=upstream, profile=detector_profile, theme=theme)
    proxy = RtpProxy(
        str(extract_hostname(fake_domain)), upstream, source="192.0.2.66"
    )
    decision = world.login_via_proxy(proxy, world.user_pc)
    if decision.kind is not DecisionKind.LINK_SENT:
        return _finish(world, "rtp-attack", seed, Outcome(OutcomeKind.ATTACK_BLOCKED, decision.reason))
    decision = world.click_link()
    if decision.kind is DecisionKind.AUTHORIZE:
        return _finish(world, "rtp-attack", seed, Outcome(OutcomeKind.AUTHORIZED, ADVERSARY))
    decision = world.photo_flow(world.user_pc.location or proxy.fake_domain)
    if _adversary_authorized(world):
        return _finish(world, "rtp-attack", seed, Outcome(OutcomeKind.AUTHORIZED, ADVERSARY))
    if decision.kind is DecisionKind.DENY:
        return _finish(world, "rtp-attack", seed, Outcome(OutcomeKind.ATTACK_DETECTED, decision.reason))
    return _finish(world, "rtp-attack", seed, Outcome(OutcomeKind.ATTACK_BLOCKED, "retake-cap"))


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
    world = World(seed, server_domain=upstream)
    proxy = RtpProxy(str(extract_hostname(fake_domain)), upstream, source="192.0.2.66")
    decision = world.login_via_proxy(proxy, world.user_pc)
    if decision.kind is not DecisionKind.LINK_SENT:
        return _finish(
            world, "redirection-attack", seed, Outcome(OutcomeKind.ATTACK_BLOCKED, decision.reason)
        )

    t = world.clock.tick()
    world.log.emit(t, PROXY, USER, UNSAFE, "redirect", {"to": world.server_name})
    world.user_pc.location = world.server_name
    attached = world.user_pc.jar.cookie_for(world.server_name)
    t = world.clock.tick()
    world.log.emit(
        t, USER, SERVER, UNSAFE, "resume",
        {"cookie_attached": attached is not None},
    )
    resume = world.engine.handle_auth_request(
        AuthRequest(None, attached, world.user_pc.source, Channel.PC_BROWSER)
    )
    world.record(resume, "user")
    if resume.kind is DecisionKind.AUTHORIZE or _adversary_authorized(world):
        return _finish(world, "redirection-attack", seed, Outcome(OutcomeKind.AUTHORIZED, ADVERSARY))
    return _finish(
        world, "redirection-attack", seed, Outcome(OutcomeKind.ATTACK_BLOCKED, "no-valid-cookie")
    )


def run_injection_attack(
    seed: int,
    placement: InjectionPlacement | LayoutVariant | str,
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
        placement = {
            "title": InjectionPlacement.TITLE,
            "page-content": InjectionPlacement.PAGE_CONTENT,
            "picture-in-picture": LayoutVariant.PICTURE_IN_PICTURE,
        }[placement]
    world = World(seed, server_domain=upstream, profile=detector_profile)
    proxy = RtpProxy(str(extract_hostname(fake_domain)), upstream, source="192.0.2.66")
    decision = world.login_via_proxy(proxy, world.user_pc)
    if decision.kind is not DecisionKind.LINK_SENT:
        return _finish(
            world, "injection-attack", seed, Outcome(OutcomeKind.ATTACK_BLOCKED, decision.reason)
        )
    decision = world.click_link()
    if decision.kind is DecisionKind.AUTHORIZE:
        return _finish(world, "injection-attack", seed, Outcome(OutcomeKind.AUTHORIZED, ADVERSARY))

    if placement is LayoutVariant.PICTURE_IN_PICTURE:
        decision = world.take_photo(
            proxy.fake_domain,
            variant=LayoutVariant.PICTURE_IN_PICTURE,
            injected_text=world.server_name,
        )
        if _adversary_authorized(world):
            return _finish(world, "injection-attack", seed, Outcome(OutcomeKind.AUTHORIZED, ADVERSARY))
        return _finish(
            world, "injection-attack", seed,
            Outcome(OutcomeKind.ATTACK_BLOCKED, decision.reason or "multiple-addrbars"),
        )

    decision = world.photo_flow(
        proxy.fake_domain,
        injected_text=world.server_name,
        injected_placement=placement,
    )
    if _adversary_authorized(world):
        return _finish(world, "injection-attack", seed, Outcome(OutcomeKind.AUTHORIZED, ADVERSARY))
    if decision.kind is DecisionKind.DENY:
        return _finish(
            world, "injection-attack", seed, Outcome(OutcomeKind.ATTACK_DETECTED, decision.reason)
        )
    return _finish(world, "injection-attack", seed, Outcome(OutcomeKind.ATTACK_BLOCKED, "retake-cap"))


def run_token_bruteforce(
    seed: int,
    *,
    guesses: int = 10_000,
    token_length: int = 10,
    upstream: str = "microsoft.com",
) -> ScenarioReport:
    """Adversary fires random token guesses at one live session.

    Guesses come from their own rng stream; each miss is a deny. The
    scenario succeeds for the adversary only if a guess lands on the one
    live token.
    """
    world = World(seed, server_domain=upstream, token_length=token_length)
    decision = world.login_direct(world.user_pc, Channel.PC_BROWSER)
    assert decision.kind is DecisionKind.LINK_SENT
    guess_rng = random.Random(seed ^ 0x5EED)
    hit = False
    for _ in range(guesses):
        digits = draw_token_digits(token_length, guess_rng)
        t = world.clock.tick()
        result = world.engine.handle_link_click(LinkClick(digits, None, "192.0.2.66"))
        if result.kind is not DecisionKind.DENY:
            world.log.emit(t, ADVERSARY, SERVER, UNSAFE, "token-guess-hit", {"token": digits})
            world.record(result, ADVERSARY)
            hit = True
            break
    t = world.clock.tick()
    world.log.emit(t, ADVERSARY, SERVER, UNSAFE, "token-guessing-done", {"guesses": guesses, "hit": hit})
    if hit or _adversary_authorized(world):
        return _finish(world, "token-bruteforce", seed, Outcome(OutcomeKind.AUTHORIZED, ADVERSARY))
    return _finish(
        world, "token-bruteforce", seed, Outcome(OutcomeKind.ATTACK_BLOCKED, "unknown-token")
    )


def run_otp_baseline(seed: int, *, upstream: str = "microsoft.com") -> ScenarioReport:
    """Classic SMS code under the same proxy: the baseline this system replaces.

    The code travels safely to the phone, but the user types it into the
    page in front of them, which belongs to the proxy. Relaying it wins.
    """
    world = World(seed, server_domain=upstream)
    proxy = RtpProxy("rnicrosoft.com", upstream, source="192.0.2.66")
    world.user_pc.location = proxy.fake_domain

    # Credentials relayed; the baseline server answers with a code, not a link.
    t = world.clock.tick()
    world.log.emit(t, USER, PROXY, UNSAFE, "login", {"username": world.username})
    t = world.clock.tick()
    world.log.emit(t, PROXY, SERVER, UNSAFE, "login-relayed", {"username": world.username})
    otp = f"{world.rng.randrange(10**6):06d}"
    t = world.clock.tick()
    world.log.emit(t, SERVER, PHONE, SAFE, "otp", {"code": otp})
    world.phone.otp_inbox.append(otp)

    # The user reads the code and types it into the fake page.
    typed = world.phone.otp_inbox[-1]
    t = world.clock.tick()
    world.log.emit(t, USER, PROXY, UNSAFE, "otp-entry", {"code": typed})
    t = world.clock.tick()
    world.log.emit(t, PROXY, SERVER, UNSAFE, "otp-relayed", {"code": typed})
    if typed == otp:
        world.trail.append(
            {"kind": DecisionKind.AUTHORIZE.value, "reason": None, "session": None,
             "owner": ADVERSARY, "warning": False}
        )
        return _finish(world, "otp-baseline", seed, Outcome(OutcomeKind.AUTHORIZED, ADVERSARY))
    return _finish(world, "otp-baseline", seed, Outcome(OutcomeKind.ATTACK_BLOCKED, "otp-mismatch"))


# ---------------------------------------------------------------------------
# Declarative scenario files
# ---------------------------------------------------------------------------

_RUNNERS = {
    "benign": run_benign_login,
    "rtp": run_rtp_attack,
    "redirect": run_redirection_attack,
    "inject": run_injection_attack,
    "bruteforce": run_token_bruteforce,
    "otp-baseline": run_otp_baseline,
}


def run_scenario(scenario: Scenario) -> ScenarioReport:
    runner = _RUNNERS.get(scenario.kind)
    if runner is None:
        raise ValueError(f"unknown scenario kind {scenario.kind!r}")
    params = dict(scenario.params)
    if scenario.kind == "inject":
        placement = params.pop("placement", "title")
        report = run_injection_attack(scenario.seed, placement, **params)
    else:
        report = runner(scenario.seed, **params)
    report.name = scenario.name
    return report


def load_scenario(path: str, seed_override: int | None = None) -> Scenario:
    """Read a scenario file: {"name", "kind", "seed", "params", "expected"}."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    expected = None
    if "expected" in obj and obj["expected"] is not None:
        expected = Outcome(OutcomeKind(obj["expected"]["kind"]), obj["expected"].get("detail"))
    return Scenario(
        name=obj.get("name", path),
        kind=obj["kind"],
        seed=seed_override if seed_override is not None else obj.get("seed", 0),
        params=obj.get("params", {}),
        expected=expected,
    )


def matches_expectation(report: ScenarioReport, expected: Outcome | None) -> bool:
    if expected is None:
        return True
    if report.outcome.kind is not expected.kind:
        return False
    return expected.detail is None or report.outcome.detail == expected.detail
