"""Deterministic actor simulation of logins and phishing attempts.

Actors: the authentication server and browsers. The user's PC browser
and phone are browsers, and so is the reverse-proxy phishing site that
relays traffic between victim and server while rewriting domain names.

Two link classes exist. The channel between server and phone (where the
short link and any one-time code travel) is safe; everything the PC
browser touches is unsafe and readable by the adversary when a proxy is
in the path. Only the phone's inbox receives notifications, and only
the phone's link click is labelled safe and owned by the user; any
other browser's click is unsafe and the adversary's.

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

    def login_via_proxy(self, proxy: Browser, fake: str, browser: Browser) -> AuthDecision:
        """Credentials typed into the phishing site at `fake` and relayed upstream.

        The proxy serves a copy of the real site under the canonical name
        `fake`, rewriting names both ways. Cookie values pass through
        unchanged: the server's lands in the proxy's jar under the real
        origin, then gets replayed to the victim, whose browser files it
        under the fake origin.
        """
        self.send(
            browser.name, proxy.name, UNSAFE, "login",
            {"username": self.username, "cookie_attached": False},
        )
        self.send(
            proxy.name, SERVER, UNSAFE, "login-relayed",
            {"username": self.username, "page": f"POST {self.server_name}/login"},
        )
        decision = self.engine.handle_auth_request(
            AuthRequest(self.username, proxy.jar.get(self.server_name),
                        proxy.source, Channel.PC_BROWSER)
        )
        if decision.session_id:
            self.owners.setdefault(decision.session_id, ADVERSARY)
            if decision.kind is DecisionKind.LINK_SENT:
                proxy.jar[self.server_name] = decision.cookie
                self.send(
                    SERVER, proxy.name, UNSAFE, "set-cookie",
                    {"origin": self.server_name},
                )
                browser.jar[fake] = decision.cookie
                self.send(
                    proxy.name, browser.name, UNSAFE, "set-cookie",
                    {"origin": fake, "page": f"Welcome to {fake}"},
                )
        self.deliver_notifications()
        return self.record(decision, ADVERSARY)

    def newest_link_digits(self) -> str:
        """Token digits of the newest short link on the phone."""
        if not self.inbox:
            raise RuntimeError("no short link on the phone")
        return self.inbox[-1].link.rsplit("/", 1)[-1]

    def click(self, browser: Browser, digits: str) -> AuthDecision:
        """`browser` opens the short link of token `digits` with its cookie for the real site.

        The phone's click travels the safe channel and is the user's; any
        other browser's click is unsafe and the adversary's.
        """
        phone = browser is self.phone
        cookie = browser.jar.get(self.server_name)
        self.send(
            browser.name, SERVER, SAFE if phone else UNSAFE, "link-click",
            {"token": digits, "cookie_attached": cookie is not None},
        )
        decision = self.engine.handle_link_click(LinkClick(digits, cookie, browser.source))
        return self.record(decision, "user" if phone else ADVERSARY)

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
        for _ in range(DEFAULT_RETAKE_CAP + 2):
            decision = self.take_photo(display_domain, **layout_args)
            if decision.kind is not DecisionKind.REQUEST_RETAKE:
                break
        return decision


# How a proxy attack ends when it authorizes the adversary.
_ADVERSARY_WON = (OutcomeKind.AUTHORIZED, ADVERSARY)


def _proxy_attack(
    world: World,
    fake_domain: str,
    victim: Callable[[str], tuple[OutcomeKind, Optional[str]]],
    relay_link: bool = False,
) -> ScenarioReport:
    """Relay the victim's login through a phishing proxy, then let `victim` play the rest.

    `victim` is called with the fake site's canonical name. With
    `relay_link` the proxy first clicks the short link that the login
    answer carries (`AuthDecision.token_digits`, the `link` of
    `POST /login`), as a proxy on the wire can.
    """
    proxy = Browser(PROXY, PROXY_SOURCE, {})
    fake = str(extract_hostname(fake_domain))
    decision = world.login_via_proxy(proxy, fake, world.user_pc)
    if decision.kind is not DecisionKind.LINK_SENT:
        return world.finish(OutcomeKind.ATTACK_BLOCKED, decision.reason)
    if relay_link and world.click(proxy, decision.token_digits).kind is DecisionKind.AUTHORIZE:
        return world.finish(*_ADVERSARY_WON)
    return world.finish(*victim(fake))


def _photograph_fake_site(
    world: World, fake: str, placement: InjectionPlacement | LayoutVariant | None
) -> tuple[OutcomeKind, Optional[str]]:
    """The victim clicks the link on the phone and photographs the fake site.

    With a `placement` the page also carries the real domain as decoy
    text. A picture-in-picture page gets exactly one photo: its second
    bar is the attack, so the run ends on that photo's decision.
    """
    if world.click(world.phone, world.newest_link_digits()).kind is DecisionKind.AUTHORIZE:
        return _ADVERSARY_WON
    if placement is LayoutVariant.PICTURE_IN_PICTURE:
        decision = world.take_photo(fake, variant=placement, injected_text=world.server_name)
        if decision.kind is DecisionKind.AUTHORIZE:
            return _ADVERSARY_WON
        return OutcomeKind.ATTACK_BLOCKED, decision.reason or "multiple-addrbars"
    decision = world.photo_flow(
        fake,
        injected_text=world.server_name if placement is not None else None,
        injected_placement=placement,
    )
    if decision.kind is DecisionKind.AUTHORIZE:
        return _ADVERSARY_WON
    if decision.kind is DecisionKind.DENY:
        return OutcomeKind.ATTACK_DETECTED, decision.reason
    return OutcomeKind.ATTACK_BLOCKED, "retake-cap"


def _redirect_and_resume(world: World) -> tuple[OutcomeKind, Optional[str]]:
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
        return _ADVERSARY_WON
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
        decision = world.click(world.phone, world.newest_link_digits())
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
    relay_link: bool = False,
) -> ScenarioReport:
    """Reverse-proxy phishing: victim browses the fake name, proxy relays.

    The victim's screen shows the fake domain (in punycode form when the
    spoof uses lookalike Unicode), so the photo exposes it and the
    pending session is denied. With `relay_link` the proxy also clicks
    the link that the login answer hands it, before the victim does.
    """
    world = World(
        "rtp-attack", seed, server_domain=upstream, profile=detector_profile, theme=theme
    )
    return _proxy_attack(
        world, fake_domain, lambda fake: _photograph_fake_site(world, fake, None), relay_link
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
    return _proxy_attack(world, fake_domain, lambda fake: _redirect_and_resume(world))


def run_injection_attack(
    seed: int,
    placement: str = "title",
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
    if placement not in _PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}: use one of {', '.join(map(repr, _PLACEMENTS))}"
        )
    world = World("injection-attack", seed, server_domain=upstream, profile=detector_profile)
    return _proxy_attack(
        world, fake_domain, lambda fake: _photograph_fake_site(world, fake, _PLACEMENTS[placement])
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
