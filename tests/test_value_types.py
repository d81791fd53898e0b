"""The value types are named tuples that behave as the dataclasses did.

Each type is built side by side with its reference in `_oracles`: the same
fields must be accepted or refused alike, with the same exception type and
message, and an accepted value must have the same `repr` and `hash`.
"""

import copy
import importlib
import inspect
import math
import os
import pickle
import pkgutil
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from photoauth.decision import (
    AuthDecision,
    AuthRequest,
    ColocationMode,
    ColocationPolicy,
    DecisionKind,
    LinkClick,
    Notification,
)
from photoauth.domain import DomainName, extract_hostname
from photoauth.geometry import BoundingBox, Resolution
from photoauth.jsonread import is_record
from photoauth.service import Config, WireRequest, WireResponse
from photoauth.session import Channel, Cookie, Preference, Session, SessionState
from photoauth.simulator import Outcome, OutcomeKind, Scenario
from photoauth.synth import (
    AddrbarModel,
    BarTruth,
    BrowserLayout,
    DetectorProfile,
    EvalCounts,
    EvalReport,
    GeneratorParams,
    LayoutVariant,
    OcrModel,
    Theme,
)
from photoauth.verify import (
    AddressBarPrediction,
    ExtractionKind,
    ExtractionOutcome,
    PhotoAnalysis,
    TextRegion,
    VerdictKind,
    VerifyConfig,
    VerifyResult,
)

from _oracles import (
    OldAddressBarPrediction,
    OldBarTruth,
    OldBoundingBox,
    OldBrowserLayout,
    OldEvalCounts,
    OldEvalReport,
    OldExtractionOutcome,
    OldPhotoAnalysis,
    OldTextRegion,
    OldVerifyResult,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "photoauth")

# Numbers at and around every edge the checks draw, and what is no number.
EDGES = st.sampled_from([0, 0.0, -0.0, 1, -1, 0.5, 1.0, 1.5, True, False,
                         math.nan, math.inf, -math.inf, 1e308, -1e-300])
NUMBERS = st.one_of(EDGES, st.floats(), st.integers(-3, 70))
ANYTHING = st.one_of(NUMBERS, st.none(), st.text(max_size=2), st.binary(max_size=2))
TEXTS = st.one_of(st.text(max_size=3), st.sampled_from(["", "microsoft.com"]),
                  st.integers(-1, 1), st.booleans(), st.none(), st.binary(max_size=2))
# Small boxes on a small screen, so that many fall partly outside it.
COORDS = st.one_of(st.integers(0, 40), st.sampled_from([-0.0, 0.5, 39.5]))
SIZES = st.one_of(st.integers(1, 40), st.sampled_from([0.25, 40.0]))
BOX_FIELDS = st.tuples(COORDS, COORDS, SIZES, SIZES)
RESOLUTIONS = st.builds(Resolution, st.integers(1, 48), st.integers(1, 48))


def outcome(build, *args):
    """What building gives: its repr and hash, or its exception's type and message."""
    try:
        value = build(*args)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return ("refused", type(exc), str(exc))
    try:
        digest = hash(value)
    except TypeError as exc:  # a dict field
        digest = ("unhashable", str(exc))
    return ("built", repr(value), digest)


def same(new, old, *args):
    result = outcome(new, *args)
    assert result == outcome(old, *args)
    return result


def region(box_type, region_type):
    return lambda fields, text: region_type(box_type(*fields), text)


class TestAgainstTheDataclasses:
    @settings(max_examples=400)
    @given(st.tuples(NUMBERS, NUMBERS, NUMBERS, NUMBERS))
    def test_bounding_box(self, fields):
        same(BoundingBox, OldBoundingBox, *fields)

    @given(st.tuples(ANYTHING, ANYTHING, ANYTHING, ANYTHING))
    def test_bounding_box_of_anything(self, fields):
        same(BoundingBox, OldBoundingBox, *fields)

    @pytest.mark.parametrize("fields", [
        (10**400, 0.0, 1.0, 1.0),
        (0.0, 0.0, 1.0, 10**400),
        (-0.0, -0.0, 1.0, 1.0),
        (True, False, True, True),
        (0.0, 0.0, 1e308, 1e308),
        (math.nan, 0.0, 1.0, 1.0),
        (0.0, 0.0, math.inf, 1.0),
        (-1e-300, 0.0, 1.0, 1.0),
        (0.0, 0.0, -0.0, 1.0),
        (1, 2.0, 3.0, 4.0),
    ])
    def test_bounding_box_edges(self, fields):
        same(BoundingBox, OldBoundingBox, *fields)

    @pytest.mark.parametrize("text", [type("Text", (str,), {})("a"), type("Text", (str,), {})("")])
    def test_text_region_of_a_str_subclass(self, text):
        same(region(BoundingBox, TextRegion), region(OldBoundingBox, OldTextRegion),
             (0, 0, 1, 1), text)

    @given(BOX_FIELDS, TEXTS)
    def test_text_region(self, fields, text):
        same(region(BoundingBox, TextRegion), region(OldBoundingBox, OldTextRegion), fields, text)

    @settings(max_examples=200)
    @given(BOX_FIELDS, st.one_of(NUMBERS, st.text(max_size=1), st.none()))
    def test_address_bar_prediction(self, fields, confidence):
        same(region(BoundingBox, AddressBarPrediction),
             region(OldBoundingBox, OldAddressBarPrediction), fields, confidence)

    @settings(max_examples=300)
    @given(RESOLUTIONS, st.lists(BOX_FIELDS, max_size=3), st.lists(BOX_FIELDS, max_size=3))
    def test_photo_analysis(self, resolution, text_boxes, bar_boxes):
        def build(box, text_region, prediction, analysis):
            texts = tuple(text_region(box(*b), "a") for b in text_boxes)
            bars = tuple(prediction(box(*b), 0.9) for b in bar_boxes)
            return lambda: analysis(resolution, texts, bars)

        same(build(BoundingBox, TextRegion, AddressBarPrediction, PhotoAnalysis),
             build(OldBoundingBox, OldTextRegion, OldAddressBarPrediction, OldPhotoAnalysis))

    @given(BOX_FIELDS, BOX_FIELDS, TEXTS)
    def test_bar_truth(self, bar, url, text):
        same(lambda: BarTruth(BoundingBox(*bar), BoundingBox(*url), text),
             lambda: OldBarTruth(OldBoundingBox(*bar), OldBoundingBox(*url), text))

    @settings(max_examples=300)
    @given(RESOLUTIONS, st.lists(BOX_FIELDS, max_size=2), st.lists(BOX_FIELDS, max_size=2),
           st.lists(BOX_FIELDS, max_size=2), st.sampled_from(Theme))
    def test_browser_layout(self, resolution, bars, titles, contents, theme):
        def build(box, bar_truth, text_region, layout):
            def make():
                return layout(
                    resolution,
                    tuple(bar_truth(box(*b), box(*b), "u") for b in bars),
                    tuple(text_region(box(*b), "t") for b in titles),
                    tuple(text_region(box(*b), "c") for b in contents),
                    theme,
                )
            return make

        same(build(BoundingBox, BarTruth, TextRegion, BrowserLayout),
             build(OldBoundingBox, OldBarTruth, OldTextRegion, OldBrowserLayout))

    def test_browser_layout_default_theme(self):
        res = Resolution(100, 100)
        result = same(lambda: BrowserLayout(res, (BarTruth(BoundingBox(0, 0, 50, 10),
                                                           BoundingBox(1, 1, 5, 5), "u"),), (), ()),
                      lambda: OldBrowserLayout(res, (OldBarTruth(OldBoundingBox(0, 0, 50, 10),
                                                                 OldBoundingBox(1, 1, 5, 5), "u"),),
                                               (), ()))
        assert result[0] == "built"
        assert "theme=<Theme.LIGHT: 'light'>" in result[1]

    @given(st.sampled_from(ExtractionKind), st.sampled_from(["microsoft.com", "xn--bcher-kva.de"]),
           st.one_of(st.none(), st.floats(0, 1)), st.booleans())
    def test_extraction_outcome(self, kind, domain, cover, with_domain):
        name = extract_hostname(domain) if with_domain else None
        same(ExtractionOutcome, OldExtractionOutcome, kind, name, cover)
        same(ExtractionOutcome, OldExtractionOutcome, kind)

    @given(st.sampled_from(VerdictKind), st.one_of(st.none(), st.sampled_from(["unreadable"])))
    def test_verify_result(self, kind, reason):
        name = extract_hostname("microsoft.com")
        same(VerifyResult, OldVerifyResult, kind, name, reason)
        same(lambda: VerifyResult(kind, reason=reason), lambda: OldVerifyResult(kind, reason=reason))

    @given(st.lists(st.integers(0, 10**6), min_size=5, max_size=5))
    def test_eval_counts_and_report(self, counts):
        same(EvalCounts, OldEvalCounts, *counts)
        same(lambda: EvalReport(EvalCounts(*counts)), lambda: OldEvalReport(OldEvalCounts(*counts)))


# The records converted from dataclasses, by name: `_oracles.Old<name>` is each one's reference.
NEW = types.SimpleNamespace(
    DomainName=DomainName, Resolution=Resolution, VerifyConfig=VerifyConfig,
    ColocationPolicy=ColocationPolicy, AuthRequest=AuthRequest, LinkClick=LinkClick,
    AuthDecision=AuthDecision, Notification=Notification, Cookie=Cookie, Session=Session,
    Config=Config, WireRequest=WireRequest, WireResponse=WireResponse, OcrModel=OcrModel,
    AddrbarModel=AddrbarModel, DetectorProfile=DetectorProfile,
    GeneratorParams=GeneratorParams, Outcome=Outcome, Scenario=Scenario,
)
OLD = types.SimpleNamespace(**{name: getattr(_oracles, "Old" + name) for name in vars(NEW)})

OPTIONAL_TEXT = st.none() | st.sampled_from(["", "a", "bob"]) | st.text(max_size=3)
LABELS = st.sampled_from(["a", "com", "xn--bcher-kva", "A", "a_b", "", "-", "a" * 63, "a" * 64])
HOSTS = st.sampled_from(["microsoft.com", "bücher.de", "a_b.com", ".", "", 5, None])
RATES = st.one_of(EDGES, st.floats(-0.5, 1.5), st.text(max_size=1), st.none())
PLAIN = st.sampled_from([0, 1, "a", None])
MAPPINGS = st.sampled_from([{}, {"bob": "sms"}, {"bob": "push", "eve": "email"},
                            {"bob": "pigeon"}, {"a": [1]}])
OCR = st.tuples(st.booleans(), RATES, RATES, st.booleans())
ADDRBAR = st.tuples(st.booleans(), RATES, RATES, RATES, RATES)

# name -> (build from a namespace of types and drawn fields, the fields' strategy)
RECORDS = {
    "DomainName": (
        lambda T, labels: T.DomainName(labels),
        st.tuples(st.lists(LABELS, max_size=5).map(tuple)),
    ),
    "Resolution": (
        lambda T, w, h: T.Resolution(w, h),
        st.tuples(NUMBERS | st.just(10**400), NUMBERS | st.sampled_from(["1", None])),
    ),
    "VerifyConfig": (lambda T, cr: T.VerifyConfig(cr), st.tuples(RATES)),
    "ColocationPolicy": (
        lambda T, mode, n: T.ColocationPolicy(mode, n),
        st.tuples(st.sampled_from(ColocationMode),
                  st.sampled_from([-1, 0, 23, 24, 128, 129, None])),
    ),
    "AuthRequest": (
        lambda T, *fields: T.AuthRequest(*fields),
        st.tuples(OPTIONAL_TEXT, OPTIONAL_TEXT, st.text(max_size=3), st.sampled_from(Channel)),
    ),
    "LinkClick": (
        lambda T, *fields: T.LinkClick(*fields),
        st.tuples(st.text(max_size=3), OPTIONAL_TEXT, st.text(max_size=3)),
    ),
    "AuthDecision": (
        lambda T, *fields: T.AuthDecision(*fields),
        st.tuples(st.sampled_from(DecisionKind), OPTIONAL_TEXT, OPTIONAL_TEXT, OPTIONAL_TEXT,
                  st.booleans(), st.none() | st.integers(-1, 5), OPTIONAL_TEXT, OPTIONAL_TEXT),
    ),
    "Notification": (
        lambda T, *fields: T.Notification(*fields),
        st.tuples(st.text(max_size=3), st.sampled_from(Preference), st.text(max_size=3)),
    ),
    "Cookie": (lambda T, value: T.Cookie(value), st.tuples(st.text(max_size=3))),
    "Session": (
        lambda T, sid, user, cookie, *rest: T.Session(sid, user, T.Cookie(cookie), *rest),
        st.tuples(st.text(max_size=3), st.text(max_size=3), st.text(max_size=3), OPTIONAL_TEXT,
                  st.sampled_from(SessionState), st.integers(0, 6), NUMBERS,
                  st.text(max_size=3), st.sampled_from(Channel), st.booleans()),
    ),
    "Config": (
        lambda T, *fields: T.Config(*fields),
        st.tuples(
            st.lists(HOSTS, max_size=2).map(tuple), MAPPINGS,
            st.sampled_from(["cookie", "ip", "same-network", "telepathy"]),
            st.sampled_from([-1, 0, 23, 24, 128, 129]), RATES | st.just(300.0),
            st.sampled_from([-1, 0, 8443, 65535, 65536]), st.none() | st.integers(0, 9),
        ),
    ),
    "WireRequest": (
        lambda T, *fields: T.WireRequest(*fields),
        st.tuples(st.sampled_from(["GET", "POST"]), st.text(max_size=3), MAPPINGS,
                  st.none() | MAPPINGS, st.text(max_size=3)),
    ),
    "WireResponse": (
        lambda T, *fields: T.WireResponse(*fields),
        st.tuples(st.sampled_from([200, 403]), MAPPINGS, MAPPINGS,
                  st.sampled_from([None, "/login", "/c/{token}"])),
    ),
    "OcrModel": (lambda T, *fields: T.OcrModel(*fields), OCR),
    "AddrbarModel": (lambda T, *fields: T.AddrbarModel(*fields), ADDRBAR),
    "DetectorProfile": (
        lambda T, ocr, addrbar: T.DetectorProfile(T.OcrModel(*ocr), T.AddrbarModel(*addrbar)),
        st.tuples(OCR, ADDRBAR),
    ),
    "GeneratorParams": (
        lambda T, domains, size, dark, variant: T.GeneratorParams(
            domains, T.Resolution(*size), dark, variant),
        st.tuples(st.lists(HOSTS, max_size=2).map(tuple),
                  st.tuples(st.integers(-1, 3), st.integers(1, 3)), RATES,
                  st.sampled_from(LayoutVariant)),
    ),
    "Outcome": (
        lambda T, kind, detail: T.Outcome(kind, detail),
        st.tuples(st.sampled_from(OutcomeKind), OPTIONAL_TEXT),
    ),
    "Scenario": (
        lambda T, name, kind, seed, params, expected: T.Scenario(
            name, kind, seed, params, None if expected is None else T.Outcome(*expected)),
        st.tuples(st.text(max_size=3), st.sampled_from(["rtp", "benign"]), st.integers(0, 3),
                  MAPPINGS, st.none() | st.tuples(st.sampled_from(OutcomeKind), OPTIONAL_TEXT)),
    ),
}


class TestRecordsAgainstTheDataclasses:
    def test_every_reference_is_a_frozen_dataclass(self):
        for name in vars(NEW):
            assert getattr(OLD, name).__dataclass_params__.frozen, name
            assert issubclass(getattr(NEW, name), tuple), name

    @pytest.mark.parametrize("name", sorted(RECORDS))
    @settings(max_examples=100)
    @given(data=st.data())
    def test_same_checks_repr_hash_and_equality(self, name, data):
        build, fields = RECORDS[name]
        a, b = data.draw(fields), data.draw(fields)
        built = same(lambda *f: build(NEW, *f), lambda *f: build(OLD, *f), *a)
        if built[0] == "built" and outcome(build, NEW, *b)[0] == "built":
            assert (build(NEW, *a) == build(NEW, *b)) == (build(OLD, *a) == build(OLD, *b))

    @pytest.mark.parametrize("name", ["VerifyConfig", "ColocationPolicy", "AuthDecision",
                                      "OcrModel", "AddrbarModel", "DetectorProfile",
                                      "GeneratorParams", "Outcome"])
    def test_defaults_match(self, name):
        new, old = getattr(NEW, name), getattr(OLD, name)
        args = {"AuthDecision": (DecisionKind.DENY,), "Outcome": (OutcomeKind.DENIED,)}
        assert repr(new(*args.get(name, ()))) == repr(old(*args.get(name, ())))

    @pytest.mark.parametrize("record, field, old_default", [
        (Config(), "users", {"bob": "sms"}),
        (WireRequest("GET", "/"), "headers", {}),
        (WireResponse(200, {}), "headers", {}),
        (Scenario("s", "rtp", 0), "params", {}),
    ])
    def test_mapping_defaults_are_read_only(self, record, field, old_default):
        default = getattr(record, field)
        assert default == old_default
        assert isinstance(default, types.MappingProxyType)
        with pytest.raises(TypeError):
            default["x"] = "sms"
        assert getattr(record, field) == old_default


SECRETS = st.text("0123456789abcdef", min_size=32, max_size=32)
DIGITS = st.text("0123456789", min_size=10, max_size=10)


class TestSecretsStayOutOfTheRepr:
    # The shown fields hold no run of hex digits as long as a secret.
    @given(SECRETS, DIGITS)
    def test_session(self, cookie, token):
        session = Session("session-id", "bob", Cookie(cookie), token, SessionState.LINK_SENT,
                          0, 1.0, "198.51.100.23", Channel.PC_BROWSER)
        text = repr(session)
        assert "id='session-id'" in text
        assert cookie not in text and token not in text

    @given(SECRETS, DIGITS)
    def test_auth_decision(self, cookie, token):
        decision = AuthDecision(DecisionKind.LINK_SENT, session_id="session-id",
                                token_digits=token, cookie=cookie)
        text = repr(decision)
        assert "session_id='session-id'" in text
        assert cookie not in text and token not in text

    @given(DIGITS)
    def test_notification(self, token):
        note = Notification("bob", Preference.SMS, f"microsoft.com/c/{token}")
        assert token not in repr(note)
        assert repr(note) == "Notification(username='bob', preference=<Preference.SMS: 'sms'>)"


class TestNamedTupleSemantics:
    def test_equal_fields_equal_values(self):
        a, b = BoundingBox(1, 2, 3, 4), BoundingBox(1.0, 2.0, 3.0, 4.0)
        assert a == b and hash(a) == hash(b)
        assert TextRegion(a, "x") == TextRegion(b, "x")

    def test_fields_are_read_only(self):
        box = BoundingBox(1, 2, 3, 4)
        for name in ("x", "y", "width", "height"):
            try:
                setattr(box, name, 0)
            except AttributeError:
                continue
            raise AssertionError(f"{name} was assigned")
        assert not hasattr(box, "__dict__")

    def test_keywords_name_the_fields(self):
        box = BoundingBox(x=1, y=2, width=3, height=4)
        assert (box.x, box.y, box.width, box.height) == (1, 2, 3, 4)
        assert TextRegion(box=box, text="a").text == "a"

    def test_copy_and_pickle_round_trip(self):
        box = BoundingBox(1, 2, 3, 4)
        assert copy.copy(box) == box
        assert pickle.loads(pickle.dumps(box)) == box

    def test_nothing_builds_a_value_past_its_check(self):
        # `_make` and `_replace` build a tuple without calling `__new__`. The
        # store's one use updates a `Session`, whose `__new__` is the one
        # `namedtuple` generates and checks nothing.
        uses = []
        for name in sorted(os.listdir(SRC)):
            if name.endswith(".py"):
                with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                    uses += [(name, line.strip()) for line in fh
                             if re.search(r"\._(make|replace)\(", line)]
        assert uses == [("session.py", "updated = session._replace(**changes)")]
        assert Session.__new__.__code__.co_filename == "<string>"

    def test_no_record_carries_a_dict(self):
        # A record is its fields: a subclass that leaves out `__slots__ = ()`
        # gives every value a `__dict__`.
        records = []
        for info in pkgutil.iter_modules([SRC], "photoauth."):
            module = importlib.import_module(info.name)
            records += [cls for _, cls in inspect.getmembers(module, is_record)
                        if cls.__module__ == module.__name__]
        assert Resolution in records and BoundingBox in records
        assert [cls for cls in records if cls.__dictoffset__ != 0] == []
