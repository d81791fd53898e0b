"""The benchmark's tracer still fits the program.

`perfbench/spans.py` wraps module and instance attributes of a live `App`
by name. A rename or deletion of one of them would first show as a
failed `--trace 1` benchmark run; this runs one traced flow instead.
"""

import importlib
import pathlib

import pytest

import photoauth.decision
import photoauth.service
import photoauth.verify
from photoauth.service import App, Config, WireRequest
from photoauth.synth import ORACLE_PROFILE, generate_layout, simulate_detection
from photoauth.verify import analysis_to_dict

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (photoauth.decision, photoauth.service, photoauth.verify)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_traced_flow_covers_each_layer_and_is_undone(spans):
    app = App(Config(seed=3))
    modules_before = [dict(vars(module)) for module in MODULES]
    photo = analysis_to_dict(
        simulate_detection(generate_layout("microsoft.com", seed=1), ORACLE_PROFILE)
    )
    rec = spans.Recorder()
    with spans.instrumented(rec, app):
        login = app.handle(
            WireRequest("POST", "/login", body={"username": "bob"}, source_address="198.51.100.23")
        )
        digits = login.body["link"].rsplit("/", 1)[-1]
        click = app.handle(WireRequest("GET", f"/c/{digits}", source_address="203.0.113.7"))
        answer = app.handle(
            WireRequest("POST", f"/c/{digits}/photo", body=photo, source_address="203.0.113.7")
        )
    assert [login.body["status"], click.body["status"], answer.body["status"]] == [
        "link-sent",
        "photo-required",
        "authorized",
    ]
    names = {span[3] for span in rec.spans}
    assert {"session.create_session", "decision.link_click", "verify.verify_photo"} <= names

    patched = {"handle", *spans.ROUTES, *spans.HANDLERS, *spans.STORE_OPS}
    for obj in (app, app.engine, app.store):
        assert not patched & set(vars(obj)), type(obj).__name__
    assert [dict(vars(module)) for module in MODULES] == modules_before
