"""Span recorder that times the program's layers from outside.

The recorder replaces public entry points with wrappers that record one
span per call (name, start, end, parent, flow) and restores the originals
when the traced phase ends. Nothing in the program is edited: the
wrappers sit on instance attributes of one `App` (and its engine and
store) and on the module attributes the layers call each other through.

A span's self time is its duration minus the time its child spans cover.
Calls nest on one thread, so children never overlap and that time is the
sum of their durations.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import statistics
import threading
import time

STORE_OPS = (
    "create_session",
    "issue_short_link",
    "resolve_token",
    "find_by_cookie",
    "get",
    "authorize",
    "deny",
    "mark_awaiting_photo",
    "record_retake",
)
ROUTES = {"_login": "login", "_click": "click", "_photo": "photo", "_status": "status"}
HANDLERS = {
    "handle_auth_request": "auth_request",
    "handle_link_click": "link_click",
    "handle_photo_submission": "photo_submission",
}
DECISION_KINDS = (
    "authorize",
    "link-sent",
    "require-photo",
    "request-retake",
    "deny",
    "fallback",
    "bad-request",
)
VERDICTS = ("match", "mismatch", "retake")


class Recorder:
    """In-memory spans and counters, safe to share between threads."""

    def __init__(self):
        # (id, parent id or 0, flow id, name, start_ns, end_ns, self_ns)
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.flow: int | None = None  # set per flow by a single-threaded caller
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def bump(self, key: str) -> None:
        with self._count_lock:
            self.counts[key] += 1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_result=None):
        """Return `fn` wrapped so that each call records a span."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
                flow = parent[2]
            else:
                parent = None
                flow = self.flow if self.flow is not None else sid
            frame = [sid, 0, flow]  # id, time covered by children, flow id
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans.append(
                    (sid, parent[0] if parent else 0, flow, name, start, end, duration - frame[1])
                )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counter(self, name, fn):
        """Return `fn` wrapped so that each call only bumps `<name>.calls`."""
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            if self.enabled:
                self.bump(key)
            return fn(*args, **kwargs)

        return counted

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tflow\tname\tstart_ns\tend_ns\tself_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)))
                fh.write("\n")


def verdict_counter(rec: Recorder):
    """An `on_result` callback that counts `verify_photo` verdicts by kind."""

    def on_verdict(result):
        rec.bump(f"verify.verdict.{result.kind.value}")

    return on_verdict


@contextlib.contextmanager
def instrumented(rec: Recorder, app=None):
    """Wrap the layers' entry points for the duration of the block.

    Module attributes are always wrapped; with `app`, so are the instance
    attributes of the app, its engine and its store.
    """
    import photoauth.decision
    import photoauth.service
    import photoauth.verify

    undo = []
    on_verdict = verdict_counter(rec)

    def on_decision(result):
        rec.bump(f"decision.kind.{result.kind.value}")

    def on_photo_decision(result):
        on_decision(result)
        if result.kind.value == "authorize":
            rec.bump("decision.photo_authorizations")

    def patch_module(module, attr, wrapped):
        undo.append((module, attr, getattr(module, attr), False))
        setattr(module, attr, wrapped)

    def patch_instance(obj, attr, name, on_result=None):
        setattr(obj, attr, rec.wrap(name, getattr(obj, attr), on_result))
        undo.append((obj, attr, None, True))

    try:
        patch_module(
            photoauth.decision,
            "verify_photo",
            rec.wrap("verify.verify_photo", photoauth.decision.verify_photo, on_verdict),
        )
        patch_module(
            photoauth.verify,
            "extract_domain",
            rec.wrap("verify.extract_domain", photoauth.verify.extract_domain),
        )
        patch_module(
            photoauth.verify,
            "extract_hostname",
            rec.wrap("domain.extract_hostname", photoauth.verify.extract_hostname),
        )
        patch_module(
            photoauth.verify,
            "cover_rate",
            rec.counter("geometry.cover_rate", photoauth.verify.cover_rate),
        )
        patch_module(
            photoauth.service,
            "analysis_from_dict",
            rec.wrap("service.analysis_from_dict", photoauth.service.analysis_from_dict),
        )
        if app is not None:
            patch_instance(app, "handle", "service.handle")
            for attr, route in ROUTES.items():
                patch_instance(app, attr, f"service.route.{route}")
            for attr, handler in HANDLERS.items():
                on_result = on_photo_decision if handler == "photo_submission" else on_decision
                patch_instance(app.engine, attr, f"decision.{handler}", on_result)
            for op in STORE_OPS:
                patch_instance(app.store, op, f"session.{op}")
        yield rec
    finally:
        for obj, attr, original, instance in reversed(undo):
            if instance:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)


def summarize(rec: Recorder) -> dict:
    """Per span name: call count and median duration and self time, in µs."""
    durations = collections.defaultdict(list)
    selfs = collections.defaultdict(list)
    for _sid, _parent, _flow, name, start, end, self_ns in rec.spans:
        durations[name].append(end - start)
        selfs[name].append(self_ns)
    return {
        "spans": {
            name: {
                "calls": len(values),
                "p50_us": statistics.median(values) / 1000.0,
                "self_p50_us": statistics.median(selfs[name]) / 1000.0,
            }
            for name, values in durations.items()
        },
        "counts": dict(rec.counts),
    }


def layer_metrics(summary: dict, flows: int) -> dict:
    """Map a `summarize` result onto the per-layer metric names.

    A layer the workload never calls reads 0. `flows` is the number of
    flows completed while the recorder was on.
    """
    spans, counts = summary["spans"], summary["counts"]

    def p50(name, key="p50_us"):
        return spans[name][key] if name in spans else 0.0

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    out = {}
    for op in STORE_OPS:
        out[f"session.{op}.p50_us"] = p50(f"session.{op}")
        out[f"session.{op}.calls"] = calls(f"session.{op}")
    session_calls = sum(calls(f"session.{op}") for op in STORE_OPS)
    out["session.calls_per_flow"] = session_calls / flows if flows else 0.0
    out["verify.verify_photo.p50_us"] = p50("verify.verify_photo")
    out["verify.extract_domain.p50_us"] = p50("verify.extract_domain")
    for verdict in VERDICTS:
        out[f"verify.verdict.{verdict}"] = counts.get(f"verify.verdict.{verdict}", 0)
    out["domain.extract_hostname.p50_us"] = p50("domain.extract_hostname")
    out["geometry.cover_rate.calls"] = counts.get("geometry.cover_rate.calls", 0)
    for route in ROUTES.values():
        out[f"service.route.{route}.p50_us"] = p50(f"service.route.{route}")
    out["service.handle.self_p50_us"] = p50("service.handle", "self_p50_us")
    out["service.analysis_from_dict.p50_us"] = p50("service.analysis_from_dict")
    for handler in HANDLERS.values():
        out[f"decision.{handler}.self_p50_us"] = p50(f"decision.{handler}", "self_p50_us")
    for kind in DECISION_KINDS:
        out[f"decision.kind.{kind}"] = counts.get(f"decision.kind.{kind}", 0)
    photo_auths = counts.get("decision.photo_authorizations", 0)
    out["decision.photos_per_photo_authorization"] = (
        calls("decision.photo_submission") / photo_auths if photo_auths else 0.0
    )
    out["synth.generate_layout.p50_us"] = p50("synth.generate_layout")
    out["synth.simulate_detection.p50_us"] = p50("synth.simulate_detection")
    return out
