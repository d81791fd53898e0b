"""photoauth benchmark: login flows, HTTP on loopback, noisy corpus evaluation.

Usage (from the repository root):

    python3 perfbench/run.py --workload http_loopback --seed 1 --seconds 40 --trace 0

Workloads: http_loopback, corpus_noisy (see perfbench/NOTES.md for why
each exists). With `--trace 0` the run prints
the end-to-end metrics; with `--trace 1` it splits the timed phase into
an untraced and a traced half and prints the per-layer metrics. Each
metric is printed on its own line with its unit; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import traceback

import measure
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-ups before and again after the timed phase; setup_s is the fastest.
# Slow stretches of the shared machine last seconds, long enough to cover
# every set-up at one end of a run.
SETUP_REPEATS = 9
# Cycles on seeds no run times, so that the timed phase starts warm.
WARMUP_CYCLES = 32
MEMORY_PHASE_S = 1.5
RSS_AFTER_FLOWS = 4000
# What a fresh interpreter imports to set the corpus evaluation up.
CORPUS_MODULES = ("photoauth.synth", "photoauth.verify", "photoauth.domain")

END_TO_END = {
    "setup_s": "s",
    "req_p50_us": "us",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict:
    store_ops = ("create_session", "issue_short_link", "resolve_token", "find_by_cookie", "get",
                 "authorize", "deny", "mark_awaiting_photo", "record_retake")
    units = {}
    for op in store_ops:
        units[f"session.{op}.p50_us"] = "us"
        units[f"session.{op}.calls"] = "count"
    units.update({
        "session.calls_per_flow": "count/flow",
        "session.live_sessions": "count",
        "session.rate_limited": "count",
        "verify.verify_photo.p50_us": "us",
        "verify.extract_domain.p50_us": "us",
        "verify.verdict.match": "count",
        "verify.verdict.mismatch": "count",
        "verify.verdict.retake": "count",
        "domain.extract_hostname.p50_us": "us",
        "geometry.cover_rate.calls": "count",
    })
    for route in ("login", "click", "photo", "status"):
        units[f"service.route.{route}.p50_us"] = "us"
    units["service.handle.self_p50_us"] = "us"
    units["service.analysis_from_dict.p50_us"] = "us"
    for handler in ("auth_request", "link_click", "photo_submission"):
        units[f"decision.{handler}.self_p50_us"] = "us"
    for kind in ("authorize", "link-sent", "require-photo", "request-retake", "deny", "fallback",
                 "bad-request"):
        units[f"decision.kind.{kind}"] = "count"
    units.update({
        "decision.photos_per_photo_authorization": "ratio",
        "decision.outbox_len": "count",
        "mem.bytes_retained_per_flow": "B/flow",
        "synth.generate_layout.p50_us": "us",
        "synth.simulate_detection.p50_us": "us",
        "http.connect.p50_us": "us",
        "http.ttfb.p50_us": "us",
        "http.connections_opened": "count",
        "http.late.p99_us": "us",
        "http.inflight.max": "count",
        "trace.overhead_ratio": "ratio",
        # End-to-end, from the untraced half; see NOTES.md for why unbounded.
        "e2e.flows_per_s": "1/s",
        "e2e.flow_p50_us": "us",
        "e2e.flow_p99_us": "us",
        "e2e.req_p99_us": "us",
        "e2e.drift_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


# Per-layer metrics the corpus never reaches; they read 0 there. The span
# metrics of unreached layers read 0 by themselves (see spans.layer_metrics).
NOT_IN_CORPUS = (
    "session.live_sessions", "session.rate_limited", "decision.outbox_len",
    "http.connect.p50_us", "http.ttfb.p50_us", "http.connections_opened",
    "http.late.p99_us", "http.inflight.max",
)


class Outcome:
    """Metric values plus the correctness tally of one run."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def timed(self, run: dict, open_loop: bool = False, untraced_half: bool = False) -> None:
        """Timed metrics from the steadiest part of the run (see measure.py).

        An open loop's latency depends on the run's whole history (its
        queue, a store that grows), so there every flow counts. The
        untraced half of a traced run records the unbounded `e2e.*`
        metrics; a plain run prints them as a note.
        """
        pool = None if open_loop else measure.POOL_FLOWS
        s = measure.steady(run["flows"], run["start_ns"], pool)
        if untraced_half:
            self.metrics["e2e.drift_ratio"] = measure.drift_ratio(run["flows"], run["start_ns"], pool)
            self.metrics["e2e.flows_per_s"] = s["flows_per_s"]
            self.metrics["e2e.flow_p50_us"] = s["flow_p50_us"]
            self.metrics["e2e.flow_p99_us"] = s["flow_p99_us"]
            self.metrics["e2e.req_p99_us"] = s["req_p99_us"]
        else:
            self.metrics["req_p50_us"] = s["req_p50_us"]
        part = (f"the fastest {s['windows']} of {s['of_windows']} windows of {measure.WINDOW_S:g} s"
                if s["windows"] else "the whole run")
        self.notes.append(
            f"timed metrics from {s['flows']} flows and {s['requests']} requests in {part}: "
            f"{s['flows_per_s']:.6g} flows/s; per flow p50 {s['flow_p50_us']:.6g} us and "
            f"p99 {s['flow_p99_us']:.6g} us; per request p99 {s['req_p99_us']:.6g} us"
        )
        if min(s["flow_tail"], s["req_tail"]) < 10:
            self.notes.append("a p99 has fewer than ten samples beyond it")

    def fail(self, why: str, count: int = 1) -> None:
        self.correct = False
        self.failed += count
        self.notes.append(f"FAILED: {why}")


def _tally_flows(out: Outcome, mix) -> None:
    if mix.failures:
        out.fail(f"{len(mix.failures)} responses differ from the script; first: {mix.failures[0]}",
                 len(mix.failures))


def _steady_rate(run: dict) -> float:
    return measure.steady(run["flows"], run["start_ns"], measure.POOL_FLOWS)["flows_per_s"]


# ---------------------------------------------------------------------------
# HTTP loopback
# ---------------------------------------------------------------------------


def run_http(args) -> Outcome:
    import flows
    import loopback

    out = Outcome()
    photos = flows.build_photos(args.seed)
    loopback.write_config(args.seed)
    mix = flows.FlowMix(args.seed, photos)
    servers = []
    startups = []

    def start_plain():
        server = loopback.plain_server()
        servers.append(server)
        t0 = time.perf_counter()
        server.start()
        startups.append(time.perf_counter() - t0)
        return server

    try:
        for _ in range(0 if args.trace else SETUP_REPEATS - 1):
            start_plain().stop()
        server = start_plain()
        if not args.trace:
            items = loopback.schedule(mix, args.seed, args.seconds, 0)
            run = loopback.run_open_loop(mix, server.port, items, args.seed)
            server.stop()
            for _ in range(SETUP_REPEATS):
                start_plain().stop()
            out.metrics["setup_s"] = min(startups)
            out.timed(run, open_loop=True)
            out.metrics["peak_rss_mb"] = measure.peak_rss_mb(children=True)
            out.attempted = run["stats"].requests
            _tally_flows(out, mix)
            return out

        half = args.seconds / 2.0
        items = loopback.schedule(mix, args.seed, half, 0)
        plain = loopback.run_open_loop(mix, server.port, items, args.seed)
        server.stop()
        summary_path = os.path.join(OUT, "http_loopback.server-summary.json")
        for stale in (summary_path, summary_path + ".memory"):
            if os.path.exists(stale):
                os.remove(stale)
        tserver = loopback.traced_server()
        servers.append(tserver)
        tserver.start()
        mix.forget_sessions()
        first = len(items)
        items = loopback.schedule(mix, args.seed + 1, half, first)
        traced = loopback.run_open_loop(mix, tserver.port, items, args.seed + 1)
        tserver.signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(summary_path + ".memory"):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not start its memory phase")
            time.sleep(0.01)
        items = loopback.schedule(mix, args.seed + 2, MEMORY_PHASE_S, first + len(items))
        memory = loopback.run_open_loop(mix, tserver.port, items, args.seed + 2)
        tserver.stop()
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        stats = traced["stats"]
        layers = spans.layer_metrics(summary, len(traced["flows"]))
        layers["session.live_sessions"] = summary["live_sessions"]
        layers["decision.outbox_len"] = summary["outbox_len"]
        layers["session.rate_limited"] = stats.statuses[429]
        layers["mem.bytes_retained_per_flow"] = summary["retained_bytes"] / len(memory["flows"])
        layers["http.connect.p50_us"] = statistics.median(stats.connect_ns) / 1000.0
        layers["http.ttfb.p50_us"] = statistics.median(stats.ttfb_ns) / 1000.0
        layers["http.connections_opened"] = len(stats.connect_ns)
        layers["http.late.p99_us"] = measure.percentile(stats.late_ns, 99) / 1000.0
        layers["http.inflight.max"] = stats.inflight_max
        # The offered rate is fixed, so overhead shows as latency, not throughput.
        layers["trace.overhead_ratio"] = (
            measure.steady(plain["flows"], plain["start_ns"], None)["flow_p50_us"]
            / measure.steady(traced["flows"], traced["start_ns"], None)["flow_p50_us"]
        )
        out.timed(plain, open_loop=True, untraced_half=True)
        out.metrics.update(layers)
        out.attempted = plain["stats"].requests + stats.requests + memory["stats"].requests
        _tally_flows(out, mix)
        return out
    finally:
        for server in servers:
            server.stop()


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def _check_corpus(out: Outcome, corpus_mod, c, seed: int, classes: list[str]) -> None:
    """Counts of the first `GOLDEN_CYCLES` cycles against the golden table.

    A seed in the table is checked on the run's own cycles; any other seed
    (or a run too short to reach `GOLDEN_CYCLES`) has the cycles of the
    table's seed `seed % len(table)` evaluated here, after the timed phase.
    """
    table = corpus_mod.load_golden()["counts"]
    golden_seed = seed % len(table)
    checked = classes[: corpus_mod.GOLDEN_CYCLES] if golden_seed == seed else []
    checked += [c.evaluate(golden_seed, k) for k in range(len(checked), corpus_mod.GOLDEN_CYCLES)]
    got = corpus_mod.tally(checked)
    want = table[str(golden_seed)]
    if got != want:
        out.fail(f"counts {got} of golden seed {golden_seed} differ from golden {want}")
    else:
        out.notes.append(f"counts of the first {len(checked)} cycles of seed {golden_seed} equal the golden counts")


def run_corpus(args) -> Outcome:
    import corpus

    out = Outcome()

    def build():
        c = corpus.Corpus()
        for k in range(WARMUP_CYCLES):
            c.evaluate(-1 - args.seed, k)
        return c

    setup_s, c = measure.setup_min(build, 1 if args.trace else SETUP_REPEATS, SRC, CORPUS_MODULES)
    if not args.trace:
        run = corpus.run_cycles(c.evaluate, args.seed, args.seconds, rss_after=RSS_AFTER_FLOWS)
        out.metrics["setup_s"] = min(setup_s, measure.setup_min(build, SETUP_REPEATS, SRC, CORPUS_MODULES)[0])
        out.timed(run)
        out.metrics["peak_rss_mb"] = run["rss_mb"]
        out.attempted = run["cycles"]
        out.notes.append(f"a flow is {corpus.CYCLES_PER_FLOW} cycles; "
                         f"counts over the run {corpus.tally(run['classes'])}")
        _check_corpus(out, corpus, c, args.seed, run["classes"])
        return out

    half = args.seconds / 2.0
    plain = corpus.run_cycles(c.evaluate, args.seed, half)
    rec = spans.Recorder()
    generate = rec.wrap("synth.generate_layout", corpus.generate_layout)
    detect = rec.wrap("synth.simulate_detection", corpus.simulate_detection)
    verify = rec.wrap("verify.verify_photo", corpus.verify_photo, spans.verdict_counter(rec))

    def traced_cycle(seed, k):
        rec.flow = k // corpus.CYCLES_PER_FLOW
        return c.reference_cycle(seed, k, generate, detect, verify)

    with spans.instrumented(rec):
        traced = corpus.run_cycles(traced_cycle, args.seed, half)
    common = min(plain["cycles"], traced["cycles"])
    mismatches = sum(
        1 for a, b in zip(plain["classes"][:common], traced["classes"][:common]) if a != b
    )
    if mismatches:
        out.fail(f"traced loop classified {mismatches} of {common} cycles unlike evaluate_corpus",
                 mismatches)
    layers = spans.layer_metrics(spans.summarize(rec), len(traced["flows"]))
    layers["trace.overhead_ratio"] = _steady_rate(traced) / _steady_rate(plain)
    out.timed(plain, untraced_half=True)
    next_k = [plain["cycles"]]

    def one_flow():
        for _ in range(corpus.CYCLES_PER_FLOW):
            c.evaluate(args.seed, next_k[0])
            next_k[0] += 1

    layers["mem.bytes_retained_per_flow"], _ = measure.retained_bytes(one_flow, MEMORY_PHASE_S)
    layers.update(dict.fromkeys(NOT_IN_CORPUS, 0))
    rec.write(os.path.join(OUT, f"{args.workload}.spans.tsv"))
    out.metrics.update(layers)
    out.attempted = plain["cycles"] + traced["cycles"]
    _check_corpus(out, corpus, c, args.seed, plain["classes"])
    return out


WORKLOADS = {
    "http_loopback": run_http,
    "corpus_noisy": run_corpus,
}
MODULES = {
    "http_loopback": ("flows", "loopback"),
    "corpus_noisy": ("corpus",),
}


def _import_program(workload: str) -> None:
    """Import the program from this checkout and the workload's modules."""
    sys.path.insert(0, SRC)
    import importlib

    import photoauth

    where = os.path.dirname(os.path.abspath(photoauth.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"photoauth imported from {where}, not from {SRC}")
    for name in MODULES[workload]:
        importlib.import_module(name)


def _print_report(args, out: Outcome, units: dict) -> None:
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, unit in units.items():
        print(f"{name} = {out.metrics[name]:.6g} {unit}")
    print(f"attempted = {out.attempted}  failed = {out.failed}  "
          f"fail_ratio = {out.failed / max(out.attempted, 1):.6g}")
    for note in out.notes:
        print(f"# {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        _import_program(args.workload)
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        out = WORKLOADS[args.workload](args)
    except Exception:  # the run is over either way; report why and fail it
        traceback.print_exc()
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in units if name not in out.metrics]
    if missing:
        print(f"metrics missing: {missing}", file=sys.stderr)
        return 1
    if out.attempted < 1:
        out.fail("nothing was attempted")
    _print_report(args, out, units)
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
