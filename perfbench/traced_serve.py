"""Run `photoauth serve` with the span recorder on the app it builds.

Usage: traced_serve.py CONFIG SUMMARY_JSON SPANS_TSV

The server is the CLI's own `serve` command; only `photoauth.service.App`
is replaced, for the life of the process, by a factory that instruments
the app it returns. SIGUSR1 ends the traced phase: the live-session count
and outbox length are read, span recording stops and tracemalloc starts,
so that the bytes the following flows leave behind can be counted.
SIGTERM stops the server; the summary and the spans are then written.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sys
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import photoauth.cli  # noqa: E402
import photoauth.service  # noqa: E402

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    config_path, summary_path, spans_path = argv
    rec = spans.Recorder()
    apps = []
    state: dict = {}
    original_app = photoauth.service.App

    with contextlib.ExitStack() as stack:

        def traced_app(config, clock=None):
            app = original_app(config, clock)
            stack.enter_context(spans.instrumented(rec, app))
            apps.append(app)
            return app

        def start_memory_phase(signum, frame):
            state["live_sessions"] = apps[0].store.live_count()
            state["outbox_len"] = len(apps[0].engine.outbox)
            rec.enabled = False
            tracemalloc.start()
            state["traced_before"] = tracemalloc.get_traced_memory()[0]
            with open(summary_path + ".memory", "w", encoding="utf-8"):
                pass

        def stop(signum, frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGUSR1, start_memory_phase)
        signal.signal(signal.SIGTERM, stop)
        photoauth.service.App = traced_app
        try:
            code = photoauth.cli.main(["serve", "--config", config_path])
        finally:
            photoauth.service.App = original_app
            if tracemalloc.is_tracing():
                state["retained_bytes"] = tracemalloc.get_traced_memory()[0] - state["traced_before"]
                tracemalloc.stop()
    summary = spans.summarize(rec)
    summary.update(state)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    rec.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
