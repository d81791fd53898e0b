"""Fast self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

1. Short runs of each workload, untraced and traced, must emit exactly
   the metrics BENCHMARK.json names, each with its unit, and pass their
   own correctness checks.
2. A tampered flow expectation and tampered golden corpus counts must
   each make the correctness check fail, the latter both for a seed in
   the golden table and for one outside it.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1.5"
RUNS = (("http_loopback", 0), ("http_loopback", 1), ("corpus_noisy", 0), ("corpus_noisy", 1))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> list[str]:
    problems = []
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload, trace in RUNS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", SECONDS, "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        where = f"{workload} --trace {trace}"
        if proc.returncode != 0:
            problems.append(f"{where}: exit {proc.returncode}\n{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
            continue
        result = _last_json(proc.stdout)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                            f"failed={result['failed']}")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want[trace]:
            problems.append(f"{where}: metric names or units differ from BENCHMARK.json: "
                            f"missing {sorted(set(want[trace]) - set(got))}, "
                            f"extra {sorted(set(got) - set(want[trace]))}")
        for name, m in result["metrics"].items():
            if not isinstance(m["value"], (int, float)):
                problems.append(f"{where}: {name} is not a number")
            elif trace == 0 and m["value"] <= 0:
                problems.append(f"{where}: {name} = {m['value']}, end-to-end metrics are never 0")
        for name in want[trace]:
            if f"{name} = " not in proc.stdout:
                problems.append(f"{where}: {name} not printed by name")
    return problems


def _run_in_process(argv: list[str]) -> tuple[int, dict]:
    import run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    return code, _last_json(buf.getvalue())


def check_tampering() -> list[str]:
    problems = []
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import corpus
    import flows

    original = flows.EXPECTED["photo_genuine"]
    flows.EXPECTED["photo_genuine"] = lambda c: (200, {"status": "denied"})
    try:
        code, result = _run_in_process(["--workload", "http_loopback", "--seed", "1", "--seconds", "1"])
    finally:
        flows.EXPECTED["photo_genuine"] = original
    if code == 0 or result["correct"] or result["failed"] < 1:
        problems.append(f"tampered flow expectation not caught: exit {code}, {result['correct']}")

    original_load = corpus.load_golden

    def tampered():
        golden = original_load()
        golden["counts"]["1"] = dict(golden["counts"]["1"], tp=golden["counts"]["1"]["tp"] + 1)
        return golden

    corpus.load_golden = tampered
    try:
        # Seed 1 is in the table; seed 257 is not and is checked against table seed 1.
        for seed in ("1", "257"):
            code, result = _run_in_process(["--workload", "corpus_noisy", "--seed", seed, "--seconds", "0.5"])
            if code == 0 or result["correct"]:
                problems.append(f"tampered golden counts not caught at seed {seed}: "
                                f"exit {code}, {result['correct']}")
    finally:
        corpus.load_golden = original_load
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_tampering() + check_metrics(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
