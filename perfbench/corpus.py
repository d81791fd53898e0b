"""Noisy corpus workload: `evaluate_corpus`, one cycle per call.

Cycle k of a run with seed s is `evaluate_corpus(1, ..., seed=s * 10**6 + k)`
with the domain list rotated so that cycle k renders `DOMAINS[k % 3]`.
Timing one cycle per call gives per-cycle latencies; 4 consecutive
cycles make one evaluation, the workload's "flow".

`reference_cycle` repeats `evaluate_corpus`'s loop body from the public
functions. The traced run times its steps and checks that it classifies
each cycle exactly as `evaluate_corpus` did.
"""

from __future__ import annotations

import json
import os
import random
import time

from photoauth.domain import extract_hostname
from photoauth.synth import (
    DEFAULT_NOISY_PROFILE,
    GeneratorParams,
    Theme,
    evaluate_corpus,
    generate_layout,
    simulate_detection,
)
from photoauth.verify import RETAKE_UNREADABLE, VerdictKind, VerifyConfig, verify_photo

import measure

# The second name takes the punycode path.
DOMAINS = ("microsoft.com", "bücher.de", "login.live.com")
CYCLES_PER_FLOW = 4
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_corpus.json")
GOLDEN_CYCLES = 2000
# evaluate_corpus seeds item i of a corpus with seed b by b * 1_000_003 + i.
ITEM_SEED_STRIDE = 1_000_003


def cycle_seed(seed: int, k: int) -> int:
    return seed * 10**6 + k


class Corpus:
    def __init__(self):
        self.params = [GeneratorParams(domains=DOMAINS[i:] + DOMAINS[:i]) for i in range(len(DOMAINS))]
        self.profile = DEFAULT_NOISY_PROFILE
        self.cfg = VerifyConfig()
        self.accept = frozenset(extract_hostname(d) for d in DOMAINS)

    def evaluate(self, seed: int, k: int) -> str:
        """Run cycle k through `evaluate_corpus`; return its class."""
        counts = evaluate_corpus(
            1, self.params[k % len(DOMAINS)], self.profile, self.cfg, self.accept,
            seed=cycle_seed(seed, k),
        ).counts
        if counts.true_positives:
            return "tp"
        if counts.false_positives:
            return "fp"
        return "fn" if counts.false_negatives else "retake"

    def reference_cycle(self, seed: int, k: int, generate=generate_layout,
                        detect=simulate_detection, verify=verify_photo) -> str:
        """The same cycle from the public functions, which may be wrapped."""
        params = self.params[k % len(DOMAINS)]
        rng = random.Random(cycle_seed(seed, k) * ITEM_SEED_STRIDE)
        theme = Theme.DARK if rng.random() < params.dark_fraction else Theme.LIGHT
        layout = generate(
            params.domains[0], theme=theme, variant=params.variant,
            seed=rng.getrandbits(32), resolution=params.resolution,
        )
        result = verify(detect(layout, self.profile, rng), self.accept, self.cfg)
        if result.kind is VerdictKind.MATCH:
            return "tp"
        if result.kind is VerdictKind.MISMATCH:
            return "fp"
        return "fn" if result.reason == RETAKE_UNREADABLE else "retake"


def run_cycles(cycle, seed: int, seconds: float, rss_after: int | None = None) -> dict:
    """Call `cycle(seed, k)` for k = 0, 1, ... for `seconds`, timing each.

    Cycles are grouped into flows of `CYCLES_PER_FLOW`, recorded as
    `(end_ns, flow_ns, cycle_ns_tuple)`; the run ends on a flow boundary.
    """
    classes: list[str] = []
    records: list[tuple] = []
    rss_mb = None
    start_ns = time.perf_counter_ns()
    deadline = start_ns + int(seconds * 1e9)
    k = 0
    end = start_ns
    while end < deadline:
        cycle_ns = []
        for _ in range(CYCLES_PER_FLOW):
            t0 = time.perf_counter_ns()
            classes.append(cycle(seed, k))
            end = time.perf_counter_ns()
            cycle_ns.append(end - t0)
            k += 1
        records.append((end, sum(cycle_ns), tuple(cycle_ns)))
        if len(records) == rss_after:
            rss_mb = measure.peak_rss_mb()
    return {"cycles": k, "flows": records,
            "start_ns": start_ns, "classes": classes,
            "rss_mb": rss_mb if rss_mb is not None else measure.peak_rss_mb()}


def tally(classes) -> dict:
    """Counts as `evaluate_corpus` reports them: every non-match is a retake."""
    classes = list(classes)
    counts = {c: classes.count(c) for c in ("tp", "fp", "fn")}
    counts["retakes"] = len(classes) - counts["tp"]
    return counts


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def golden_counts(corpus: Corpus, seed: int) -> dict:
    return tally(corpus.evaluate(seed, k) for k in range(GOLDEN_CYCLES))
