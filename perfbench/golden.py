"""Record the corpus_noisy golden counts.

Usage (from the repository root): python3 perfbench/golden.py [SEEDS]

For each run seed in range(SEEDS) (default 256) this stores the tp/fp/fn/
retake counts that `evaluate_corpus` gives over the first
`corpus.GOLDEN_CYCLES` cycles of a corpus_noisy run. A run whose seed is
in the table must reproduce them exactly; a run with any other seed s
evaluates the cycles of table seed s mod (table size) and must
reproduce those. Regenerate only when the
corpus pipeline is meant to change its output, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402


def main(argv: list[str]) -> int:
    seeds = int(argv[0]) if argv else 256
    c = corpus.Corpus()
    table = {
        "cycles": corpus.GOLDEN_CYCLES,
        "domains": list(corpus.DOMAINS),
        "counts": {str(seed): corpus.golden_counts(c, seed) for seed in range(seeds)},
    }
    counts = ",\n".join(
        f"  {json.dumps(seed)}: {json.dumps(row, sort_keys=True)}" for seed, row in table["counts"].items()
    )
    with open(corpus.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{"cycles": {table["cycles"]}, "domains": {json.dumps(table["domains"])},\n')
        fh.write(f'"counts": {{\n{counts}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
