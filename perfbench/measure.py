"""Measurement helpers shared by the workloads.

The timed metrics of a closed loop come from the steadiest part of a run.
The timed phase is cut into windows of `WINDOW_S` seconds by flow
completion time, the windows are ranked by their median flow time, and
the fastest are pooled until the pool holds `POOL_FLOWS` flows, the
fewest that leave ten samples beyond a p99. On the shared 2-core machine
the benchmark was built on, a neighbour's load slows whole stretches of
a run by up to 1.6x, and some runs spend most of their time slowed; the
median of all samples then measures how much of the run the neighbours
took. Interference only ever adds time, so the fastest windows are the
ones that show the program. Because they may all come from one part of
the run, `drift_ratio` compares the last quarter of a run with the first.
"""

from __future__ import annotations

import collections
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

WINDOW_S = 0.05
POOL_FLOWS = 1000


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, `q` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def steady(flows: list[tuple], start_ns: int, min_flows: int | None) -> dict:
    """Throughput and timings over the pooled fastest windows of a run.

    `flows` holds one `(end_ns, flow_ns, request_ns_tuple)` per completed
    flow; windows are pooled until the pool holds `min_flows`. Flows after
    the last whole window are left out. With `min_flows` None, or a run
    shorter than one window, every flow counts, over the time from
    `start_ns` to the last.
    """
    span_s = (max(f[0] for f in flows) - start_ns) / 1e9
    whole = int(span_s // WINDOW_S)
    if min_flows is None or whole == 0:
        return _summary(flows, span_s, 0, whole)
    windows = collections.defaultdict(list)
    for flow in flows:
        index = int((flow[0] - start_ns) / 1e9 // WINDOW_S)
        if index < whole:
            windows[index].append(flow)
    ranked = sorted(windows.values(), key=lambda w: statistics.median(f[1] for f in w))
    pool: list[tuple] = []
    used = 0
    for window in ranked:
        if len(pool) >= min_flows:
            break
        pool.extend(window)
        used += 1
    return _summary(pool, used * WINDOW_S, used, whole)


def drift_ratio(flows: list[tuple], start_ns: int, min_flows: int | None) -> float:
    """Median request time of a run's last quarter over its first quarter.

    Each quarter is summarised by `steady` with the same `min_flows`, so
    the ratio is 1 when nothing in the program slows it over the run, and
    a cache or heap that grows with the work done pushes it above 1.
    """
    end_ns = max(f[0] for f in flows)
    quarter = (end_ns - start_ns) // 4
    first = [f for f in flows if f[0] < start_ns + quarter]
    last = [f for f in flows if f[0] >= end_ns - quarter]
    return (steady(last, end_ns - quarter, min_flows)["req_p50_us"]
            / steady(first, start_ns, min_flows)["req_p50_us"])


def _summary(pool: list[tuple], seconds: float, used: int, whole: int) -> dict:
    flow_ns = [f[1] for f in pool]
    req_ns = [r for f in pool for r in f[2]]
    return {
        "flows_per_s": len(pool) / seconds,
        "flow_p50_us": statistics.median(flow_ns) / 1000.0,
        "flow_p99_us": percentile(flow_ns, 99) / 1000.0,
        "req_p50_us": statistics.median(req_ns) / 1000.0,
        "req_p99_us": percentile(req_ns, 99) / 1000.0,
        "flows": len(pool),
        "requests": len(req_ns),
        "windows": used,
        "of_windows": whole,
        "flow_tail": len(flow_ns) - math.ceil(0.99 * len(flow_ns)),
        "req_tail": len(req_ns) - math.ceil(0.99 * len(req_ns)),
    }


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def import_seconds(src: str, modules: tuple[str, ...]) -> float:
    """Wall time of a fresh interpreter that imports `modules` from `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=env, check=True, timeout=60, stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def setup_min(make, repeats: int, src: str, modules: tuple[str, ...]):
    """Set up `repeats` times; return (fastest seconds, last result).

    One set-up is a fresh interpreter importing the program plus `make()`.
    Each earlier result is dropped before the next call so that only one
    is alive at a time.
    """
    times = []
    result = None
    for _ in range(repeats):
        result = None
        spent = import_seconds(src, modules)
        t0 = time.perf_counter()
        result = make()
        times.append(spent + time.perf_counter() - t0)
    return min(times), result


def retained_bytes(run_some, budget_s: float) -> tuple[float, int]:
    """Bytes still allocated after `run_some()` calls, per unit of work.

    `run_some()` does one unit (a flow) and is repeated for `budget_s`.
    Only allocations made while tracing count, so the result is what the
    program kept from those units.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        units = 0
        deadline = time.perf_counter() + budget_s
        while units < 20 or time.perf_counter() < deadline:
            run_some()
            units += 1
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / units, units
