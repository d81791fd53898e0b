"""HTTP loopback workload: `photoauth serve` as a child, an open loop of flows.

Flows are due at a fixed rate whatever the server does, and each is
timed from its due time to its last response, so a stall shows as
latency on the flows queued behind it. At most `CONNECTIONS` requests
are in flight. Each flow's user binds its own 127.x.y.z source address;
random-token guesses come from one attacker address.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import flows

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# About a third of the capacity measured at the seed on 2 cores (~320 flows/s
# with guesses, ~400 without). At 200, and at times at 150, a neighbour's
# load on the shared machine tipped the open loop into a growing backlog.
FLOWS_PER_S = 100.0
GUESSES_PER_FLOW = 0.3  # about one request in ten is a guess
CONNECTIONS = 2
ATTACKER = "127.0.0.66"
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0


def source_for(index: int) -> str:
    """A distinct loopback address per flow, avoiding .0 and .255."""
    return f"127.{1 + index // 64516}.{1 + (index // 254) % 254}.{1 + index % 254}"


def free_port() -> int:
    """A port no socket on any local address holds, as the server binds 0.0.0.0."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("0.0.0.0", 0))
        return s.getsockname()[1]


def write_config(seed: int) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "serve-config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "server_domains": list(flows.SERVER_DOMAINS),
                "users": {user: "sms" for user in flows.USERS},
                "seed": seed,
            },
            fh,
        )
    return path


class Server:
    """One server child: started on a free port, its stderr sent to a file."""

    def __init__(self, argv: list[str], log_name: str):
        self.argv = argv
        self.log_path = os.path.join(OUT, log_name)
        self.port = free_port()
        self.proc: subprocess.Popen | None = None
        self._log = None

    def start(self) -> None:
        """Start the child and wait until it answers; retry if the port was taken."""
        for _ in range(3):
            if self._start_once():
                return
            self.port = free_port()
        raise RuntimeError(f"no free port for the server; see {self.log_path}")

    def _start_once(self) -> bool:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PHOTOAUTH_PORT"] = str(self.port)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            self.argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log, env=env, cwd=ROOT,
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                self._log.close()
                with open(self.log_path, "rb") as fh:
                    if b"Address already in use" in fh.read():
                        return False
                raise RuntimeError(f"server exited with {self.proc.returncode}; see {self.log_path}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=1.0)
                try:
                    conn.request("GET", "/ready")
                    if conn.getresponse().status == 404:
                        return True
                finally:
                    conn.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not ready after {READY_TIMEOUT_S} s")
            time.sleep(0.005)

    def signal(self, signum: int) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signum)

    def stop(self) -> None:
        if self.proc is not None:
            self.signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        if self._log is not None:
            self._log.close()
            self._log = None


def plain_server() -> Server:
    config = os.path.join(OUT, "serve-config.json")
    return Server([sys.executable, "-m", "photoauth.cli", "serve", "--config", config], "serve.log")


def traced_server() -> Server:
    config = os.path.join(OUT, "serve-config.json")
    return Server(
        [sys.executable, os.path.join(HERE, "traced_serve.py"), config,
         os.path.join(OUT, "http_loopback.server-summary.json"),
         os.path.join(OUT, "http_loopback.server-spans.tsv")],
        "serve-traced.log",
    )


class Stats:
    """What the client threads record; appends are atomic, counters locked."""

    def __init__(self):
        self.lock = threading.Lock()
        self.flows: list[tuple] = []  # (end_ns, flow_ns, request_ns_tuple) per user flow
        self.late_ns: list[int] = []
        self.connect_ns: list[int] = []
        self.ttfb_ns: list[int] = []
        self.statuses: collections.Counter = collections.Counter()
        self.requests = 0
        self.inflight = 0
        self.inflight_max = 0


class _Connection(http.client.HTTPConnection):
    stats: Stats

    def connect(self):
        t0 = time.perf_counter_ns()
        super().connect()
        self.stats.connect_ns.append(time.perf_counter_ns() - t0)


class _User:
    """One user's connection; `send` matches `FlowMix`'s transport signature."""

    def __init__(self, port: int, source: str, stats: Stats, due_ns: int):
        self.conn = _Connection("127.0.0.1", port, timeout=10.0, source_address=(source, 0))
        self.conn.stats = stats
        self.stats = stats
        self.prev_ns = due_ns  # the next request is due when the previous answer came
        self.req_ns: list[int] = []

    def send(self, method, path, body, cookie, source):
        stats = self.stats
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        if cookie:
            headers["Cookie"] = f"auth={cookie}"
        with stats.lock:
            stats.requests += 1
            stats.inflight += 1
            stats.inflight_max = max(stats.inflight_max, stats.inflight)
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            sent = time.perf_counter_ns()
            response = self.conn.getresponse()
            stats.ttfb_ns.append(time.perf_counter_ns() - sent)
            data = response.read()
        finally:
            with stats.lock:
                stats.inflight -= 1
        done = time.perf_counter_ns()
        self.req_ns.append(done - self.prev_ns)
        self.prev_ns = done
        with stats.lock:
            stats.statuses[response.status] += 1
        return response.status, json.loads(data), response.getheader("Set-Cookie")

    def close(self):
        self.conn.close()


def schedule(mix: flows.FlowMix, seed: int, seconds: float, first: int) -> list[tuple]:
    """(due s, flow or None for a guess, flow index) in due order."""
    items = []
    n_flows = int(seconds * FLOWS_PER_S)
    for k in range(n_flows):
        items.append((k / FLOWS_PER_S, mix.next_flow(), first + k))
    rng = random.Random(seed ^ 0x9E55)
    t = 0.0
    while True:
        t += rng.expovariate(FLOWS_PER_S * GUESSES_PER_FLOW)
        if t >= seconds:
            break
        items.append((t, None, -1))
    items.sort(key=lambda item: item[0])
    return items


def run_open_loop(mix: flows.FlowMix, port: int, items: list[tuple], seed: int) -> dict:
    """Send the scheduled items on at most `CONNECTIONS` threads."""
    stats = Stats()
    guess_rng = random.Random(seed ^ 0x6E55)
    cursor = iter(items)
    cursor_lock = threading.Lock()
    start_ns = time.perf_counter_ns() + 20_000_000  # first item due 20 ms from now
    errors: list[BaseException] = []

    def worker():
        while True:
            with cursor_lock:
                item = next(cursor, None)
            if item is None:
                return
            due_s, flow, index = item
            due_ns = start_ns + int(due_s * 1e9)
            delay = (due_ns - time.perf_counter_ns()) / 1e9
            if delay > 0:
                time.sleep(delay)
            stats.late_ns.append(max(0, time.perf_counter_ns() - due_ns))
            source = ATTACKER if flow is None else source_for(index)
            user = _User(port, source, stats, due_ns)
            try:
                if flow is None:
                    status, body, _ = user.send("GET", f"/c/{mix.guess_digits(guess_rng)}",
                                                None, None, source)
                    mix.check_guess(status, body)
                else:
                    mix.run(user.send, flow, source)
                    stats.flows.append((user.prev_ns, user.prev_ns - due_ns, tuple(user.req_ns)))
            except flows.SecurityViolation as exc:
                errors.append(exc)
                return
            except (OSError, http.client.HTTPException, ValueError) as exc:
                mix.failures.append(("transport", flow and flow[0], repr(exc)))
            finally:
                user.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    span_s = items[-1][0] if items else 0.0
    for t in threads:
        t.join(timeout=span_s + 120.0)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("client threads did not finish")
    if errors:
        raise errors[0]
    return {"stats": stats, "start_ns": start_ns, "flows": stats.flows}
