"""Serving workloads: ``repro serve --tcp`` driven over raw sockets.

The server runs as a separate process (``--service-workers 2``); this
module speaks the JSON-lines protocol to it from its own code and reads
the server's counters through the ``metrics`` op.

* ``serve_distinct`` -- closed loop, 2 users on 2 connections. Each
  sends a solve, waits for its ack, sends a flush and waits for its
  answer (fetching it by id when the other user's flush completed it),
  then thinks 0-10 ms and sends the next. Every work key is distinct,
  so every request is a real message-passing solve.
* ``serve_hot`` -- open loop on one pipelined connection: bursts of 4
  requests plus a flush, due at 50 requests/s whatever the replies do,
  drawn zipf(1.1) over a 32-recipe catalog that is warmed first, so
  nearly every request is a shared-cache hit. One thread sends, another
  reads; latency counts from each request's due time. The client
  acknowledges like a delayed-ACK receiver on every burst, so whether
  the server's small reply writes wait on Nagle's algorithm does not
  depend on Linux's quick-ACK heuristics from one run to the next.

48 requests of fresh work are timed one at a time, half before the
load window and half after it, so their medians span the run: dual and
recorded ones for serve_distinct, recorded ones for serve_hot (see
:func:`probe_frames`). Mixed into the load, their slower solves and
larger payloads would set its tail. Once the server has
exited, every ``ok`` answer is compared with a direct solve of the same
work (see :mod:`oracle`).
"""

from __future__ import annotations

import json
import queue
import random
import resource
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from common import (
    BenchError, SpanLog, end_group, finish_child, median, quantile, require_source, spawn,
)
from oracle import served_signature

HERE = Path(__file__).resolve().parent
M, N = 20, 80
FAMILIES = ("uniform", "euclidean", "clustered")
LIMIT_S = {"serve_distinct": 0.250, "serve_hot": 0.100}
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0
ORACLES = 2
ORACLE_TIMEOUT_S = 90.0
#: Requests whose answers feed the exactly repeatable model counts.
FIXED_PREFIX = 128
PROBES = 48
THINK_MAX_S = 0.010
HOT_RATE, HOT_BURST, HOT_CATALOG, HOT_ZIPF = 50.0, 4, 32, 1.1
#: A generator later than this (p99) measured itself, not the server.
MAX_SEND_LAG_S = 0.5 * HOT_BURST / HOT_RATE


class Server:
    """One ``repro serve --tcp 127.0.0.1:0 --service-workers 2`` process."""

    def __init__(self) -> None:
        require_source()
        launched = time.perf_counter()
        self.proc = spawn(
            [sys.executable, "-m", "repro.cli", "serve", "--tcp", "127.0.0.1:0",
             "--service-workers", "2"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.stderr: list[str] = []
        lines: queue.Queue[str | None] = queue.Queue()
        self._drain = threading.Thread(target=self._read_stderr, args=(lines,), daemon=True)
        self._drain.start()
        deadline = launched + READY_TIMEOUT_S
        self.port = 0
        while not self.port:
            try:
                line = lines.get(timeout=max(0.01, deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise BenchError("server never reported its port: " + "".join(self.stderr[-5:]))
            if line.startswith("serving on tcp "):
                self.port = int(line.strip().rsplit(":", 1)[1])
        self.setup_s = time.perf_counter() - launched

    def _read_stderr(self, lines: "queue.Queue[str | None]") -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            lines.put(line)
        lines.put(None)

    def connect(self) -> "Connection":
        return Connection(self.port)

    def stop(self) -> int:
        """Ask the server to shut down; wait for it and everything it
        started (kill them if they will not end)."""
        if self.proc.poll() is None and self.port:
            try:
                with self.connect() as conn:
                    conn.send({"type": "shutdown"})
                    conn.read()
            except (OSError, BenchError):
                pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        end_group(self.proc.pid)
        self._drain.join(timeout=5)
        return self.proc.returncode


class Connection:
    """One client connection speaking the JSON-lines protocol."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def send(self, *frames: dict[str, Any]) -> None:
        data = "".join(json.dumps(f, separators=(",", ":")) + "\n" for f in frames)
        self.sock.sendall(data.encode())

    def delay_acks(self) -> None:
        """Acknowledge like a standard delayed-ACK receiver until the next
        delayed ACK fires, instead of by Linux's quick-ACK heuristics."""
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)

    def read(self) -> dict[str, Any]:
        line = self.reader.readline()
        if not line:
            raise BenchError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def metrics(self) -> dict[str, Any]:
        self.send({"type": "metrics"})
        reply = self.read()
        if reply.get("type") != "metrics":
            raise BenchError(f"metrics op answered {reply!r}")
        return reply["metrics"]


def solve_frame(request_id: str, family: str, seed: int, k: int, kind: str) -> dict[str, Any]:
    frame: dict[str, Any] = {
        "type": "solve", "request_id": request_id, "k": k,
        "recipe": {"family": family, "m": M, "n": N, "seed": seed},
    }
    if kind == "dual":
        frame["variant"] = "dual_ascent"
    elif kind == "record":
        frame["record"] = True
    return frame


def distinct_request(seed: int, g: int) -> dict[str, Any]:
    """The ``g``-th greedy request of serve_distinct: a work key of its own."""
    family, k = FAMILIES[g % 3], (4, 9)[(g // 3) % 2]
    return solve_frame(f"d{g}", family, seed * 1_000_003 + g, k, "greedy")


def hot_catalog(seed: int) -> list[tuple[str, dict[str, Any]]]:
    catalog = []
    for r in range(HOT_CATALOG):
        kind = "dual" if r % 4 == 3 else "greedy"
        family, k = FAMILIES[r % 3], (4, 9)[(r // 3) % 2]
        catalog.append((kind, solve_frame(f"c{r}", family, seed * 1_000_003 + r, k, kind)))
    return catalog


def probe_frames(workload: str, seed: int) -> list[tuple[str, dict[str, Any]]]:
    """Requests timed one at a time, half before the load window, half after.

    All fresh work, so each is a real solve, kept out of the load, whose
    tail it would set: dual and recorded requests in turn on
    serve_distinct; recorded ones only on serve_hot, whose dual requests
    are timed in the load.
    """
    base = seed * 1_000_003 + 500_000
    kinds = ["dual", "record"] * (PROBES // 2) if workload == "serve_distinct" else ["record"] * PROBES
    return [(kind, solve_frame(f"p{j}", "uniform", base + j, 4, kind))
            for j, kind in enumerate(kinds)]


class Ledger:
    """Every request sent in the measured window and what came back."""

    def __init__(self) -> None:
        self.requests: dict[str, dict[str, Any]] = {}
        self.lock = threading.Lock()

    def add(self, request_id: str, frame: dict[str, Any], kind: str,
            times: dict[str, Any], **extra: Any) -> None:
        entry = {"end": None, "response": None, "refused": False, **times,
                 "frame": frame, "kind": kind, **extra}
        with self.lock:
            self.requests[request_id] = entry


def counter_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    return {
        key: float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)
        for key in after
        if isinstance(after.get(key), (int, float))
    }


def closed_request(conn: Connection, frame: dict[str, Any]) -> dict[str, Any]:
    """Solve, ack, flush, answer: one request of a closed loop, with its times.

    When another connection's flush completed this request first, its
    answer is fetched by id.
    """
    rid = frame["request_id"]
    times: dict[str, Any] = {"start": time.perf_counter(), "response": None}
    conn.send(frame)
    ack = conn.read()
    times["ack"] = time.perf_counter()
    if not ack.get("accepted"):
        times["refused"] = True
        return times
    conn.send({"type": "flush"})
    times["flush"] = time.perf_counter()
    while True:
        reply = conn.read()
        if reply.get("type") == "response" and reply.get("request_id") == rid:
            times["response"] = reply
        if reply.get("type") == "flush_done":
            break
    times["flush_done"] = time.perf_counter()
    if times["response"] is None:
        conn.send({"type": "fetch", "request_id": rid})
        reply = conn.read()
        if reply.get("type") == "response":
            times["response"] = reply
    times["end"] = time.perf_counter()
    return times


def run_distinct(server: Server, seed: int, seconds: float, trace: bool,
                 log: SpanLog, ledger: Ledger) -> tuple[float, dict[str, float]]:
    users = 2
    errors: list[BaseException] = []
    with server.connect() as probe:
        before = probe.metrics()
    begin = time.perf_counter()
    deadline = begin + seconds

    def user(u: int) -> None:
        # A short random think time between requests keeps the two users
        # from locking into one phase for a whole run.
        think = random.Random(seed * users + u)
        try:
            with server.connect() as conn:
                i = 0
                while time.perf_counter() < deadline:
                    time.sleep(think.uniform(0.0, THINK_MAX_S))
                    g = i * users + u
                    traced = trace and i % 2 == 1
                    frame = distinct_request(seed, g)
                    rid = frame["request_id"]
                    times = closed_request(conn, frame)
                    ledger.add(rid, frame, "greedy", times, traced=traced, g=g)
                    if traced and "end" in times:
                        root = log.add("bench.request", times["start"], times["end"], rid)
                        log.add("service.tcp.submit_ack", times["start"], times["ack"], rid, root)
                        log.add("service.tcp.flush", times["flush"], times["flush_done"], rid, root)
                        if times["flush_done"] < times["end"]:
                            log.add("service.tcp.fetch", times["flush_done"], times["end"], rid, root)
                    i += 1
        except BaseException as error:  # reported as a failed run below
            errors.append(error)

    threads = [threading.Thread(target=user, args=(u,)) for u in range(users)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    if errors:
        raise BenchError(f"closed-loop user failed: {errors[0]!r}")
    with server.connect() as probe:
        after = probe.metrics()
    return wall, counter_delta(before, after)


def run_hot(server: Server, seed: int, seconds: float, trace: bool,
            log: SpanLog, ledger: Ledger) -> tuple[float, dict[str, float], dict[str, Any]]:
    catalog = hot_catalog(seed)
    warm: dict[str, Any] = {}
    with server.connect() as conn:
        warm_frames = [frame for _, frame in catalog]
        for frame in warm_frames:
            conn.send(frame, {"type": "flush"})
            while True:
                reply = conn.read()
                if reply.get("type") == "response":
                    warm[reply["request_id"]] = reply
                if reply.get("type") == "flush_done":
                    break
        before = conn.metrics()

    rng = random.Random(seed)
    weights = [1.0 / (r + 1) ** HOT_ZIPF for r in range(HOT_CATALOG)]
    interval = HOT_BURST / HOT_RATE
    bursts = max(1, int(seconds / interval))
    schedule = []
    n = 0
    for b in range(bursts):
        frames = []
        for r in rng.choices(range(HOT_CATALOG), weights=weights, k=HOT_BURST):
            kind, base = catalog[r]
            frame = dict(base, request_id=f"h{n}")
            frames.append((kind, frame))
            n += 1
        schedule.append(frames)

    conn = server.connect()
    flush_sent: list[float] = []
    flush_done: list[float] = []
    lags: list[float] = []
    errors: list[BaseException] = []
    expected = sum(len(frames) for frames in schedule)
    begin = time.perf_counter() + 0.05

    def sender() -> None:
        try:
            for b, frames in enumerate(schedule):
                due = begin + b * interval
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                now = time.perf_counter()
                for kind, frame in frames:
                    ledger.add(frame["request_id"], frame, kind, {"start": due},
                               sent=now, traced=trace and b % 2 == 1, burst=b)
                flush_sent.append(now)
                lags.append(now - due)
                conn.delay_acks()
                conn.send(*(frame for _, frame in frames), {"type": "flush"})
        except BaseException as error:  # reported as a failed run below
            errors.append(error)

    def reader() -> None:
        received = 0
        try:
            while len(flush_done) < len(schedule) or received < expected:
                reply = conn.read()
                now = time.perf_counter()
                kind = reply.get("type")
                entry = ledger.requests.get(reply.get("request_id", ""))
                if kind == "ack" and entry is not None:
                    entry["ack"] = now
                    if not reply.get("accepted"):
                        entry["refused"] = True
                        received += 1
                elif kind == "response" and entry is not None:
                    if entry["response"] is None:
                        received += 1
                    entry["response"], entry["end"] = reply, now
                elif kind == "flush_done":
                    flush_done.append(now)
        except BaseException as error:  # reported as a failed run below
            errors.append(error)

    send_thread = threading.Thread(target=sender)
    read_thread = threading.Thread(target=reader)
    read_thread.start()
    send_thread.start()
    send_thread.join()
    read_thread.join(timeout=REPLY_TIMEOUT_S)
    stalled = read_thread.is_alive()
    conn.sock.shutdown(socket.SHUT_RDWR)
    read_thread.join()
    conn.close()
    wall = time.perf_counter() - begin
    if errors and not stalled:
        raise BenchError(f"open-loop generator failed: {errors[0]!r}")
    if trace:
        for rid, entry in ledger.requests.items():
            if not entry.get("traced") or entry["end"] is None:
                continue
            root = log.add("bench.request", entry["start"], entry["end"], rid)
            if "ack" in entry:
                log.add("service.tcp.submit_ack", entry["sent"], entry["ack"], rid, root)
            b = entry["burst"]
            if b < len(flush_done):
                log.add("service.tcp.flush", flush_sent[b], flush_done[b], rid, root)
    with server.connect() as probe:
        after = probe.metrics()
    lag_p99 = quantile(lags, 0.99)
    if lag_p99 > MAX_SEND_LAG_S:
        raise BenchError(
            f"open-loop generator ran {1000 * lag_p99:.1f} ms late (p99); run invalid"
        )
    extra = {"warm": warm, "warm_frames": warm_frames, "send_lag_p99_ms": 1000.0 * lag_p99}
    return wall, counter_delta(before, after), extra


def verify(responses: list[tuple[dict[str, Any], dict[str, Any]]]) -> list[str]:
    """Compare every ok answer with a direct solve of the same work.

    The direct solves run in :data:`ORACLES` ``oracle.py`` processes,
    each fed its share of the work on standard input.
    """
    by_work: dict[str, list[tuple[str, str]]] = {}
    frames: dict[str, dict[str, Any]] = {}
    for frame, response in responses:
        work = {k: v for k, v in frame.items() if k not in ("request_id", "record")}
        key = json.dumps(work, sort_keys=True)
        frames[key] = work
        by_work.setdefault(key, []).append((frame["request_id"], served_signature(response)))
    keys = sorted(by_work)
    shares = [keys[i::ORACLES] for i in range(ORACLES)]
    procs = [
        spawn([sys.executable, str(HERE / "oracle.py")], stdin=subprocess.PIPE,
              stdout=subprocess.PIPE, text=True)
        for _ in shares
    ]
    try:
        with ThreadPoolExecutor(max_workers=ORACLES) as talk:
            outs = list(talk.map(
                lambda proc, share: finish_child(
                    proc, ORACLE_TIMEOUT_S, "oracle process",
                    json.dumps([frames[k] for k in share])),
                procs, shares,
            ))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    direct = {}
    for share, out in zip(shares, outs):
        direct.update(zip(share, json.loads(out)))
    problems = []
    for key in keys:
        for rid, served in by_work[key]:
            if served != direct.get(key):
                problems.append(f"{rid}: served answer differs from the direct solve")
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    setups = []
    for _ in range(2):
        spare = Server()
        setups.append(spare.setup_s)
        spare.stop()
    server = Server()
    setups.append(server.setup_s)
    log = SpanLog()
    ledger = Ledger()
    extra: dict[str, Any] = {}
    probes = probe_frames(workload, seed)

    def time_probes(frames: list[tuple[str, dict[str, Any]]]) -> None:
        with server.connect() as conn:
            for kind, frame in frames:
                ledger.add(frame["request_id"], frame, kind, closed_request(conn, frame), probe=True)

    try:
        time_probes(probes[:PROBES // 2])
        if workload == "serve_distinct":
            wall, counters = run_distinct(server, seed, seconds, trace, log, ledger)
        else:
            wall, counters, extra = run_hot(server, seed, seconds, trace, log, ledger)
        time_probes(probes[PROBES // 2:])
    finally:
        code = server.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if code != 0:
        raise BenchError(f"server exited with code {code}: " + "".join(server.stderr[-5:]))

    every = list(ledger.requests.values())
    answered = [e for e in every if e["response"] is not None and e["response"].get("status") == "ok"]
    # The load window's requests; probes are timed on their own.
    entries = [e for e in every if not e.get("probe")]
    ok = [e for e in answered if not e.get("probe")]
    latency = {id(e): e["end"] - e["start"] for e in answered}
    limit = LIMIT_S[workload]
    problems = verify(
        [(e["frame"], e["response"]) for e in answered]
        + [(frame, extra["warm"][frame["request_id"]]) for frame in extra.get("warm_frames", ())]
    )
    if workload == "serve_distinct":
        fixed = [e["response"] for e in ok if e["g"] < FIXED_PREFIX]
    else:
        fixed = [extra["warm"][frame["request_id"]] for _, frame in hot_catalog(seed)]

    def kind_median(kind: str) -> float:
        return median(latency[id(e)] for e in answered if e["kind"] == kind)

    e2e = {
        "setup_s": median(setups),
        "greedy_e2e_s": kind_median("greedy"),
        "dual_e2e_s": kind_median("dual"),
        "record_e2e_s": kind_median("record"),
        "cost_per_client": sum(r["result"]["cost"] for r in fixed) / (max(len(fixed), 1) * N),
        "peak_rss_mb": peak_kb / 1024.0,
        "goodput_ok_s": len(ok) / wall,
        "latency_p50_ms": 1000.0 * quantile((latency[id(e)] for e in ok), 0.50),
        "latency_p99_ms": 1000.0 * quantile((latency[id(e)] for e in ok), 0.99),
        "ok_within_limit_frac": sum(1 for e in ok if latency[id(e)] <= limit) / len(entries),
    }
    layers = {}
    if trace:
        layers = serve_layers(workload, ok, entries, counters, log, fixed, extra, latency)
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": len(every),
        "failed": len(every) - len(answered),
        "e2e": e2e,
        "layers": layers,
    }


def serve_layers(workload, ok, entries, counters, log, fixed, extra, latency) -> dict[str, float]:
    responses = [e["response"] for e in ok]
    waits = [1000.0 * r.get("wait_s", 0.0) for r in responses]
    routed = [v for key, v in counters.items() if key.startswith("route_worker_")]
    hits, misses = counters.get("shared_cache_hits", 0.0), counters.get("shared_cache_misses", 0.0)
    accepted = counters.get("requests_accepted", 0.0)
    batches = counters.get("batches", 0.0)
    short_circuits = counters.get("route_cache_short_circuits", 0.0)
    # Compare like with like: greedy requests only, traced vs not.
    traced = [e for e in ok if e["kind"] == "greedy" and e.get("traced")]
    untraced = [e for e in ok if e["kind"] == "greedy" and not e.get("traced")]
    layers = {
        "service.worker.engine_p50_ms": median(
            1000.0 * r["manifest"]["wall_seconds"] for r in responses),
        "service.queue.wait_p50_ms": quantile(waits, 0.50),
        "service.queue.wait_p99_ms": quantile(waits, 0.99),
        "service.router.imbalance": max(routed) / (sum(routed) / len(routed)) if sum(routed) else 0.0,
        "service.tcp.submit_ack_p50_ms": 1000.0 * median(log.durations("service.tcp.submit_ack")),
        "service.tcp.flush_p50_ms": 1000.0 * quantile(log.durations("service.tcp.flush"), 0.50),
        "service.tcp.flush_p99_ms": 1000.0 * quantile(log.durations("service.tcp.flush"), 0.99),
        "service.router.shared_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.batcher.dedup_ratio": counters.get("dedup_hits", 0.0) / accepted if accepted else 0.0,
        "service.batcher.batch_size": (accepted - short_circuits) / batches if batches else 0.0,
        "service.resilience.exec_retries": counters.get("exec_retries", 0.0),
        "service.queue.sheds": counters.get("sheds", 0.0),
        "service.queue.timeouts": counters.get("timeouts", 0.0),
        "net.simulator.rounds_per_solve": sum(r["result"]["rounds"] for r in fixed) / len(fixed),
        "net.simulator.messages_per_solve": sum(
            r["result"]["total_messages"] for r in fixed) / len(fixed),
        "bench.trace_overhead_frac": median(latency[id(e)] for e in traced)
        / max(median(latency[id(e)] for e in untraced), 1e-12) - 1.0,
        "failed_frac": (len(entries) - len(ok)) / len(entries),
        "bench.ok_samples": len(ok),
    }
    if workload == "serve_hot":
        layers["bench.send_lag_p99_ms"] = extra["send_lag_p99_ms"]
    return layers
