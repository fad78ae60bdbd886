"""Benchmark of the repro package: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/repro``. Workloads:
``sparse_1m`` and ``sweep_dense`` (batch, each in a process of its own,
see ``batch.py``) and ``serve_distinct`` and ``serve_hot`` (a ``repro
serve --tcp`` process driven over its line protocol, see ``serve.py``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace
1`` they are the per-layer ones, from spans opened around each call
into a layer, plus the tracing overhead. A metric a workload does not
exercise reads 0. Exits non-zero without a result when the package
sources are missing or a run cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    ROOT, BenchError, become_subreaper, end_all_groups, finish_child, median,
    require_source, spawn,
)

HERE = Path(__file__).resolve().parent
BATCH = ("sparse_1m", "sweep_dense")
SERVE = ("serve_distinct", "serve_hot")
#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3
CHILD_TIMEOUT_S = 170.0


def launch_batch(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start ``batch.py``; return it once ready, with the seconds that took."""
    launched = time.perf_counter()
    proc = spawn(
        [sys.executable, str(HERE / "batch.py"), *args],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - launched
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("batch workload process did not get ready")
    return proc, ready


def run_batch(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUPS - 1):
        proc, ready = launch_batch(["setup"])
        finish_child(proc, CHILD_TIMEOUT_S, "batch set-up process")
        setups.append(ready)
    proc, ready = launch_batch([
        "run", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ])
    setups.append(ready)
    lines = finish_child(proc, CHILD_TIMEOUT_S, f"{workload} process").strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} process printed no result")
    result = json.loads(lines[-1])
    result["e2e"]["setup_s"] = median(setups)
    return result


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=BATCH + SERVE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination request unwinds through every ``finally`` below, so
    # no child outlives the benchmark.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, lambda signum, _: sys.exit(128 + signum))
    become_subreaper()
    clean = False
    try:
        require_source()
        spec = declared()
        if args.workload in BATCH:
            result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            import serve

            result = serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
        clean = True
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        end_all_groups(15.0 if clean else 0.0)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    produced = result["layers"] if args.trace else result["e2e"]
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(produced.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in names
    }
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
