"""Batch workloads, each run in a process of its own.

``python perfbench/batch.py setup`` imports the package, makes a tiny
warm-up solve, prints ``ready`` and exits; ``run.py`` times launches of
it for ``setup_s``. ``python perfbench/batch.py run --workload W --seed S
--seconds T --trace 0|1`` does the same set-up, prints ``ready``, then
measures workload ``W`` and prints one JSON line with its figures, the
outcome of its correctness checks, and this process's peak RSS as the
OS counts it (never tracemalloc).

Workloads:

* ``sparse_1m`` -- one sparse instance, m=20,000 facilities and
  n=980,000 clients of degree 3, k=8. Each iteration builds it with
  ``ColumnarInstance.from_edges`` from edge triplets drawn here, solves
  greedy and dual at shards=1 and greedy at shards=2, and checks each
  answer is feasible.
* ``sweep_dense`` -- four dense 400x3000 instances (uniform, euclidean,
  clustered, set_cover), each solved greedy and dual by
  ``run_sequential`` with its default engine and validated.

Each iteration of both also makes one recorded greedy and one recorded
dual ``solve_columnar`` on a 24,500-node sparse instance, each followed
by ``final_digest`` and ``to_payload``.

Garbage is collected before each timed region, so no region pays for
collecting what the benchmark's own checks left behind.

With ``--trace 1`` iterations alternate untraced and traced; spans opened
here around each public call give per-layer self time, and the two
kinds of iteration give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from typing import Any

from common import BenchError, SpanLog, import_path, median, quantile, wrap_function

K = 8
SPARSE_M, SPARSE_N, DEGREE = 20_000, 980_000, 3
RECORD_M, RECORD_N = 500, 24_000
DENSE_M, DENSE_N = 400, 3000
DENSE_FAMILIES = ("uniform", "euclidean", "clustered", "set_cover")
ORACLE_M, ORACLE_N = 10, 40
#: Per-solve latency limit behind ``ok_within_limit_frac``.
LIMIT_S = {"sparse_1m": 20.0, "sweep_dense": 5.0}
VARIANTS = (("greedy", "greedy"), ("dual", "dual_ascent"))


def setup() -> None:
    """Import the layers under test and warm them with tiny solves."""
    import_path()
    global np, ColumnarInstance, solve_columnar, run_sequential
    global make_instance, FlightRecorder
    import numpy as np
    from repro.core.columnar import ColumnarInstance, solve_columnar
    from repro.core.sequential_sim import run_sequential
    from repro.fl.generators import make_instance
    from repro.obs.recorder import FlightRecorder

    tiny = ColumnarInstance.from_edges(*draw_triplets(4, 12, 2, 0), num_clients=12)
    for _, variant in VARIANTS:
        solve_columnar(tiny, 2, variant, seed=0)
        run_sequential(tiny.to_instance(), 2, variant, seed=0).solution.validate()


def draw_triplets(m: int, n: int, degree: int, seed: int):
    """Opening costs and (facility, client, cost) edges of a sparse instance.

    Each client links to ``degree`` distinct facilities at uniform(0.1, 1)
    cost; opening costs are uniform(1, 3).
    """
    rng = np.random.default_rng(seed)
    neighbors = rng.integers(0, m, size=(n, degree), dtype=np.int64)
    while True:
        ordered = np.sort(neighbors, axis=1)
        repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if not repeated.any():
            break
        neighbors[repeated] = rng.integers(0, m, size=(int(repeated.sum()), degree))
    cost = rng.uniform(0.1, 1.0, size=n * degree)
    opening = rng.uniform(1.0, 3.0, size=m)
    clients = np.repeat(np.arange(n, dtype=np.int64), degree)
    return opening, neighbors.ravel(), clients, cost


def ledger_counts(result) -> tuple[int, int, int, int]:
    metrics = result.metrics
    return (metrics.rounds, metrics.total_messages, metrics.total_bits,
            metrics.max_message_bits)


class Checks:
    """Correctness failures, gathered outside the timed regions."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def check_sparse_answers(checks: Checks, triplets, answers) -> None:
    """Feasibility and cost, recomputed from the drawn edge arrays alone."""
    opening, fac, cli, cost = triplets
    m, n = opening.shape[0], int(cli.max()) + 1
    keys = fac * n + cli
    order = np.argsort(keys)
    sorted_keys = keys[order]
    for label, answer in answers.items():
        checks.expect(answer["feasible"], f"{label}: solve reported infeasible")
        open_mask, assignment = answer["open"], answer["assign"]
        if assignment.shape != (n,) or (assignment < 0).any() or (assignment >= m).any():
            checks.expect(False, f"{label}: assignment out of range")
            continue
        checks.expect(bool(open_mask[assignment].all()), f"{label}: client on a closed facility")
        wanted = assignment * n + np.arange(n)
        slot = np.minimum(np.searchsorted(sorted_keys, wanted), keys.shape[0] - 1)
        found = sorted_keys[slot] == wanted
        checks.expect(bool(found.all()), f"{label}: client assigned to a non-neighbour")
        total = float(opening[open_mask].sum() + cost[order[slot]].sum())
        reported = answer["cost"]
        checks.expect(
            abs(total - reported) <= 1e-9 * max(1.0, abs(total)),
            f"{label}: reported cost {reported!r} != recomputed {total!r}",
        )


def check_dense_answer(checks: Checks, label: str, instance, result) -> None:
    """Feasibility and cost recomputed from the dense cost matrix."""
    costs = instance.connection_costs
    opening = np.asarray(instance.opening_costs)
    open_set = set(result.open_facilities)
    total = sum(float(opening[i]) for i in sorted(open_set))
    for j in range(instance.num_clients):
        i = result.assignment.get(j, -1)
        if i not in open_set or not np.isfinite(costs[i, j]):
            checks.expect(False, f"{label}: client {j} not on an open neighbour")
            return
        total += float(costs[i, j])
    checks.expect(
        abs(total - result.cost) <= 1e-9 * max(1.0, abs(total)),
        f"{label}: reported cost {result.cost!r} != recomputed {total!r}",
    )


def check_oracle(checks: Checks, dense_instances, seed: int) -> None:
    """On oracle-size instances, both variants must agree with the loop engine."""
    for name, instance in dense_instances:
        for short, variant in VARIANTS:
            loop = run_sequential(instance, K, variant, seed=seed, engine="loop")
            default = run_sequential(instance, K, variant, seed=seed)
            checks.expect(
                default.open_facilities == loop.open_facilities
                and default.assignment == loop.assignment,
                f"oracle {name}/{short}: default engine disagrees with loop engine",
            )
            columnar = solve_columnar(
                ColumnarInstance.from_instance(instance), K, variant, seed=seed
            )
            checks.expect(
                set(columnar.open_facilities) == set(loop.open_facilities)
                and {j: int(i) for j, i in enumerate(columnar.assignment)}
                == loop.assignment,
                f"oracle {name}/{short}: solve_columnar disagrees with loop engine",
            )


class Recording:
    """The recorded greedy+dual pair on the 24,500-node sparse instance."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        triplets = draw_triplets(RECORD_M, RECORD_N, DEGREE, seed + 1)
        self.instance = ColumnarInstance.from_edges(*triplets, num_clients=RECORD_N)
        self.plain = {
            short: solve_columnar(self.instance, K, variant, seed=seed)
            for short, variant in VARIANTS
        }
        self.digests: dict[str, str] = {}

    def run(self, log: SpanLog, checks: Checks) -> float:
        """Recorded solves plus digest and payload; returns their seconds."""
        gc.collect()
        start = time.perf_counter()
        outputs = {}
        for short, variant in VARIANTS:
            recorder = FlightRecorder(engine="columnar")
            with log.span(f"obs.recorder.{short}", request=f"record/{short}"):
                result = solve_columnar(
                    self.instance, K, variant, seed=self.seed, recorder=recorder
                )
            with log.span("obs.recorder.payload", request=f"record/{short}"):
                digest = recorder.final_digest()
                recorder.to_payload()
            outputs[short] = (result, digest)
        elapsed = time.perf_counter() - start
        for short, (result, digest) in outputs.items():
            plain = self.plain[short]
            checks.expect(
                bool((result.assignment == plain.assignment).all())
                and bool((result.open_mask == plain.open_mask).all()),
                f"record/{short}: recording changed the answer",
            )
            checks.expect(
                self.digests.setdefault(short, digest) == digest,
                f"record/{short}: final digest differs between iterations",
            )
        return elapsed

    def probe_plain(self, log: SpanLog) -> None:
        """Unrecorded solves of the same instance, the base of overhead_x."""
        for short, variant in VARIANTS:
            with log.span(f"bench.plain.{short}", request=f"record/{short}"):
                solve_columnar(self.instance, K, variant, seed=self.seed)


def keep_going(done: int, begin: float, seconds: float, trace: bool) -> bool:
    """Whether to start another iteration: until ``seconds`` have passed,
    and at least one (two when traced: one of each kind)."""
    return done < (2 if trace else 1) or time.perf_counter() - begin < seconds


def run_sparse(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    log = SpanLog()
    log.active = False
    if trace:
        import repro.core.columnar as columnar_module

        wrap_function(log, columnar_module, "columnar_parameters", "core.columnar.params")
        wrap_function(log, columnar_module, "spawn_node_rng_range", "net.rng.spawn")
    checks = Checks()
    triplets = draw_triplets(SPARSE_M, SPARSE_N, DEGREE, seed)
    recording = Recording(seed)
    ops = (
        ("greedy", "greedy", 1, "core.columnar.greedy_solve"),
        ("dual", "dual_ascent", 1, "core.columnar.dual_solve"),
        ("greedy_shards2", "greedy", 2, "core.columnar.greedy_shards2"),
    )
    iterations: list[dict[str, Any]] = []
    record_s: list[float] = []
    first: dict[str, Any] = {}
    busy = 0.0
    begin = time.perf_counter()
    while keep_going(len(iterations), begin, seconds, trace):
        traced = trace and len(iterations) % 2 == 1
        log.active = traced
        it = len(iterations)
        row: dict[str, Any] = {"traced": traced, "e2e": {}, "ok": {}, "answers": {}}
        gc.collect()
        t0 = time.perf_counter()
        with log.span("core.columnar.from_edges", request=f"it{it}/build"):
            cinst = ColumnarInstance.from_edges(*triplets, num_clients=SPARSE_N)
        build = time.perf_counter() - t0
        busy += build
        for label, variant, shards, span in ops:
            gc.collect()
            t0 = time.perf_counter()
            with log.span(span, request=f"it{it}/{label}"):
                result = solve_columnar(cinst, K, variant, seed=seed, shards=shards)
            with log.span("fl.validate", request=f"it{it}/{label}"):
                feasible = result.feasible
            busy += time.perf_counter() - t0
            row["e2e"][label] = build + time.perf_counter() - t0
            row["ok"][label] = feasible
            row["answers"][label] = {
                "open": result.open_mask, "assign": result.assignment,
                "cost": float(result.cost), "ledger": ledger_counts(result),
                "feasible": feasible,
            }
            del result
        del cinst
        record_s.append(recording.run(log, checks))
        busy += record_s[-1]
        if traced:
            recording.probe_plain(log)
        # Checks between iterations, outside every timed region.
        one, two = row["answers"]["greedy"], row["answers"]["greedy_shards2"]
        checks.expect(
            bool((one["assign"] == two["assign"]).all())
            and bool((one["open"] == two["open"]).all())
            and one["cost"] == two["cost"],
            f"it{it}: shards=2 answer differs from shards=1",
        )
        checks.expect(one["ledger"] == two["ledger"], f"it{it}: shards=2 ledger differs")
        first = first or row.pop("answers")
        for label, answer in row.pop("answers", {}).items():
            checks.expect(
                bool((answer["assign"] == first[label]["assign"]).all())
                and answer["ledger"] == first[label]["ledger"],
                f"it{it}/{label}: answer differs from the first iteration",
            )
        iterations.append(row)
    log.active = False

    check_sparse_answers(checks, triplets, first)
    check_oracle(checks, oracle_instances(seed), seed)

    latencies = [s for row in iterations for s in row["e2e"].values()]
    oks = [ok for row in iterations for ok in row["ok"].values()]
    e2e = {
        "greedy_e2e_s": median(row["e2e"]["greedy"] for row in iterations),
        "dual_e2e_s": median(row["e2e"]["dual"] for row in iterations),
        "record_e2e_s": median(record_s),
        "cost_per_client": (first["greedy"]["cost"] + first["dual"]["cost"]) / (2 * SPARSE_N),
    }
    e2e.update(serving_shape(latencies, oks, busy, LIMIT_S["sparse_1m"]))
    layers = {}
    if trace:
        greedy1 = log.durations("core.columnar.greedy_solve")
        layers = {
            "core.columnar.from_edges_s": median(log.self_times("core.columnar.from_edges")),
            "core.columnar.params_s": median(log.durations("core.columnar.params", "it")),
            "core.columnar.greedy_solve_s": median(log.self_times("core.columnar.greedy_solve")),
            "core.columnar.dual_solve_s": median(log.self_times("core.columnar.dual_solve")),
            "net.rng.spawn_s": median(log.durations("net.rng.spawn", "it")),
            "core.columnar.greedy_shards2_s": median(log.durations("core.columnar.greedy_shards2")),
            "core.columnar.shard2_speedup": median(greedy1)
            / max(median(log.durations("core.columnar.greedy_shards2")), 1e-12),
            "fl.validate_s": median(log.self_times("fl.validate")),
            "bench.trace_overhead_frac": trace_overhead(iterations),
        }
        layers.update(recorder_layers(log))
        rounds, messages, _, max_bits = first["greedy"]["ledger"]
        layers.update({
            "net.columnar.rounds": rounds,
            "net.columnar.messages": messages,
            "net.columnar.max_message_bits": max_bits,
        })
    return finish(checks, e2e, layers, attempted=len(oks), ok=sum(oks))


def oracle_instances(seed: int):
    out = []
    for i, family in enumerate(DENSE_FAMILIES):
        out.append((family, make_instance(family, ORACLE_M, ORACLE_N, seed + i)))
    triplets = draw_triplets(ORACLE_M, ORACLE_N, DEGREE, seed)
    out.append(("sparse", ColumnarInstance.from_edges(*triplets, num_clients=ORACLE_N).to_instance()))
    return out


def run_sweep(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    log = SpanLog()
    log.active = False
    checks = Checks()
    instances = [
        (family, make_instance(family, DENSE_M, DENSE_N, seed + i))
        for i, family in enumerate(DENSE_FAMILIES)
    ]
    recording = Recording(seed)
    iterations: list[dict[str, Any]] = []
    record_s: list[float] = []
    first: dict[Any, Any] = {}
    begin = time.perf_counter()
    while keep_going(len(iterations), begin, seconds, trace):
        traced = trace and len(iterations) % 2 == 1
        log.active = traced
        it = len(iterations)
        row: dict[str, Any] = {"traced": traced, "e2e": {}}
        results = {}
        for family, instance in instances:
            for short, variant in VARIANTS:
                gc.collect()
                t0 = time.perf_counter()
                with log.span(f"core.sequential_sim.{short}", request=f"it{it}/{family}/{short}"):
                    result = run_sequential(instance, K, variant, seed=seed)
                with log.span("fl.validate", request=f"it{it}/{family}/{short}"):
                    result.solution.validate()
                row["e2e"][(family, short)] = time.perf_counter() - t0
                results[(family, short)] = result
        record_s.append(recording.run(log, checks))
        if traced:
            recording.probe_plain(log)
            for family, instance in instances:
                with log.span("core.columnar.from_instance", request=f"it{it}/{family}/convert"):
                    ColumnarInstance.from_instance(instance)
        first = first or results
        for key, result in results.items():
            checks.expect(
                result.open_facilities == first[key].open_facilities
                and result.assignment == first[key].assignment,
                f"it{it}/{key}: answer differs from the first iteration",
            )
        iterations.append(row)
    log.active = False

    by_name = dict(instances)
    for (family, short), result in first.items():
        check_dense_answer(checks, f"{family}/{short}", by_name[family], result)
    check_oracle(checks, oracle_instances(seed), seed)

    # One solve request = one family solved greedy and dual, each validated.
    latencies = [
        row["e2e"][(family, "greedy")] + row["e2e"][(family, "dual")]
        for row in iterations for family in DENSE_FAMILIES
    ]
    busy = sum(sum(row["e2e"].values()) for row in iterations) + sum(record_s)
    e2e = {
        "greedy_e2e_s": median(
            sum(s for (_, short), s in row["e2e"].items() if short == "greedy")
            for row in iterations
        ),
        "dual_e2e_s": median(
            sum(s for (_, short), s in row["e2e"].items() if short == "dual")
            for row in iterations
        ),
        "record_e2e_s": median(record_s),
        "cost_per_client": sum(r.cost for r in first.values()) / (len(first) * DENSE_N),
    }
    e2e.update(serving_shape(latencies, [True] * len(latencies), busy, LIMIT_S["sweep_dense"]))
    layers = {}
    if trace:
        layers = {
            "core.sequential_sim.greedy_s": median(
                sum_per_iteration(log, "core.sequential_sim.greedy")),
            "core.sequential_sim.dual_s": median(
                sum_per_iteration(log, "core.sequential_sim.dual")),
            "fl.validate_s": median(sum_per_iteration(log, "fl.validate")),
            "core.columnar.from_instance_s": median(
                sum_per_iteration(log, "core.columnar.from_instance")),
            "bench.trace_overhead_frac": trace_overhead(iterations),
        }
        layers.update(recorder_layers(log))
        rounds, messages, _, max_bits = ledger_counts(recording.plain["greedy"])
        layers.update({
            "net.columnar.rounds": rounds,
            "net.columnar.messages": messages,
            "net.columnar.max_message_bits": max_bits,
        })
    return finish(checks, e2e, layers, attempted=len(latencies), ok=len(latencies))


def sum_per_iteration(log: SpanLog, name: str) -> list[float]:
    """Self time of span ``name`` summed within each traced iteration."""
    totals: dict[str, float] = {}
    for index in log.named(name):
        iteration = log.spans[index]["request"].split("/", 1)[0]
        totals[iteration] = totals.get(iteration, 0.0) + log.self_time(index)
    return list(totals.values())


def recorder_layers(log: SpanLog) -> dict[str, float]:
    greedy = median(log.durations("obs.recorder.greedy"))
    dual = median(log.durations("obs.recorder.dual"))
    plain = median(log.durations("bench.plain.greedy")) + median(
        log.durations("bench.plain.dual"))
    payload = log.durations("obs.recorder.payload")
    return {
        "obs.recorder.greedy_s": greedy,
        "obs.recorder.dual_s": dual,
        "obs.recorder.overhead_x": (greedy + dual) / max(plain, 1e-12),
        "obs.recorder.payload_s": median(
            payload[i] + payload[i + 1] for i in range(0, len(payload) - 1, 2)),
    }


def trace_overhead(iterations: list[dict[str, Any]]) -> float:
    """Traced over untraced iteration time, minus one."""
    traced = median(sum(row["e2e"].values()) for row in iterations if row["traced"])
    plain = median(sum(row["e2e"].values()) for row in iterations if not row["traced"])
    return traced / plain - 1.0


def serving_shape(latencies, oks, busy: float, limit_s: float) -> dict[str, float]:
    """Per-request latency, goodput over the timed seconds, in-limit share.

    A request whose answer failed validation counts against goodput and
    as missing the limit.
    """
    return {
        "goodput_ok_s": sum(oks) / busy,
        "latency_p50_ms": 1000.0 * quantile(latencies, 0.50),
        "latency_p99_ms": 1000.0 * quantile(latencies, 0.99),
        "ok_within_limit_frac": sum(
            1 for s, ok in zip(latencies, oks) if ok and s <= limit_s) / len(latencies),
    }


def finish(checks: Checks, e2e, layers, attempted: int, ok: int) -> dict[str, Any]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e["peak_rss_mb"] = peak_kb / 1024.0
    layers["failed_frac"] = (attempted - ok) / attempted
    layers["bench.ok_samples"] = ok
    return {
        "correct": not checks.problems,
        "problems": checks.problems,
        "attempted": attempted,
        "failed": attempted - ok,
        "e2e": e2e,
        "layers": layers,
    }


WORKLOADS = {"sparse_1m": run_sparse, "sweep_dense": run_sweep}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        setup()
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.workload is None:
        parser.error("run needs --workload")
    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
