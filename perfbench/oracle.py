"""Direct solves that served answers must match byte for byte.

The oracle solves a request's work the way ``repro solve --trace`` does
-- :func:`repro.core.algorithm.solve_distributed` on the recipe's
instance, with the manifest built by
:meth:`repro.obs.manifest.RunRecord.from_run` -- without any service in
between. Wall-clock fields are zeroed on both sides before comparing.

    PYTHONPATH=src python3 perfbench/oracle.py < requests.json

reads a JSON list of wire requests and prints the JSON list of their
direct signatures, in order.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Mapping


def strip_wall_clock(manifest: Mapping[str, Any]) -> dict[str, Any]:
    cleaned = json.loads(json.dumps(manifest))
    if cleaned:
        cleaned["wall_seconds"] = 0.0
        cleaned.get("timeline_summary", {}).pop("total_wall_ms", None)
    return cleaned


def served_signature(response: Mapping[str, Any]) -> str:
    return json.dumps(
        {"result": response.get("result", {}),
         "manifest": strip_wall_clock(response.get("manifest", {}))},
        sort_keys=True,
    )


def direct_signature(request: Mapping[str, Any]) -> str:
    """Signature of the direct solve of one wire request (recipe form)."""
    from repro.core.algorithm import solve_distributed
    from repro.core.dual_ascent_nodes import RoundingPolicy
    from repro.fl.generators import make_instance
    from repro.obs.manifest import RunRecord

    recipe = request["recipe"]
    instance = make_instance(recipe["family"], recipe["m"], recipe["n"], recipe["seed"])
    k = int(request.get("k", 9))
    variant = str(request.get("variant", "greedy"))
    seed = int(request.get("seed", 0))
    rounding = str(request.get("rounding", "select_all"))
    c_round = float(request.get("c_round", 1.0))
    result = solve_distributed(
        instance, k=k, variant=variant, seed=seed,
        rounding=RoundingPolicy(mode=rounding, c_round=c_round),
    )
    manifest = RunRecord.from_run(
        result,
        seed=seed,
        parameters={"k": k, "variant": variant, "rounding": rounding, "c_round": c_round},
        wall_seconds=result.wall_seconds,
        extras={},
    )
    answer = {
        "instance": instance.name,
        "k": k,
        "variant": variant,
        "cost": result.cost,
        "open_facilities": sorted(result.open_facilities),
        "rounds": result.metrics.rounds,
        "total_messages": result.metrics.total_messages,
        "max_message_bits": result.metrics.max_message_bits,
    }
    return json.dumps(
        {"result": answer, "manifest": strip_wall_clock(manifest.to_dict())},
        sort_keys=True,
    )


if __name__ == "__main__":
    requests = json.load(sys.stdin)
    json.dump([direct_signature(request) for request in requests], sys.stdout)
