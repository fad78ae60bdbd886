"""Numpy-batched engines for the sequential emulator.

These functions are drop-in replacements for the pure-Python loops in
:mod:`repro.core.sequential_sim` (``engine="loop"``): same protocol
semantics, same per-node random streams, same floating-point results —
but with every per-iteration client/facility update expressed as array
operations over the instance's ``numpy.inf``-padded dense cost matrix.

**Determinism contract.** The loop engine is the cross-validated
reference (it is itself validated coin-for-coin against the
message-passing simulator), so the batched engines must reproduce it
*bit for bit*, not merely approximately:

* Running sums are computed with ``numpy.cumsum``, which accumulates
  strictly left to right like the reference's ``total += cost`` loops
  (``numpy.sum`` would use pairwise summation and could differ in the
  last ulp — enough to flip a tight threshold or payment comparison).
  Skipped entries contribute ``0.0`` terms, which IEEE addition absorbs
  exactly for the non-negative partial sums that occur here.
* Ties break the same way: ``argsort(kind="stable")`` reproduces the
  reference's ``(cost, node id)`` orderings, and ``argmax``/``argmin``
  return the *first* extremum, matching the ``(priority, -i)`` /
  ``(cost, i)`` tie-break keys.
* Coin flips come from the same :func:`~repro.net.rng.spawn_node_rngs`
  streams, drawn for exactly the same facilities in the same situations
  (streams are per-node independent, so only the per-stream draw *count*
  matters, and both engines draw once per proposing/selected facility).

``tests/test_sequential_equivalence.py`` enforces the contract across
every instance family, both variants, and both engines.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.parameters import TradeoffParameters
from repro.exceptions import AlgorithmError
from repro.fl.instance import FacilityLocationInstance
from repro.net.rng import spawn_node_rngs

__all__ = ["emulate_greedy_vectorized", "emulate_dual_vectorized"]


def emulate_greedy_vectorized(
    instance: FacilityLocationInstance,
    params: TradeoffParameters,
    seed: int,
    open_fraction: float = 0.5,
    recorder=None,
) -> tuple[set[int], dict[int, int]]:
    """Batched scaled-parallel-greedy emulation (flagship variant)."""
    m = instance.num_facilities
    n = instance.num_clients
    rngs = spawn_node_rngs(seed, m + n)  # facility i uses stream i
    costs = instance.connection_costs  # (m, n), inf-padded, read-only
    opening = np.asarray(instance.opening_costs, dtype=float)
    # Per-facility client order by (cost, client node id). A stable sort
    # on cost keeps equal-cost clients in index order, which is exactly
    # the (cost, m + j) key of GreedyFacilityNode._best_star.
    order = np.argsort(costs, axis=1, kind="stable")
    sorted_costs = np.take_along_axis(costs, order, axis=1)
    sorted_finite = np.isfinite(sorted_costs)
    column = np.arange(n)

    is_open = np.zeros(m, dtype=bool)
    active = np.ones(n, dtype=bool)
    assignment = np.full(n, -1, dtype=np.int64)
    priorities = np.empty(m, dtype=float)

    for iteration in range(1, params.num_iterations + 1):
        scale = params.scale_of_iteration(iteration)
        if not active.any():
            # Facilities observe no actives and draw no coins — identical
            # to the message run, where no ACTIVE message arrives.
            if recorder is not None:
                recorder.observe_greedy_iteration(iteration, is_open, assignment)
            continue
        # Star search: the largest qualifying prefix of each facility's
        # active clients. `mask` marks prefix slots holding an active
        # client; masked-out slots contribute a 0.0 cost term and do not
        # advance the prefix size, so `totals[i, p] / sizes[i, p]` at a
        # masked slot equals the reference's fee-plus-prefix efficiency.
        mask = active[order] & sorted_finite
        vals = np.where(mask, sorted_costs, 0.0)
        fees = np.where(is_open, 0.0, opening)
        totals = np.cumsum(np.concatenate([fees[:, None], vals], axis=1), axis=1)[
            :, 1:
        ]
        sizes = np.cumsum(mask, axis=1)
        eff = totals / np.maximum(sizes, 1)
        qual = params.qualifies_many(eff, scale) & mask
        best_size = np.max(np.where(qual, sizes, 0), axis=1)
        proposers = best_size > 0

        # One coin per proposing facility, from its own stream — the same
        # draws, in the same situations, as the reference engines.
        priorities.fill(-1.0)
        for i in np.flatnonzero(proposers):
            priorities[i] = rngs[i].random()

        # Scatter star membership back to client space and let every
        # active client accept its best offer: highest priority, then
        # smallest facility id (argmax returns the first maximum).
        member_sorted = mask & (sizes <= best_size[:, None]) & proposers[:, None]
        member = np.zeros((m, n), dtype=bool)
        np.put_along_axis(member, order, member_sorted, axis=1)
        offer_key = np.where(member, priorities[:, None], -1.0)
        best_fac = np.argmax(offer_key, axis=0)
        has_offer = offer_key[best_fac, column] >= 0.0

        # Opening rule: a closed facility opens only when enough of its
        # proposed star accepted (same ceil arithmetic as the reference).
        accepted = np.bincount(best_fac[has_offer], minlength=m)
        needed = np.where(
            is_open, 1, np.maximum(1, np.ceil(best_size * open_fraction))
        )
        success = proposers & (accepted >= needed) & (accepted >= 1)
        is_open |= success
        served = has_offer & success[best_fac]
        assignment[served] = best_fac[served]
        active &= ~served
        if recorder is not None:
            recorder.observe_greedy_iteration(iteration, is_open, assignment)

    # Force phase: decisions are made against the open set as of the end
    # of the iterations (matching the PROBE round); forced openings land
    # simultaneously afterwards and never affect other clients' choices.
    if active.any():
        open_costs = np.where(is_open[:, None], costs, np.inf)
        join_cost = open_costs.min(axis=0)
        join_target = open_costs.argmin(axis=0)
        forced_target = costs.argmin(axis=0)
        has_open = np.isfinite(join_cost)
        target = np.where(has_open, join_target, forced_target)
        assignment[active] = target[active]
        is_open[forced_target[active & ~has_open]] = True

    open_set = {int(i) for i in np.flatnonzero(is_open)}
    connected = {int(j): int(assignment[j]) for j in range(n)}
    return open_set, connected


def emulate_dual_vectorized(
    instance: FacilityLocationInstance,
    params: TradeoffParameters,
    seed: int,
    policy: RoundingPolicy,
    recorder=None,
) -> tuple[set[int], dict[int, int]]:
    """Batched dual-ascent emulation (variant)."""
    m = instance.num_facilities
    n = instance.num_clients
    rngs = spawn_node_rngs(seed, m + n)
    costs = instance.connection_costs  # (m, n), inf-padded
    opening = np.asarray(instance.opening_costs, dtype=float)
    column = np.arange(n)

    gamma = costs.min(axis=0)  # every client has >= 1 finite edge
    alphas = np.zeros(n, dtype=float)
    frozen = np.zeros(n, dtype=bool)
    tight = np.zeros(m, dtype=bool)
    witnesses = np.zeros((m, n), dtype=bool)
    # Same ladder-scaled tolerance as DualFacilityNode (see its comment
    # on float cancellation with tiny opening costs).
    slack = 1e-12 * np.maximum(opening, params.eff_max)

    for level in range(1, params.num_scales + 1):
        threshold = params.threshold(level)
        alphas = np.where(frozen, alphas, np.maximum(gamma, threshold))
        # Payments accumulate in client order — cumsum, not sum, so the
        # running total matches the reference's dict-iteration sum bit
        # for bit (alphas - inf is -inf, clamped to a 0.0 contribution).
        contrib = np.maximum(0.0, alphas[None, :] - costs)
        payment = np.cumsum(contrib, axis=1)[:, -1]
        tight |= payment >= opening - slack
        witnesses |= tight[:, None] & (costs <= alphas[None, :] * (1 + 1e-12))
        frozen = witnesses.any(axis=0)
        if recorder is not None:
            # Row-major nonzero of the transpose: (client, facility)
            # pairs, clients ascending, facilities ascending within each.
            clients, facilities = np.nonzero(witnesses.T)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(clients, minlength=n), out=offsets[1:])
            recorder.observe_dual_level(
                level, alphas, frozen, tight, offsets, facilities
            )

    # Rounding phase: every client selects its cheapest witness.
    if not frozen.all():
        j = int(np.flatnonzero(~frozen)[0])
        raise AlgorithmError(
            f"client {j} has no witness after the final level; "
            "this contradicts the ladder's terminal property"
        )
    witness_cost = np.where(witnesses, costs, np.inf)
    target = witness_cost.argmin(axis=0)
    selected = np.zeros((m, n), dtype=bool)
    selected[target, column] = True
    has_selectors = selected.any(axis=1)

    is_open = np.zeros(m, dtype=bool)
    if policy.mode == "select_all":
        is_open |= has_selectors
    else:
        mass = np.cumsum(
            np.where(selected, np.maximum(0.0, alphas[None, :] - costs), 0.0),
            axis=1,
        )[:, -1]
        scale = math.log(max(params.num_nodes, 2))
        factor = policy.c_round * scale
        for i in np.flatnonzero(has_selectors):
            probability = min(
                1.0, factor * float(mass[i]) / max(float(opening[i]), 1e-300)
            )
            if rngs[i].random() < probability:
                is_open[i] = True
    if recorder is not None:
        recorder.observe_dual_rounding(is_open)

    # Clients join the cheapest witness opened by the rounding coin flips;
    # leftovers force their cheapest witness open (deterministic fallback).
    # Join decisions see only the coin-opened set, matching the OPEN_AD
    # round of the message protocol.
    open_witness = witnesses & is_open[:, None]
    open_witness_cost = np.where(open_witness, costs, np.inf)
    join_target = open_witness_cost.argmin(axis=0)
    has_open_witness = open_witness.any(axis=0)
    final = np.where(has_open_witness, join_target, target)
    is_open[target[~has_open_witness]] = True

    open_set = {int(i) for i in np.flatnonzero(is_open)}
    connected = {int(j): int(final[j]) for j in range(n)}
    return open_set, connected
