"""Columnar sharded execution engine for both protocol variants.

The object-graph simulator and even the dense vectorized engines top out
well below a million nodes: the simulator spends its time on per-node
Python objects and per-inbox lists, and the dense engines materialize an
``(m, n)`` cost matrix that costs ``8 m n`` bytes regardless of how
sparse the bipartite graph actually is. This module is the third
re-implementation of the protocol semantics, built for scale:

* **Columnar state.** All per-node state — facility open flags, client
  active/assignment state, duals, alpha levels, freeze flags — lives in
  flat numpy buffers indexed by node id. The message plane is columnar
  too: instead of per-node inbox lists, every facility⇄client edge is one
  slot in CSR-style edge arrays with offset/count indexing
  (:class:`ColumnarInstance`), and a protocol "message" is a flag or
  value written into an edge column (e.g. the per-iteration ``member``
  proposal plane) that the receiving side gathers through a permutation.
* **Sharding.** One instance's node range splits across worker processes
  over ``multiprocessing.shared_memory``: every worker owns one facility
  slice and one client slice, runs the same slice-parametric kernels the
  in-process path runs, and synchronizes on a per-phase barrier. The
  cross-shard "message exchange" is exactly the bucketed ndarray
  scatter/gather through the shared edge plane — facility shards write
  their edge slices, client shards gather them through the client-order
  permutation after the barrier.

**Determinism contract.** The loop engine stays the small-scale oracle,
and this engine must match it (and the dense vectorized engine) *bit for
bit* — same open sets, same assignments, same coin flips, same recorder
digests — at every shard count:

* The per-facility prefix sums of the greedy star search are computed on
  a degree-padded 2-D array with ``numpy.cumsum`` (fee in column 0, one
  edge per subsequent column in (cost, client id) order). Absent and
  inactive slots contribute exact ``0.0`` terms, which IEEE addition
  absorbs exactly for the non-negative partial sums that occur here, so
  the prefix values equal the dense engine's inf-padded row cumsums at
  every real-edge position.
* First-extremum tie-breaks (``argmax``/``argmin`` in the dense engine)
  become two-pass segment reductions: a ``reduceat`` for the extreme
  value, then a ``reduceat`` over facility ids restricted to edges
  attaining it — the minimum id among ties, which is exactly what a
  first-extremum scan returns.
* Coin flips come from the same per-node ``SeedSequence`` streams
  (:func:`~repro.net.rng.spawn_node_rng_range`); only facilities ever
  draw, so a million-node run builds only ``m`` generators (none at all
  for dual ascent under ``select_all`` rounding, which flips no coin),
  and a shard builds only its slice — streams identical to the full
  spawn by the spawn-key prefix property.
* Shard boundaries never reorder arithmetic: every kernel reads shared
  state only between barriers and writes only its own slice (plus
  idempotent single-byte ``True`` scatters in the two force/join apply
  phases, which are race-free and order-independent).

``tests/test_columnar.py`` enforces the contract — solutions and
FlightRecorder digests — against both reference engines at shards 1 and 4.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
from dataclasses import dataclass
from functools import cached_property
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

from repro.core.algorithm import Variant
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.parameters import TradeoffParameters
from repro.exceptions import AlgorithmError
from repro.fl.instance import FacilityLocationInstance
from repro.net.rng import spawn_node_rng_range

__all__ = [
    "ColumnarInstance",
    "ColumnarSolveResult",
    "columnar_efficiency_range",
    "columnar_parameters",
    "emulate_greedy_columnar",
    "emulate_dual_columnar",
    "solve_columnar",
]

#: Test-only perturbation hook mirroring
#: :data:`repro.core.sequential_sim._TEST_DUAL_ALPHA_RAISE_HOOK`: when set
#: to a callable ``(level, client, value) -> value``, every dual alpha
#: raise in the *in-process* columnar path passes through it. Tests
#: monkeypatch it to force a single mis-raise on the columnar plane and
#: assert that ``repro divergence`` pinpoints exactly that level and
#: client. Never set in production (and never forwarded to shard workers).
_TEST_COLUMNAR_DUAL_ALPHA_RAISE_HOOK: Callable[[int, int, float], float] | None = None

#: A barrier wait exceeding this is treated as a dead shard, not a slow one.
_BARRIER_TIMEOUT_S = 600.0

#: Exclusive bound on facilities, clients and edges of one instance: the
#: products in :meth:`ColumnarInstance.from_edges`'s packed sort keys stay
#: below ``2**62`` under it.
_MAX_PLANE_SIZE = 1 << 31


# ----------------------------------------------------------------------
# Columnar instance plane
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnarInstance:
    """CSR edge-plane representation of a facility-location instance.

    Edges are stored twice, as two orderings of the same edge set:

    * **Facility-major greedy order** (``g_*`` columns, segmented by
      ``fac_ptr``): within each facility, edges sort by (cost, client id)
      — the exact prefix order of the greedy star search.
    * **Facility-major client order** (``byc_*`` columns, same
      ``fac_ptr`` segments): within each facility, edges sort by client
      id — the exact accumulation order of the dual payment sums.

    The client side (``cli_*`` columns, segmented by ``cli_ptr``) sorts
    by (client, facility id); ``cli_edge`` maps each client-side slot to
    its greedy-order edge index, which is how per-edge flags written by
    facility kernels are gathered client-side (the columnar inbox).
    """

    m: int
    n: int
    opening: np.ndarray  # (m,) float64
    fac_ptr: np.ndarray  # (m+1,) int64 — segment offsets into g_*/byc_*
    g_fac: np.ndarray  # (E,) int64, greedy order
    g_cli: np.ndarray  # (E,) int64
    g_cost: np.ndarray  # (E,) float64
    byc_cli: np.ndarray  # (E,) int64, client order per facility
    byc_cost: np.ndarray  # (E,) float64
    cli_ptr: np.ndarray  # (n+1,) int64 — segment offsets into cli_*
    cli_fac: np.ndarray  # (E,) int64
    cli_cost: np.ndarray  # (E,) float64
    cli_edge: np.ndarray  # (E,) int64 — client slot -> greedy edge index
    name: str = "columnar"

    @property
    def num_edges(self) -> int:
        """Total number of finite facility-client edges."""
        return int(self.g_cost.shape[0])

    @property
    def num_nodes(self) -> int:
        """Facilities plus clients (the protocol's ``N``)."""
        return self.m + self.n

    @property
    def client_degrees(self) -> np.ndarray:
        """Edges per client, ``(n,)``."""
        return np.diff(self.cli_ptr)

    @property
    def facility_degrees(self) -> np.ndarray:
        """Edges per facility, ``(m,)``."""
        return np.diff(self.fac_ptr)

    @classmethod
    def from_edges(
        cls,
        opening: np.ndarray,
        fac_idx: np.ndarray,
        cli_idx: np.ndarray,
        cost: np.ndarray,
        num_clients: int,
        name: str = "columnar",
    ) -> "ColumnarInstance":
        """Build the dual-ordered CSR plane from an edge triplet list.

        No lexicographic sort is needed. The (cost, client) order is one
        ``np.argsort`` of the costs, with ties then broken by a stable sort
        of the packed int64 key ``dense_cost_rank * n + client``. Every
        other ordering is a *stable* sort, by a single id, of an ordering
        already built, done as a value sort of the packed int64 key
        ``id * E + position`` (``E`` edges; see :func:`_stable_order`):

        * greedy (facility, cost, client) — the (cost, client) order
          stably sorted by facility;
        * client side (client, facility) — the facility-major greedy order
          stably sorted by client, so the positions it yields are
          ``cli_edge`` itself;
        * ``byc`` (facility, client) — the client side stably sorted by
          facility; a repeated pair shows up as two adjacent equal entries.

        Keys stay below ``2**62`` while ``m``, ``n`` and ``E`` are below
        ``2**31``; larger instances are refused before anything is
        allocated.
        """
        opening = np.ascontiguousarray(opening, dtype=np.float64)
        fac_idx = np.asarray(fac_idx, dtype=np.int64)
        cli_idx = np.asarray(cli_idx, dtype=np.int64)
        cost = np.asarray(cost, dtype=np.float64)
        if opening.ndim != 1:
            raise AlgorithmError(f"opening costs must be 1-D, got shape {opening.shape}")
        if fac_idx.ndim != 1 or cli_idx.ndim != 1 or cost.ndim != 1:
            raise AlgorithmError(
                "edge arrays must be 1-D, got shapes "
                f"{fac_idx.shape}, {cli_idx.shape}, {cost.shape}"
            )
        if not fac_idx.shape == cli_idx.shape == cost.shape:
            raise AlgorithmError(
                "edge arrays must have equal lengths, got "
                f"{fac_idx.shape[0]}, {cli_idx.shape[0]}, {cost.shape[0]}"
            )
        m = int(opening.shape[0])
        n = int(num_clients)
        num_edges = int(cost.shape[0])
        for count, what in ((m, "facilities"), (n, "clients"), (num_edges, "edges")):
            if count >= _MAX_PLANE_SIZE:
                raise AlgorithmError(
                    f"{count} {what} reach the columnar limit of 2**31 "
                    "(the packed int64 sort keys would overflow)"
                )
        if not np.all(np.isfinite(opening)):
            raise AlgorithmError("opening costs must be finite")
        if m and float(opening.min()) < 0:
            raise AlgorithmError("opening costs must be non-negative")
        if not np.all(np.isfinite(cost)) or (num_edges and float(cost.min()) < 0):
            raise AlgorithmError("columnar edges must have finite non-negative costs")
        for ids, side, bound in ((fac_idx, "facility", m), (cli_idx, "client", n)):
            if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= bound):
                e = int(np.flatnonzero((ids < 0) | (ids >= bound))[0])
                raise AlgorithmError(
                    f"edge {e} (facility {int(fac_idx[e])}, client {int(cli_idx[e])}) "
                    f"names {side} {int(ids[e])} outside [0, {bound})"
                )
        client_deg = np.bincount(cli_idx, minlength=n)
        if n and int(client_deg.min()) < 1:
            j = int(np.flatnonzero(client_deg == 0)[0])
            raise AlgorithmError(f"client {j} has no facility edge; instance infeasible")
        cli_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(client_deg, out=cli_ptr[1:])
        fac_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(fac_idx, minlength=m), out=fac_ptr[1:])
        # (cost, client) order: sort the costs, rank equal costs densely
        # (0.0 and -0.0 compare equal, so they share a rank), then break
        # ties by client. That second key is already sorted outside runs
        # of equal cost, which a stable (merge-based) sort passes over fast.
        by_rank = np.argsort(cost)
        sorted_cost = cost[by_rank]
        dense = np.zeros(num_edges, dtype=np.int64)
        np.cumsum(sorted_cost[1:] != sorted_cost[:-1], out=dense[1:])
        del sorted_cost
        dense *= n
        dense += cli_idx[by_rank]
        by_rank = by_rank[np.argsort(dense, kind="stable")]
        del dense
        greedy = by_rank[_stable_order(fac_idx[by_rank])]
        del by_rank
        g_fac = np.repeat(np.arange(m, dtype=np.int64), np.diff(fac_ptr))
        g_cli = cli_idx[greedy]
        g_cost = cost[greedy]
        del greedy
        # Client side, as greedy edge indices (the gather side of the
        # columnar inbox).
        cli_edge = _stable_order(g_cli)
        cli_fac = g_fac[cli_edge]
        cli_cost = g_cost[cli_edge]
        byc = _stable_order(cli_fac)
        byc_cli = np.repeat(np.arange(n, dtype=np.int64), client_deg)[byc]
        byc_cost = cli_cost[byc]
        del byc
        # byc is (facility, client)-sorted and g_fac is facility-sorted, so
        # a repeated pair sits at adjacent positions of the same segment.
        repeated = (byc_cli[1:] == byc_cli[:-1]) & (g_fac[1:] == g_fac[:-1])
        if repeated.any():
            k = int(np.flatnonzero(repeated)[0])
            raise AlgorithmError(
                f"duplicate edge (facility {int(g_fac[k])}, client {int(byc_cli[k])}); "
                "each (facility, client) pair may appear once"
            )
        return cls(
            m=m,
            n=n,
            opening=opening,
            fac_ptr=fac_ptr,
            g_fac=g_fac,
            g_cli=g_cli,
            g_cost=g_cost,
            byc_cli=byc_cli,
            byc_cost=byc_cost,
            cli_ptr=cli_ptr,
            cli_fac=cli_fac,
            cli_cost=cli_cost,
            cli_edge=cli_edge,
            name=str(name),
        )

    @classmethod
    def from_instance(cls, instance: FacilityLocationInstance) -> "ColumnarInstance":
        """Convert a dense instance (finite entries become edges)."""
        costs = instance.connection_costs
        fac_idx, cli_idx = np.nonzero(np.isfinite(costs))
        return cls.from_edges(
            np.asarray(instance.opening_costs, dtype=np.float64),
            fac_idx,
            cli_idx,
            costs[fac_idx, cli_idx],
            num_clients=instance.num_clients,
            name=instance.name,
        )

    @classmethod
    def generate_sparse(
        cls,
        num_facilities: int,
        num_clients: int,
        seed: int,
        client_degree: int = 3,
        opening_scale: float = 2.0,
    ) -> "ColumnarInstance":
        """Sparse bipartite instance generated natively on the edge plane.

        Same flavor as the dense ``sparse`` family (each client connects
        to ``client_degree`` distinct facilities with uniform(0.1, 1.0)
        costs, opening costs uniform(0.5, 1.5) times ``opening_scale``)
        but sampled with batched numpy draws so a million-node instance
        materializes in edge space — never as an ``(m, n)`` matrix.
        """
        m, n = int(num_facilities), int(num_clients)
        d = min(int(client_degree), m)
        if m < 1 or n < 1 or d < 1:
            raise AlgorithmError("sparse columnar instance needs m, n, degree >= 1")
        rng = np.random.default_rng(seed)
        neighbors = rng.integers(0, m, size=(n, d), dtype=np.int64)
        while True:
            # Re-sample rows with duplicate facilities; expected a handful
            # of passes since collision probability is ~d^2/m per client.
            ordered = np.sort(neighbors, axis=1)
            bad = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            if not bad.any():
                break
            neighbors[bad] = rng.integers(0, m, size=(int(bad.sum()), d))
        costs = rng.uniform(0.1, 1.0, size=(n, d))
        opening = rng.uniform(0.5, 1.5, size=m) * float(opening_scale)
        cli_idx = np.repeat(np.arange(n, dtype=np.int64), d)
        return cls.from_edges(
            opening,
            neighbors.ravel(),
            cli_idx,
            costs.ravel(),
            num_clients=n,
            name=f"sparse-columnar(m={m},n={n},d={d},seed={seed})",
        )

    def to_instance(self) -> FacilityLocationInstance:
        """Materialize the dense inf-padded instance (oracle-size only)."""
        dense = np.full((self.m, self.n), np.inf)
        dense[self.g_fac, self.g_cli] = self.g_cost
        return FacilityLocationInstance(self.opening, dense, name=self.name)

    def padded(self, f0: int, f1: int) -> "_PaddedSlice":
        """Degree-padded 2-D edge views for the facility slice ``[f0, f1)``."""
        return _PaddedSlice(self, f0, f1)


def _stable_order(ids: np.ndarray) -> np.ndarray:
    """The permutation that stably sorts the int64 ``ids`` (all < 2**31).

    The packed keys ``ids * len + position`` are unique and sort exactly
    as (id, position), so a plain value sort of them — several times
    cheaper than ``np.argsort`` — leaves the stable order in their low
    part.
    """
    size = ids.shape[0]
    key = ids * size
    key += np.arange(size, dtype=np.int64)
    key.sort()
    key %= max(size, 1)
    return key


class _PaddedSlice:
    """Per-facility-slice padded 2-D edge arrays (one row per facility).

    ``valid`` marks the real-edge slots. Each edge plane (0 / 0.0 padded)
    is built on first use, so a kernel pays only for the planes it reads:
    greedy reads the ``g_*`` pair, dual ascent the ``byc_*`` pair.
    """

    def __init__(self, cinst: ColumnarInstance, f0: int, f1: int) -> None:
        ptr = cinst.fac_ptr
        self.degrees = ptr[f0 + 1 : f1 + 1] - ptr[f0:f1]  # (ms,) real degrees
        width = int(self.degrees.max()) if self.degrees.size else 0
        self.valid = np.arange(width)[None, :] < self.degrees[:, None]  # (ms, D)
        self._cinst = cinst
        self._edges = slice(int(ptr[f0]), int(ptr[f1]))

    def _plane(self, column: np.ndarray) -> np.ndarray:
        # The real slots of a row are a prefix of it, so the slots of
        # ``valid`` in row-major order are the slice's edges in CSR order.
        out = np.zeros(self.valid.shape, dtype=column.dtype)
        out[self.valid] = column[self._edges]
        return out

    @cached_property
    def g_cost(self) -> np.ndarray:
        """Greedy-order costs."""
        return self._plane(self._cinst.g_cost)

    @cached_property
    def g_cli(self) -> np.ndarray:
        """Greedy-order client ids."""
        return self._plane(self._cinst.g_cli)

    @cached_property
    def byc_cost(self) -> np.ndarray:
        """Client-order costs."""
        return self._plane(self._cinst.byc_cost)

    @cached_property
    def byc_cli(self) -> np.ndarray:
        """Client-order client ids."""
        return self._plane(self._cinst.byc_cli)


# ----------------------------------------------------------------------
# Parameters on the edge plane
# ----------------------------------------------------------------------


def columnar_efficiency_range(cinst: ColumnarInstance) -> tuple[float, float]:
    """Star-efficiency range, bit-identical to the dense computation.

    The dense :func:`~repro.core.parameters.efficiency_range` cumsums each
    facility's sorted finite costs; the greedy edge order is that same
    ascending cost sequence, so the padded-2-D cumsum reproduces every
    prefix value exactly (identical float multiset in identical order),
    and min/max are order-independent. Only the greedy cost plane is
    built.
    """
    pad = cinst.padded(0, cinst.m)
    if not pad.valid.any():
        raise AlgorithmError("instance has no facility-client edge")
    ratios = np.cumsum(pad.g_cost, axis=1)
    ratios += cinst.opening[:, None]
    ratios /= np.arange(1, ratios.shape[1] + 1)
    eff_min = float(ratios[pad.valid].min())
    rows = np.flatnonzero(pad.degrees)
    last = pad.g_cost[rows, pad.degrees[rows] - 1]
    eff_max = float((cinst.opening[rows] + last).max())
    eff_max = max(eff_max, eff_min, 1e-300)
    eff_min = max(eff_min, eff_max * 1e-12)
    return eff_min, eff_max


def columnar_parameters(
    cinst: ColumnarInstance, k: int, variant: Variant | str = Variant.GREEDY
) -> TradeoffParameters:
    """Schedule for ``k`` computed on the edge plane.

    Same arithmetic as :meth:`TradeoffParameters.from_instance` (greedy)
    / :meth:`~TradeoffParameters.linear` (dual ascent), fed by
    :func:`columnar_efficiency_range` — so parameters agree bit for bit
    with what the dense engines derive from the equivalent instance.
    """
    if k < 1:
        raise AlgorithmError(f"trade-off parameter k must be >= 1, got {k}")
    eff_min, eff_max = columnar_efficiency_range(cinst)
    ratio = max(1.0, eff_max / eff_min)
    if Variant(variant) is Variant.GREEDY:
        num_scales = max(1, math.ceil(math.sqrt(k)))
        num_settle = max(1, math.ceil(k / num_scales))
    else:
        num_scales, num_settle = k, 1
    return TradeoffParameters(
        k=k,
        num_scales=num_scales,
        num_settle=num_settle,
        base=ratio ** (1.0 / num_scales),
        eff_min=eff_min,
        eff_max=eff_max,
        num_nodes=cinst.num_nodes,
    )


# ----------------------------------------------------------------------
# Slice-parametric round kernels
#
# Every kernel touches shared state in a fixed pattern: it may *read* any
# array, but *writes* only its own facility/client slice (the force/join
# apply kernels additionally scatter idempotent True bytes into
# ``is_open``). Between kernels sits a barrier in sharded mode; the
# in-process driver simply calls them back to back with full slices.
# ----------------------------------------------------------------------


def _client_segments(cinst: ColumnarInstance, c0: int, c1: int):
    """Edge window and reduceat offsets for the client slice ``[c0, c1)``."""
    lo = int(cinst.cli_ptr[c0])
    hi = int(cinst.cli_ptr[c1])
    starts = cinst.cli_ptr[c0:c1] - lo
    lengths = np.diff(cinst.cli_ptr[c0 : c1 + 1])
    return lo, hi, starts, lengths


def _segment_min_with_id(values, fac_ids, starts, lengths, sentinel):
    """Per-segment (min value, smallest facility id attaining it).

    Mirrors a dense first-extremum ``argmin`` over the facility axis:
    equal-value ties resolve to the smallest facility id.
    """
    best = np.minimum.reduceat(values, starts)
    attain = values == np.repeat(best, lengths)
    ids = np.minimum.reduceat(np.where(attain, fac_ids, sentinel), starts)
    return best, ids


def _greedy_facility_phase(
    cinst, pad, params, scale, rngs, f0, f1, *, active, is_open, priorities, best_size, member
) -> None:
    """Star search + proposal coins for the facility slice ``[f0, f1)``."""
    if f1 <= f0:
        return
    act = active[pad.g_cli] & pad.valid
    fees = np.where(is_open[f0:f1], 0.0, cinst.opening[f0:f1])
    if act.shape[1]:
        vals = np.where(act, pad.g_cost, 0.0)
        totals = np.cumsum(np.concatenate([fees[:, None], vals], axis=1), axis=1)[:, 1:]
        sizes = np.cumsum(act, axis=1)
        eff = totals / np.maximum(sizes, 1)
        qual = params.qualifies_many(eff, scale) & act
        best = np.max(np.where(qual, sizes, 0), axis=1)
    else:
        best = np.zeros(f1 - f0, dtype=np.int64)
    best_size[f0:f1] = best
    proposers = best > 0
    priorities[f0:f1] = -1.0
    for local in np.flatnonzero(proposers):
        priorities[f0 + local] = rngs[local].random()
    if act.shape[1]:
        member2d = act & (np.cumsum(act, axis=1) <= best[:, None]) & proposers[:, None]
        member[cinst.fac_ptr[f0] : cinst.fac_ptr[f1]] = member2d[pad.valid]


def _greedy_client_offer_phase(
    cinst, c0, c1, *, member, priorities, best_fac, has_offer
) -> np.ndarray:
    """Offer resolution for ``[c0, c1)``; returns partial accept counts."""
    if c1 <= c0:
        return np.zeros(cinst.m, dtype=np.int64)
    lo, hi, starts, lengths = _client_segments(cinst, c0, c1)
    e_fac = cinst.cli_fac[lo:hi]
    e_member = member[cinst.cli_edge[lo:hi]]
    key = np.where(e_member, priorities[e_fac], -1.0)
    best = np.maximum.reduceat(key, starts)
    offered = best >= 0.0
    # Highest priority wins; equal priorities resolve to the smallest
    # facility id, exactly like the dense engine's first-maximum argmax.
    attain = e_member & (key == np.repeat(best, lengths))
    chosen = np.minimum.reduceat(np.where(attain, e_fac, cinst.m), starts)
    best_fac[c0:c1] = np.where(offered, chosen, 0)
    has_offer[c0:c1] = offered
    return np.bincount(chosen[offered], minlength=cinst.m)


def _greedy_facility_open_phase(
    cinst, accepted, open_fraction, f0, f1, *, is_open, best_size, success
) -> None:
    """Opening rule for ``[f0, f1)`` given full accept counts."""
    if f1 <= f0:
        return
    best = best_size[f0:f1]
    proposers = best > 0
    got = accepted[f0:f1]
    needed = np.where(is_open[f0:f1], 1, np.maximum(1, np.ceil(best * open_fraction)))
    won = proposers & (got >= needed) & (got >= 1)
    success[f0:f1] = won
    is_open[f0:f1] |= won


def _greedy_client_serve_phase(
    c0, c1, *, success, best_fac, has_offer, assignment, active
) -> int:
    """Serve accepted clients of ``[c0, c1)``; returns the served count."""
    if c1 <= c0:
        return 0
    offered = has_offer[c0:c1]
    chosen = best_fac[c0:c1]
    served = offered & success[chosen]
    segment = assignment[c0:c1]
    segment[served] = chosen[served]
    active[c0:c1] &= ~served
    return int(served.sum())


def _greedy_force_compute_phase(
    cinst, c0, c1, *, is_open, active, assignment, forced_mask, forced_target
) -> None:
    """Join-or-force decisions for ``[c0, c1)`` against the pre-force open set."""
    if c1 <= c0:
        return
    lo, hi, starts, lengths = _client_segments(cinst, c0, c1)
    e_fac = cinst.cli_fac[lo:hi]
    e_cost = cinst.cli_cost[lo:hi]
    open_edge = is_open[e_fac]
    open_cost, join_target = _segment_min_with_id(
        np.where(open_edge, e_cost, np.inf), e_fac, starts, lengths, cinst.m
    )
    _, cheapest = _segment_min_with_id(e_cost, e_fac, starts, lengths, cinst.m)
    has_open = np.isfinite(open_cost)
    target = np.where(has_open, join_target, cheapest)
    act = active[c0:c1]
    segment = assignment[c0:c1]
    segment[act] = target[act]
    forcing = act & ~has_open
    forced_mask[c0:c1] = forcing
    forced_target[c0:c1] = np.where(forcing, cheapest, 0)


def _greedy_force_apply_phase(c0, c1, *, is_open, forced_mask, forced_target) -> None:
    """Apply forced openings for ``[c0, c1)`` (idempotent True scatters)."""
    if c1 <= c0:
        return
    forcing = forced_mask[c0:c1]
    is_open[forced_target[c0:c1][forcing]] = True


def _dual_client_alpha_phase(c0, c1, threshold, hook, level, *, alphas, frozen, gamma) -> None:
    """Alpha raises for the client slice ``[c0, c1)``."""
    if c1 <= c0:
        return
    raised = np.maximum(gamma[c0:c1], threshold)
    if hook is not None:
        fr = frozen[c0:c1]
        for local in range(c1 - c0):
            if not fr[local]:
                raised[local] = hook(level, c0 + local, float(raised[local]))
    alphas[c0:c1] = np.where(frozen[c0:c1], alphas[c0:c1], raised)


def _dual_facility_phase(cinst, pad, slack, f0, f1, *, alphas, tight, witness) -> None:
    """Payments, tightness, and witness-edge flags for ``[f0, f1)``."""
    if f1 <= f0:
        return
    if pad.valid.shape[1]:
        contrib = np.where(
            pad.valid, np.maximum(0.0, alphas[pad.byc_cli] - pad.byc_cost), 0.0
        )
        payment = np.cumsum(contrib, axis=1)[:, -1]
    else:
        payment = np.zeros(f1 - f0)
    tight[f0:f1] |= payment >= cinst.opening[f0:f1] - slack[f0:f1]
    lo, hi = int(cinst.fac_ptr[f0]), int(cinst.fac_ptr[f1])
    edge_tight = tight[cinst.g_fac[lo:hi]]
    witness[lo:hi] |= edge_tight & (
        cinst.g_cost[lo:hi] <= alphas[cinst.g_cli[lo:hi]] * (1 + 1e-12)
    )


def _dual_client_freeze_phase(cinst, c0, c1, *, witness, frozen) -> None:
    """Freeze clients of ``[c0, c1)`` that gained a witness."""
    if c1 <= c0:
        return
    lo, hi, starts, _ = _client_segments(cinst, c0, c1)
    flags = witness[cinst.cli_edge[lo:hi]].view(np.uint8)
    frozen[c0:c1] = np.maximum.reduceat(flags, starts).astype(bool)


def _dual_client_select_phase(cinst, c0, c1, *, witness, target) -> None:
    """Cheapest-witness selection for ``[c0, c1)``."""
    if c1 <= c0:
        return
    lo, hi, starts, lengths = _client_segments(cinst, c0, c1)
    e_fac = cinst.cli_fac[lo:hi]
    flags = witness[cinst.cli_edge[lo:hi]]
    cost = np.where(flags, cinst.cli_cost[lo:hi], np.inf)
    _, chosen = _segment_min_with_id(cost, e_fac, starts, lengths, cinst.m)
    target[c0:c1] = chosen


def _dual_facility_round_phase(
    cinst, pad, params, policy, seed, f0, f1, *, alphas, target, is_open
) -> None:
    """Rounding coin flips for ``[f0, f1)`` given full selections.

    Only ``randomized`` rounding flips coins, so only it builds the
    slice's node streams; ``select_all`` opens every selected facility.
    """
    if f1 <= f0:
        return
    fac_ids = np.arange(f0, f1, dtype=np.int64)[:, None]
    selected = pad.valid & (target[pad.byc_cli] == fac_ids)
    has_selectors = selected.any(axis=1)
    if policy.mode == "select_all":
        is_open[f0:f1] |= has_selectors
        return
    if selected.shape[1]:
        contrib = np.where(
            selected, np.maximum(0.0, alphas[pad.byc_cli] - pad.byc_cost), 0.0
        )
        mass = np.cumsum(contrib, axis=1)[:, -1]
    else:
        mass = np.zeros(f1 - f0)
    factor = policy.c_round * math.log(max(params.num_nodes, 2))
    rngs = spawn_node_rng_range(seed, f0, f1)
    for local in np.flatnonzero(has_selectors):
        probability = min(
            1.0,
            factor * float(mass[local]) / max(float(cinst.opening[f0 + local]), 1e-300),
        )
        if rngs[local].random() < probability:
            is_open[f0 + local] = True


def _dual_join_compute_phase(
    cinst, c0, c1, *, witness, is_open, target, assignment, forced_mask
) -> None:
    """Join decisions for ``[c0, c1)`` against the coin-opened set only."""
    if c1 <= c0:
        return
    lo, hi, starts, lengths = _client_segments(cinst, c0, c1)
    e_fac = cinst.cli_fac[lo:hi]
    flags = witness[cinst.cli_edge[lo:hi]] & is_open[e_fac]
    cost = np.where(flags, cinst.cli_cost[lo:hi], np.inf)
    open_cost, join_target = _segment_min_with_id(cost, e_fac, starts, lengths, cinst.m)
    has_open = np.isfinite(open_cost)
    assignment[c0:c1] = np.where(has_open, join_target, target[c0:c1])
    forced_mask[c0:c1] = ~has_open


def _dual_join_apply_phase(c0, c1, *, forced_mask, target, is_open) -> None:
    """Force leftover clients' cheapest witnesses open (True scatters)."""
    if c1 <= c0:
        return
    forcing = forced_mask[c0:c1]
    is_open[target[c0:c1][forcing]] = True


# ----------------------------------------------------------------------
# Recorder witness lists (parent-side in sharded mode)
# ----------------------------------------------------------------------


def _witness_lists(cinst: ColumnarInstance, witness) -> tuple[np.ndarray, np.ndarray]:
    """Per-client witness facilities as CSR ``(offsets, facility ids)``.

    One gather over the client-ordered edges: ``cli_*`` sorts by facility
    id within a client, so each list comes out ascending — matching the
    reference engines' sorted sets.
    """
    flags = witness[cinst.cli_edge]
    running = np.zeros(cinst.num_edges + 1, dtype=np.int64)
    np.cumsum(flags, out=running[1:])
    return running[cinst.cli_ptr], cinst.cli_fac[flags]


# ----------------------------------------------------------------------
# In-process drivers (shards == 1)
# ----------------------------------------------------------------------


def _greedy_columnar_arrays(
    cinst: ColumnarInstance,
    params: TradeoffParameters,
    seed: int,
    open_fraction: float,
    recorder,
    ledger,
) -> tuple[np.ndarray, np.ndarray]:
    m, n = cinst.m, cinst.n
    pad = cinst.padded(0, m)
    rngs = spawn_node_rng_range(seed, 0, m)
    client_deg = cinst.client_degrees
    state = {
        "active": np.ones(n, dtype=bool),
        "is_open": np.zeros(m, dtype=bool),
        "assignment": np.full(n, -1, dtype=np.int64),
        "priorities": np.empty(m, dtype=np.float64),
        "best_size": np.zeros(m, dtype=np.int64),
        "success": np.zeros(m, dtype=bool),
        "member": np.zeros(cinst.num_edges, dtype=bool),
        "best_fac": np.zeros(n, dtype=np.int64),
        "has_offer": np.zeros(n, dtype=bool),
        "forced_mask": np.zeros(n, dtype=bool),
        "forced_target": np.zeros(n, dtype=np.int64),
    }
    for iteration in range(1, params.num_iterations + 1):
        scale = params.scale_of_iteration(iteration)
        if not state["active"].any():
            # No facility observes an active client: no coins, no traffic —
            # identical to the reference engines' skip branch.
            if ledger is not None:
                ledger.greedy_iteration(0, 0, 0, 0, 0)
            if recorder is not None:
                recorder.observe_greedy_iteration(
                    iteration, state["is_open"], state["assignment"]
                )
            continue
        active_edges = int(client_deg[state["active"]].sum()) if ledger is not None else 0
        open_before = int(state["is_open"].sum()) if ledger is not None else 0
        _greedy_facility_phase(
            cinst, pad, params, scale, rngs, 0, m,
            active=state["active"], is_open=state["is_open"],
            priorities=state["priorities"], best_size=state["best_size"],
            member=state["member"],
        )
        accepted = _greedy_client_offer_phase(
            cinst, 0, n,
            member=state["member"], priorities=state["priorities"],
            best_fac=state["best_fac"], has_offer=state["has_offer"],
        )
        _greedy_facility_open_phase(
            cinst, accepted, open_fraction, 0, m,
            is_open=state["is_open"], best_size=state["best_size"],
            success=state["success"],
        )
        served = _greedy_client_serve_phase(
            0, n,
            success=state["success"], best_fac=state["best_fac"],
            has_offer=state["has_offer"], assignment=state["assignment"],
            active=state["active"],
        )
        if ledger is not None:
            ledger.greedy_iteration(
                active_edges,
                int(state["member"].sum()),
                int(state["has_offer"].sum()),
                served,
                int(state["is_open"].sum()) - open_before,
            )
        if recorder is not None:
            recorder.observe_greedy_iteration(
                iteration, state["is_open"], state["assignment"]
            )
    if state["active"].any():
        if ledger is not None:
            ledger.greedy_force(int(state["active"].sum()))
        _greedy_force_compute_phase(
            cinst, 0, n,
            is_open=state["is_open"], active=state["active"],
            assignment=state["assignment"], forced_mask=state["forced_mask"],
            forced_target=state["forced_target"],
        )
        _greedy_force_apply_phase(
            0, n,
            is_open=state["is_open"], forced_mask=state["forced_mask"],
            forced_target=state["forced_target"],
        )
    return state["is_open"], state["assignment"]


def _dual_columnar_arrays(
    cinst: ColumnarInstance,
    params: TradeoffParameters,
    seed: int,
    policy: RoundingPolicy,
    recorder,
    ledger,
) -> tuple[np.ndarray, np.ndarray]:
    m, n = cinst.m, cinst.n
    pad = cinst.padded(0, m)
    hook = _TEST_COLUMNAR_DUAL_ALPHA_RAISE_HOOK
    lo, hi, starts, lengths = _client_segments(cinst, 0, n)
    gamma = np.minimum.reduceat(cinst.cli_cost, starts)
    slack = 1e-12 * np.maximum(cinst.opening, params.eff_max)
    alphas = np.zeros(n, dtype=np.float64)
    frozen = np.zeros(n, dtype=bool)
    tight = np.zeros(m, dtype=bool)
    witness = np.zeros(cinst.num_edges, dtype=bool)
    target = np.zeros(n, dtype=np.int64)
    is_open = np.zeros(m, dtype=bool)
    assignment = np.zeros(n, dtype=np.int64)
    forced_mask = np.zeros(n, dtype=bool)
    client_deg = cinst.client_degrees
    for level in range(1, params.num_scales + 1):
        unfrozen = int((~frozen).sum()) if ledger is not None else 0
        unfrozen_edges = int(client_deg[~frozen].sum()) if ledger is not None else 0
        tight_before = int(tight.sum()) if ledger is not None else 0
        _dual_client_alpha_phase(
            0, n, params.threshold(level), hook, level,
            alphas=alphas, frozen=frozen, gamma=gamma,
        )
        _dual_facility_phase(
            cinst, pad, slack, 0, m, alphas=alphas, tight=tight, witness=witness
        )
        frozen_before = int(frozen.sum()) if ledger is not None else 0
        _dual_client_freeze_phase(cinst, 0, n, witness=witness, frozen=frozen)
        if ledger is not None:
            ledger.dual_level(
                unfrozen,
                unfrozen_edges,
                int(tight.sum()) - tight_before,
                int(frozen.sum()) - frozen_before,
            )
        if recorder is not None:
            recorder.observe_dual_level(
                level, alphas, frozen, tight, *_witness_lists(cinst, witness)
            )
    if not frozen.all():
        j = int(np.flatnonzero(~frozen)[0])
        raise AlgorithmError(
            f"client {j} has no witness after the final level; "
            "this contradicts the ladder's terminal property"
        )
    _dual_client_select_phase(cinst, 0, n, witness=witness, target=target)
    _dual_facility_round_phase(
        cinst, pad, params, policy, seed, 0, m,
        alphas=alphas, target=target, is_open=is_open,
    )
    if recorder is not None:
        recorder.observe_dual_rounding(is_open)
    _dual_join_compute_phase(
        cinst, 0, n,
        witness=witness, is_open=is_open, target=target,
        assignment=assignment, forced_mask=forced_mask,
    )
    _dual_join_apply_phase(
        0, n, forced_mask=forced_mask, target=target, is_open=is_open
    )
    if ledger is not None:
        ledger.dual_rounding(
            n, int(np.diff(cinst.fac_ptr)[is_open].sum()), n
        )
    return is_open, assignment


# ----------------------------------------------------------------------
# Sharded execution over shared memory
# ----------------------------------------------------------------------

_ALIGN = 64


def _shared_specs(m: int, n: int, num_edges: int, variant: Variant, shards: int):
    """Name -> (shape, dtype) for every shared array of one run."""
    specs: dict[str, tuple[tuple[int, ...], str]] = {
        "opening": ((m,), "f8"),
        "fac_ptr": ((m + 1,), "i8"),
        "g_fac": ((num_edges,), "i8"),
        "g_cli": ((num_edges,), "i8"),
        "g_cost": ((num_edges,), "f8"),
        "byc_cli": ((num_edges,), "i8"),
        "byc_cost": ((num_edges,), "f8"),
        "cli_ptr": ((n + 1,), "i8"),
        "cli_fac": ((num_edges,), "i8"),
        "cli_cost": ((num_edges,), "f8"),
        "cli_edge": ((num_edges,), "i8"),
        "is_open": ((m,), "?"),
    }
    if variant is Variant.GREEDY:
        specs.update(
            {
                "active": ((n,), "?"),
                "assignment": ((n,), "i8"),
                "priorities": ((m,), "f8"),
                "best_size": ((m,), "i8"),
                "success": ((m,), "?"),
                "member": ((num_edges,), "?"),
                "best_fac": ((n,), "i8"),
                "has_offer": ((n,), "?"),
                "forced_mask": ((n,), "?"),
                "forced_target": ((n,), "i8"),
                "accepted_partial": ((shards, m), "i8"),
            }
        )
    else:
        specs.update(
            {
                "alphas": ((n,), "f8"),
                "frozen": ((n,), "?"),
                "tight": ((m,), "?"),
                "witness": ((num_edges,), "?"),
                "target": ((n,), "i8"),
                "assignment": ((n,), "i8"),
                "forced_mask": ((n,), "?"),
                "gamma": ((n,), "f8"),
            }
        )
    return specs


def _plane_layout(specs):
    """Byte offsets (aligned) and total size for one shared-memory block."""
    offsets: dict[str, int] = {}
    cursor = 0
    for name, (shape, dtype) in specs.items():
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        offsets[name] = cursor
        cursor += (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
    return offsets, max(cursor, 1)


def _plane_views(shm, specs, offsets):
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offsets[name])
        for name, (shape, dtype) in specs.items()
    }


def _split_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    bounds = np.linspace(0, total, shards + 1).astype(np.int64)
    return [(int(bounds[s]), int(bounds[s + 1])) for s in range(shards)]


def _shard_instance(arrays, m: int, n: int, name: str) -> ColumnarInstance:
    """A :class:`ColumnarInstance` whose columns are shared-memory views."""
    return ColumnarInstance(
        m=m,
        n=n,
        opening=arrays["opening"],
        fac_ptr=arrays["fac_ptr"],
        g_fac=arrays["g_fac"],
        g_cli=arrays["g_cli"],
        g_cost=arrays["g_cost"],
        byc_cli=arrays["byc_cli"],
        byc_cost=arrays["byc_cost"],
        cli_ptr=arrays["cli_ptr"],
        cli_fac=arrays["cli_fac"],
        cli_cost=arrays["cli_cost"],
        cli_edge=arrays["cli_edge"],
        name=name,
    )


def _shard_worker(
    shm_name, specs, offsets, dims, variant_value, params, seed, policy,
    open_fraction, shard, ranges_f, ranges_c, barrier, errors,
) -> None:
    """One shard: runs the kernel schedule against the shared plane.

    The phase/barrier schedule here MUST mirror the parent's wait loop in
    :func:`_run_sharded` barrier for barrier — a mismatch deadlocks (and
    surfaces as a barrier timeout, not silent corruption).
    """
    shm = None
    try:
        m, n, num_edges = dims
        variant = Variant(variant_value)
        shm = shared_memory.SharedMemory(name=shm_name)
        arrays = _plane_views(shm, specs, offsets)
        cinst = _shard_instance(arrays, m, n, "shard")
        f0, f1 = ranges_f[shard]
        c0, c1 = ranges_c[shard]
        pad = cinst.padded(f0, f1)
        if variant is Variant.GREEDY:
            rngs = spawn_node_rng_range(seed, f0, f1)
            for iteration in range(1, params.num_iterations + 1):
                scale = params.scale_of_iteration(iteration)
                busy = arrays["active"].any()
                if busy:
                    _greedy_facility_phase(
                        cinst, pad, params, scale, rngs, f0, f1,
                        active=arrays["active"], is_open=arrays["is_open"],
                        priorities=arrays["priorities"],
                        best_size=arrays["best_size"], member=arrays["member"],
                    )
                barrier.wait(_BARRIER_TIMEOUT_S)
                if busy:
                    arrays["accepted_partial"][shard] = _greedy_client_offer_phase(
                        cinst, c0, c1,
                        member=arrays["member"], priorities=arrays["priorities"],
                        best_fac=arrays["best_fac"], has_offer=arrays["has_offer"],
                    )
                barrier.wait(_BARRIER_TIMEOUT_S)
                if busy:
                    accepted = arrays["accepted_partial"].sum(axis=0)
                    _greedy_facility_open_phase(
                        cinst, accepted, open_fraction, f0, f1,
                        is_open=arrays["is_open"], best_size=arrays["best_size"],
                        success=arrays["success"],
                    )
                barrier.wait(_BARRIER_TIMEOUT_S)
                if busy:
                    _greedy_client_serve_phase(
                        c0, c1,
                        success=arrays["success"], best_fac=arrays["best_fac"],
                        has_offer=arrays["has_offer"],
                        assignment=arrays["assignment"], active=arrays["active"],
                    )
                barrier.wait(_BARRIER_TIMEOUT_S)
                # Snapshot barrier: the parent reads iteration state (bit
                # ledger, flight-recorder checkpoint) between the barrier
                # above and this one, so the next iteration's writes to
                # ``member``/``priorities``/``best_size`` must not start
                # until every party passes here.
                barrier.wait(_BARRIER_TIMEOUT_S)
            if arrays["active"].any():
                _greedy_force_compute_phase(
                    cinst, c0, c1,
                    is_open=arrays["is_open"], active=arrays["active"],
                    assignment=arrays["assignment"],
                    forced_mask=arrays["forced_mask"],
                    forced_target=arrays["forced_target"],
                )
                barrier.wait(_BARRIER_TIMEOUT_S)
                _greedy_force_apply_phase(
                    c0, c1,
                    is_open=arrays["is_open"], forced_mask=arrays["forced_mask"],
                    forced_target=arrays["forced_target"],
                )
            else:
                barrier.wait(_BARRIER_TIMEOUT_S)
            barrier.wait(_BARRIER_TIMEOUT_S)
        else:
            slack = 1e-12 * np.maximum(cinst.opening, params.eff_max)
            for level in range(1, params.num_scales + 1):
                _dual_client_alpha_phase(
                    c0, c1, params.threshold(level), None, level,
                    alphas=arrays["alphas"], frozen=arrays["frozen"],
                    gamma=arrays["gamma"],
                )
                barrier.wait(_BARRIER_TIMEOUT_S)
                _dual_facility_phase(
                    cinst, pad, slack, f0, f1,
                    alphas=arrays["alphas"], tight=arrays["tight"],
                    witness=arrays["witness"],
                )
                barrier.wait(_BARRIER_TIMEOUT_S)
                _dual_client_freeze_phase(
                    cinst, c0, c1, witness=arrays["witness"], frozen=arrays["frozen"]
                )
                barrier.wait(_BARRIER_TIMEOUT_S)
                # Snapshot barrier: the parent reads level state (ledger
                # counts, ``dual:level:{l}`` checkpoint) between the
                # barrier above and this one, so the next level's alpha
                # writes must not start until every party passes here.
                barrier.wait(_BARRIER_TIMEOUT_S)
            # The parent validates the terminal ladder property between
            # these barriers and aborts the barrier on violation.
            barrier.wait(_BARRIER_TIMEOUT_S)
            _dual_client_select_phase(
                cinst, c0, c1, witness=arrays["witness"], target=arrays["target"]
            )
            barrier.wait(_BARRIER_TIMEOUT_S)
            _dual_facility_round_phase(
                cinst, pad, params, policy, seed, f0, f1,
                alphas=arrays["alphas"], target=arrays["target"],
                is_open=arrays["is_open"],
            )
            barrier.wait(_BARRIER_TIMEOUT_S)
            _dual_join_compute_phase(
                cinst, c0, c1,
                witness=arrays["witness"], is_open=arrays["is_open"],
                target=arrays["target"], assignment=arrays["assignment"],
                forced_mask=arrays["forced_mask"],
            )
            barrier.wait(_BARRIER_TIMEOUT_S)
            _dual_join_apply_phase(
                c0, c1,
                forced_mask=arrays["forced_mask"], target=arrays["target"],
                is_open=arrays["is_open"],
            )
            barrier.wait(_BARRIER_TIMEOUT_S)
    except threading.BrokenBarrierError:
        # A peer shard (or the parent) aborted the barrier after queueing
        # its own error report; nothing useful to add from this side.
        pass
    except Exception as error:  # noqa: BLE001 — shipped to the parent
        import traceback

        try:
            errors.put((shard, f"{type(error).__name__}: {error}", traceback.format_exc()))
        finally:
            try:
                barrier.abort()
            except Exception:  # noqa: BLE001 — already broken is fine
                pass
    finally:
        if shm is not None:
            shm.close()


def _run_sharded(
    cinst: ColumnarInstance,
    variant: Variant,
    params: TradeoffParameters,
    seed: int,
    *,
    shards: int,
    open_fraction: float = 0.5,
    policy: RoundingPolicy | None = None,
    recorder=None,
    ledger=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Drive ``shards`` worker processes over one shared state plane.

    The parent participates in every barrier as a passive party. Each
    greedy iteration / dual level ends with an extra *snapshot* barrier:
    the parent reads the shared state for the flight recorder and the
    bit ledger between the last phase barrier and the snapshot barrier,
    while every worker is still parked — so recordings are taken at
    exactly the same protocol points as the in-process path and never
    overlap the next phase's writes.
    """
    m, n = cinst.m, cinst.n
    specs = _shared_specs(m, n, cinst.num_edges, variant, shards)
    offsets, total = _plane_layout(specs)
    shm = shared_memory.SharedMemory(create=True, size=total)
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    barrier = ctx.Barrier(shards + 1)
    errors = ctx.Queue()
    workers: list[Any] = []
    try:
        arrays = _plane_views(shm, specs, offsets)
        for name in (
            "opening", "fac_ptr", "g_fac", "g_cli", "g_cost", "byc_cli",
            "byc_cost", "cli_ptr", "cli_fac", "cli_cost", "cli_edge",
        ):
            arrays[name][...] = getattr(cinst, name)
        lo, hi, starts, _ = _client_segments(cinst, 0, n)
        if variant is Variant.GREEDY:
            arrays["active"][...] = True
            arrays["assignment"][...] = -1
        else:
            arrays["gamma"][...] = np.minimum.reduceat(cinst.cli_cost, starts)
        ranges_f = _split_ranges(m, shards)
        ranges_c = _split_ranges(n, shards)
        workers = [
            ctx.Process(
                target=_shard_worker,
                args=(
                    shm.name, specs, offsets, (m, n, cinst.num_edges),
                    variant.value, params, seed, policy, open_fraction,
                    shard, ranges_f, ranges_c, barrier, errors,
                ),
                daemon=True,
            )
            for shard in range(shards)
        ]
        for worker in workers:
            worker.start()
        client_deg = cinst.client_degrees

        def wait() -> None:
            barrier.wait(_BARRIER_TIMEOUT_S)

        if variant is Variant.GREEDY:
            active_remaining = n
            for iteration in range(1, params.num_iterations + 1):
                if ledger is not None:
                    busy = bool(arrays["active"].any())
                    active_edges = (
                        int(client_deg[arrays["active"]].sum()) if busy else 0
                    )
                    open_before = int(arrays["is_open"].sum())
                    assigned_before = int((arrays["assignment"] >= 0).sum())
                wait()
                wait()
                wait()
                wait()
                # Snapshot window: workers are parked at the iteration's
                # snapshot barrier, so the reads below cannot overlap the
                # next facility phase's writes.
                if ledger is not None:
                    if busy:
                        ledger.greedy_iteration(
                            active_edges,
                            int(arrays["member"].sum()),
                            int(arrays["has_offer"].sum()),
                            int((arrays["assignment"] >= 0).sum()) - assigned_before,
                            int(arrays["is_open"].sum()) - open_before,
                        )
                    else:
                        ledger.greedy_iteration(0, 0, 0, 0, 0)
                if recorder is not None:
                    recorder.observe_greedy_iteration(
                        iteration, arrays["is_open"], arrays["assignment"]
                    )
                active_remaining = int(arrays["active"].sum())
                wait()
            if ledger is not None and active_remaining:
                ledger.greedy_force(active_remaining)
            wait()
            wait()
        else:
            for level in range(1, params.num_scales + 1):
                if ledger is not None:
                    unfrozen = int((~arrays["frozen"]).sum())
                    unfrozen_edges = int(client_deg[~arrays["frozen"]].sum())
                    tight_before = int(arrays["tight"].sum())
                    frozen_before = int(arrays["frozen"].sum())
                wait()
                wait()
                wait()
                # Snapshot window: workers are parked at the level's
                # snapshot barrier, so the reads below cannot overlap the
                # next level's alpha-phase writes.
                if ledger is not None:
                    ledger.dual_level(
                        unfrozen,
                        unfrozen_edges,
                        int(arrays["tight"].sum()) - tight_before,
                        int(arrays["frozen"].sum()) - frozen_before,
                    )
                if recorder is not None:
                    recorder.observe_dual_level(
                        level, arrays["alphas"], arrays["frozen"], arrays["tight"],
                        *_witness_lists(cinst, arrays["witness"]),
                    )
                wait()
            if not arrays["frozen"].all():
                j = int(np.flatnonzero(~arrays["frozen"])[0])
                barrier.abort()
                raise AlgorithmError(
                    f"client {j} has no witness after the final level; "
                    "this contradicts the ladder's terminal property"
                )
            wait()
            wait()
            wait()
            if recorder is not None:
                recorder.observe_dual_rounding(arrays["is_open"])
            wait()
            wait()
            if ledger is not None:
                ledger.dual_rounding(
                    n,
                    int(np.diff(arrays["fac_ptr"])[arrays["is_open"]].sum()),
                    n,
                )
        for worker in workers:
            worker.join(timeout=_BARRIER_TIMEOUT_S)
        is_open = arrays["is_open"].copy()
        assignment = arrays["assignment"].copy()
        return is_open, assignment
    except (threading.BrokenBarrierError, multiprocessing.context.ProcessError) as broken:
        failures = []
        try:
            # A failing shard queues its report *before* aborting the
            # barrier, but the queue feeder thread may lag the abort —
            # allow a short grace period so details are not lost.
            while True:
                failures.append(errors.get(timeout=1.0))
        except Exception:  # noqa: BLE001 — best-effort drain
            pass
        detail = "; ".join(f"shard {s}: {msg}" for s, msg, _tb in failures)
        raise AlgorithmError(
            "sharded columnar run failed: " + (detail or "barrier broken")
        ) from broken
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(timeout=5)
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def _as_columnar(instance) -> ColumnarInstance:
    if isinstance(instance, ColumnarInstance):
        return instance
    return ColumnarInstance.from_instance(instance)


def emulate_greedy_columnar(
    instance,
    params: TradeoffParameters,
    seed: int,
    open_fraction: float = 0.5,
    recorder=None,
    *,
    shards: int = 1,
    ledger=None,
) -> tuple[set[int], dict[int, int]]:
    """Columnar scaled-parallel-greedy emulation (drop-in for the dense one).

    ``instance`` may be a dense :class:`FacilityLocationInstance` (it is
    converted) or a :class:`ColumnarInstance`. ``shards > 1`` runs the
    sharded shared-memory path; results are identical at every count.
    """
    cinst = _as_columnar(instance)
    if shards <= 1:
        is_open, assignment = _greedy_columnar_arrays(
            cinst, params, seed, open_fraction, recorder, ledger
        )
    else:
        is_open, assignment = _run_sharded(
            cinst, Variant.GREEDY, params, seed,
            shards=shards, open_fraction=open_fraction,
            recorder=recorder, ledger=ledger,
        )
    open_set = {int(i) for i in np.flatnonzero(is_open)}
    connected = {int(j): int(assignment[j]) for j in range(cinst.n)}
    return open_set, connected


def emulate_dual_columnar(
    instance,
    params: TradeoffParameters,
    seed: int,
    policy: RoundingPolicy,
    recorder=None,
    *,
    shards: int = 1,
    ledger=None,
) -> tuple[set[int], dict[int, int]]:
    """Columnar dual-ascent emulation (drop-in for the dense one)."""
    cinst = _as_columnar(instance)
    if shards <= 1:
        is_open, assignment = _dual_columnar_arrays(
            cinst, params, seed, policy, recorder, ledger
        )
    else:
        is_open, assignment = _run_sharded(
            cinst, Variant.DUAL_ASCENT, params, seed,
            shards=shards, policy=policy, recorder=recorder, ledger=ledger,
        )
    open_set = {int(i) for i in np.flatnonzero(is_open)}
    connected = {int(j): int(assignment[j]) for j in range(cinst.n)}
    return open_set, connected


@dataclass(frozen=True)
class ColumnarSolveResult:
    """Array-native outcome of one columnar solve (no per-client dicts).

    Built by :func:`solve_columnar` for instances far past what the dense
    result types can hold; ``cost``/``feasible`` are computed with
    vectorized reductions over the edge plane.
    """

    instance: ColumnarInstance
    params: TradeoffParameters
    variant: Variant
    open_mask: np.ndarray  # (m,) bool
    assignment: np.ndarray  # (n,) int64 — facility id per client
    cost: float
    wall_seconds: float = 0.0
    shards: int = 1
    metrics: Any = None  # NetworkMetrics from the bit ledger, if kept
    timeline: Any = None  # RoundTimeline from the bit ledger, if kept

    @property
    def open_facilities(self) -> frozenset[int]:
        """Open facility ids as a set (cheap: open sets are small)."""
        return frozenset(int(i) for i in np.flatnonzero(self.open_mask))

    @property
    def feasible(self) -> bool:
        """Whether every client is assigned to an open neighboring facility."""
        return bool(
            (self.assignment >= 0).all() and self.open_mask[self.assignment].all()
        )


def solve_columnar(
    instance,
    k: int,
    variant: Variant | str = Variant.GREEDY,
    seed: int = 0,
    rounding: RoundingPolicy | None = None,
    open_fraction: float = 0.5,
    shards: int = 1,
    recorder=None,
    with_ledger: bool = True,
) -> ColumnarSolveResult:
    """End-to-end columnar solve on the edge plane (million-node entry).

    Unlike :func:`~repro.core.sequential_sim.run_sequential` this never
    materializes dense matrices or per-client Python dicts: parameters
    come from :func:`columnar_parameters`, the solution stays in arrays,
    and the cost/feasibility checks are vectorized gathers. The modeled
    CONGEST traffic (``metrics``/``timeline``) comes from a
    :class:`repro.net.columnar.ColumnarBitLedger` unless disabled.
    """
    import time

    cinst = _as_columnar(instance)
    variant = Variant(variant)
    params = columnar_parameters(cinst, k, variant)
    ledger = None
    if with_ledger:
        from repro.net.columnar import ColumnarBitLedger

        ledger = ColumnarBitLedger(cinst.m, cinst.n, cinst.num_edges)
    start = time.perf_counter()
    if variant is Variant.GREEDY:
        if shards <= 1:
            is_open, assignment = _greedy_columnar_arrays(
                cinst, params, seed, open_fraction, recorder, ledger
            )
        else:
            is_open, assignment = _run_sharded(
                cinst, variant, params, seed,
                shards=shards, open_fraction=open_fraction,
                recorder=recorder, ledger=ledger,
            )
    else:
        policy = rounding or RoundingPolicy()
        if shards <= 1:
            is_open, assignment = _dual_columnar_arrays(
                cinst, params, seed, policy, recorder, ledger
            )
        else:
            is_open, assignment = _run_sharded(
                cinst, variant, params, seed,
                shards=shards, policy=policy, recorder=recorder, ledger=ledger,
            )
    wall = time.perf_counter() - start
    if recorder is not None:
        recorder.observe_final(is_open, assignment)
    cost = _solution_cost(cinst, is_open, assignment)
    return ColumnarSolveResult(
        instance=cinst,
        params=params,
        variant=variant,
        open_mask=is_open,
        assignment=assignment,
        cost=cost,
        wall_seconds=wall,
        shards=max(1, int(shards)),
        metrics=ledger.to_metrics() if ledger is not None else None,
        timeline=ledger.to_timeline(cinst.num_nodes) if ledger is not None else None,
    )


def _solution_cost(cinst: ColumnarInstance, is_open, assignment) -> float:
    """Opening plus connection cost, via an edge-plane gather.

    Raises when a client is assigned to a facility it has no edge to —
    the same validation the dense solution type performs element-wise.
    """
    if (assignment < 0).any():
        j = int(np.flatnonzero(assignment < 0)[0])
        raise AlgorithmError(f"client {j} left unassigned by columnar solve")
    if not is_open[assignment].all():
        j = int(np.flatnonzero(~is_open[assignment])[0])
        raise AlgorithmError(
            f"client {j} assigned to closed facility {int(assignment[j])}"
        )
    # Find each client's edge to its assigned facility by scanning its
    # client segment slot by slot: one pass per slot up to the largest
    # client degree, each vectorized over a block of clients.
    lo = cinst.cli_ptr[:-1]
    hi = cinst.cli_ptr[1:]
    positions = np.empty(cinst.n, dtype=np.int64)
    for j in range(0, cinst.n, 1 << 20):
        stop = min(j + (1 << 20), cinst.n)
        block = slice(j, stop)
        # Blocks of 2**20 clients bound the temporaries; positions are
        # offsets into the global edge array.
        seg_lo = lo[block]
        seg_hi = hi[block]
        found = np.full(stop - j, -1, dtype=np.int64)
        width = int((seg_hi - seg_lo).max()) if stop > j else 0
        for slot in range(width):
            pos = seg_lo + slot
            in_range = pos < seg_hi
            match = in_range & (cinst.cli_fac[np.minimum(pos, cinst.num_edges - 1)] == assignment[block])
            found = np.where((found < 0) & match, pos, found)
        if (found < 0).any():
            bad = int(np.flatnonzero(found < 0)[0]) + j
            raise AlgorithmError(
                f"client {bad} assigned to non-neighbor facility "
                f"{int(assignment[bad])}"
            )
        positions[block] = found
    connection = float(np.sum(cinst.cli_cost[positions]))
    opening = float(np.sum(cinst.opening[is_open]))
    return opening + connection
