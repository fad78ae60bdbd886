"""Columnar engine: CSR plane, sharding, bit-identity, ledger, service.

The contract under test is the strongest one the repo makes: the
columnar engine — in-process or sharded across worker processes — must
be *byte-identical* to the pure-Python loop oracle and the vectorized
engine: same open sets, same assignments, same flight-recorder digests
at every checkpoint. A deliberate single-client perturbation on the
columnar plane must be pinpointed (level, field, client) by the same
divergence bisection that covers the other engines.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.columnar as columnar
from repro.core.columnar import ColumnarInstance, solve_columnar
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.sequential_sim import run_sequential
from repro.exceptions import AlgorithmError, ReproError
from repro.fl.generators import make_instance
from repro.net.columnar import ColumnarBitLedger, InboxPool
from repro.obs.recorder import diff_recordings, record_run
from repro.service.request import InstanceRecipe, SolveRequest
from repro.service.worker import ServiceCell, run_service_cell


@pytest.fixture(scope="module")
def instance():
    return make_instance("sparse", 10, 30, seed=11)


def _cell(request: SolveRequest) -> ServiceCell:
    return ServiceCell(
        recipe=request.recipe,
        instance=request.instance,
        k=request.k,
        variant=request.variant,
        seed=request.seed,
        rounding=request.rounding,
        c_round=request.c_round,
        compute_lp=request.compute_lp,
        capture_events=request.capture_events,
        record=request.record,
        engine=request.engine,
        shards=request.shards,
    )


class TestColumnarInstance:
    def test_dense_roundtrip_is_lossless(self, instance):
        cinst = ColumnarInstance.from_instance(instance)
        back = cinst.to_instance()
        assert np.array_equal(back.opening_costs, instance.opening_costs)
        assert np.array_equal(
            np.isfinite(back.connection_costs),
            np.isfinite(instance.connection_costs),
        )
        again = ColumnarInstance.from_instance(back)
        for name in ("fac_ptr", "g_fac", "g_cli", "g_cost", "cli_ptr",
                     "cli_fac", "cli_cost", "cli_edge"):
            assert np.array_equal(getattr(again, name), getattr(cinst, name))

    def test_generate_sparse_native(self):
        cinst = ColumnarInstance.generate_sparse(
            20, 100, seed=3, client_degree=3
        )
        assert cinst.m == 20 and cinst.n == 100
        assert cinst.num_edges == 300
        assert np.array_equal(cinst.client_degrees, np.full(100, 3))
        assert cinst.g_cost.min() >= 0.1 and cinst.g_cost.max() < 1.0
        # Per-client facility lists carry no duplicates.
        for j in range(cinst.n):
            facs = cinst.cli_fac[cinst.cli_ptr[j] : cinst.cli_ptr[j + 1]]
            assert len(set(facs.tolist())) == 3

    def test_sparse_instance_matches_densified_solve(self):
        cinst = ColumnarInstance.generate_sparse(12, 60, seed=5)
        native = solve_columnar(cinst, k=6, seed=2)
        dense = run_sequential(
            cinst.to_instance(), k=6, seed=2, engine="vectorized"
        )
        assert native.feasible
        assert native.open_facilities == dense.open_facilities
        assert {
            j: int(f) for j, f in enumerate(native.assignment)
        } == dense.assignment


class TestFromEdgesValidation:
    """Malformed edge lists are refused, naming the offending edge."""

    OPENING = np.array([1.0, 1.0])

    def build(self, fac, cli, cost=None):
        cost = np.full(len(fac), 0.5) if cost is None else np.asarray(cost)
        return ColumnarInstance.from_edges(
            self.OPENING, np.array(fac), np.array(cli), cost, num_clients=2
        )

    def test_facility_id_out_of_range(self):
        with pytest.raises(AlgorithmError, match=r"edge 2 \(facility 2, client 1\)"):
            self.build([0, 1, 2], [0, 1, 1])

    def test_client_id_out_of_range(self):
        with pytest.raises(AlgorithmError, match=r"edge 1 \(facility 1, client 2\)"):
            self.build([0, 1, 0], [0, 2, 1])

    def test_duplicate_edge(self):
        # Solved as given, the repeated pair makes the columnar engine
        # answer a different instance than to_instance() hands the loop.
        with pytest.raises(AlgorithmError, match=r"duplicate edge \(facility 1, client 1\)"):
            self.build([0, 1, 1, 0], [0, 1, 1, 1], [0.2, 0.4, 0.3, 0.9])

    def test_first_duplicate_in_facility_client_order_is_named(self):
        with pytest.raises(AlgorithmError, match=r"duplicate edge \(facility 0, client 1\)"):
            self.build([1, 1, 0, 0, 0], [0, 0, 1, 0, 1])

    @pytest.mark.parametrize(
        "opening, message",
        [
            ([np.nan, 1.0], "must be finite"),
            ([np.nan, -1.0], "must be finite"),
            ([1.0, np.inf], "must be finite"),
            ([1.0, -1.0], "must be non-negative"),
            ([[1.0, 1.0]], "must be 1-D"),
        ],
    )
    def test_bad_opening_costs(self, opening, message):
        # A NaN opening cost used to be accepted and solved to cost nan.
        with pytest.raises(AlgorithmError, match=message):
            ColumnarInstance.from_edges(
                np.array(opening), [0, 0], [0, 1], [0.5, 0.5], num_clients=2
            )

    def test_edge_arrays_must_be_one_dimensional(self):
        with pytest.raises(AlgorithmError, match="1-D"):
            self.build(np.array([[0, 1]]), np.array([[0, 1]]), np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize(
        "fac, cli, cost",
        [([0, 1, 1], [0, 1], [0.5, 0.5]), ([0, 1], [0, 1], [0.5, 0.5, 0.5])],
    )
    def test_edge_arrays_must_have_equal_lengths(self, fac, cli, cost):
        with pytest.raises(AlgorithmError, match="equal lengths"):
            self.build(fac, cli, cost)

    def test_size_guard_refuses_before_allocating(self, monkeypatch):
        # A client-sized array would take 16 GiB here: fail the test
        # instead of allocating if any is asked for before the guard.
        def refuse(*args, **kwargs):
            raise AssertionError("client-sized allocation before the size guard")

        monkeypatch.setattr(np, "bincount", refuse)
        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(AlgorithmError, match=r"clients reach the columnar limit of 2\*\*31"):
            ColumnarInstance.from_edges([1.0], [0], [0], [0.5], num_clients=2**31)


def _lexsort_reference(opening, fac_idx, cli_idx, cost, num_clients):
    """The CSR build as three lexsorts: the definition the fast build meets."""
    opening = np.ascontiguousarray(opening, dtype=np.float64)
    fac_idx = np.asarray(fac_idx, dtype=np.int64)
    cli_idx = np.asarray(cli_idx, dtype=np.int64)
    cost = np.asarray(cost, dtype=np.float64)
    m, n = int(opening.shape[0]), int(num_clients)
    for ids, side, bound in ((fac_idx, "facility", m), (cli_idx, "client", n)):
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= bound):
            e = int(np.flatnonzero((ids < 0) | (ids >= bound))[0])
            raise AlgorithmError(
                f"edge {e} (facility {int(fac_idx[e])}, client {int(cli_idx[e])}) "
                f"names {side} {int(ids[e])} outside [0, {bound})"
            )
    counts = np.bincount(cli_idx, minlength=n)
    if n and int(counts.min()) < 1:
        j = int(np.flatnonzero(counts == 0)[0])
        raise AlgorithmError(f"client {j} has no facility edge; instance infeasible")
    greedy = np.lexsort((cli_idx, cost, fac_idx))
    g_fac, g_cli, g_cost = fac_idx[greedy], cli_idx[greedy], cost[greedy]
    fac_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(g_fac, minlength=m), out=fac_ptr[1:])
    byc = np.lexsort((g_cli, g_fac))
    byc_cli, byc_cost = g_cli[byc], g_cost[byc]
    repeated = (byc_cli[1:] == byc_cli[:-1]) & (g_fac[1:] == g_fac[:-1])
    if repeated.any():
        k = int(np.flatnonzero(repeated)[0])
        raise AlgorithmError(
            f"duplicate edge (facility {int(g_fac[k])}, client {int(byc_cli[k])}); "
            "each (facility, client) pair may appear once"
        )
    cli_order = np.lexsort((g_fac, g_cli))
    cli_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(g_cli, minlength=n), out=cli_ptr[1:])
    return {
        "opening": opening, "fac_ptr": fac_ptr, "g_fac": g_fac, "g_cli": g_cli,
        "g_cost": g_cost, "byc_cli": byc_cli, "byc_cost": byc_cost,
        "cli_ptr": cli_ptr, "cli_fac": g_fac[cli_order],
        "cli_cost": g_cost[cli_order], "cli_edge": cli_order.astype(np.int64),
    }


#: Few distinct values, signed zeros among them, so exact cost ties within
#: and across facilities are the common case.
_TIE_COSTS = (0.0, -0.0, 0.25, 0.5, 0.5, 1.0, 3.0)


@st.composite
def _edge_lists(draw, faulty: bool = False):
    """Shuffled edge triplets of a tiny instance; every client has an edge.

    With ``faulty``, some edges repeat a pair or name an id out of range.
    """
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=7))
    cost_value = st.one_of(
        st.sampled_from(_TIE_COSTS),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    edges = []
    for j in range(n):
        # Facilities may end up with no edge; clients may have just one.
        facs = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m))
        edges.extend((i, j, draw(cost_value)) for i in sorted(facs))
    if faulty:
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            i, j, _ = draw(st.sampled_from(edges))
            edges.append(draw(st.sampled_from([
                (i, j, draw(cost_value)),
                (m + draw(st.integers(0, 2)), j, 0.5),
                (i, n + draw(st.integers(0, 2)), 0.5),
                (-1, j, 0.5),
            ])))
    edges = draw(st.permutations(edges))
    opening = draw(st.lists(
        st.sampled_from((0.0, 0.5, 1.0, 2.0)), min_size=m, max_size=m
    ))
    fac, cli, cost = (list(column) for column in zip(*edges))
    return (
        np.array(opening),
        np.array(fac, dtype=np.int64),
        np.array(cli, dtype=np.int64),
        np.array(cost, dtype=np.float64),
        n,
    )


_BUILD_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestFromEdgesDifferential:
    """The packed-key build against the lexsort definition, column by column."""

    @_BUILD_SETTINGS
    @given(_edge_lists())
    def test_columns_match_lexsort_reference(self, case):
        *arrays, n = case
        built = ColumnarInstance.from_edges(*arrays, num_clients=n)
        reference = _lexsort_reference(*arrays, num_clients=n)
        assert built.m == arrays[0].shape[0] and built.n == n
        for name, expected in reference.items():
            got = getattr(built, name)
            assert got.dtype == expected.dtype, name
            assert np.array_equal(got, expected), name
            # Bytes too: array_equal cannot tell 0.0 from -0.0.
            assert got.tobytes() == expected.tobytes(), name

    @_BUILD_SETTINGS
    @given(_edge_lists(faulty=True))
    def test_refusals_name_the_same_edge(self, case):
        *arrays, n = case
        with pytest.raises(AlgorithmError) as expected:
            _lexsort_reference(*arrays, num_clients=n)
        with pytest.raises(AlgorithmError) as got:
            ColumnarInstance.from_edges(*arrays, num_clients=n)
        assert str(got.value) == str(expected.value)


class TestNodeStreams:
    """Per-facility coin streams are built only where coins are flipped."""

    @pytest.fixture
    def spawns(self, monkeypatch):
        calls = []
        spawn = columnar.spawn_node_rng_range

        def counting(seed, start, stop):
            calls.append((start, stop))
            return spawn(seed, start, stop)

        monkeypatch.setattr(columnar, "spawn_node_rng_range", counting)
        return calls

    def test_select_all_dual_builds_no_stream(self, spawns):
        cinst = ColumnarInstance.generate_sparse(12, 60, seed=5)
        result = solve_columnar(cinst, k=6, variant="dual_ascent", seed=2)
        assert result.feasible
        assert spawns == []

    def test_coin_flipping_solves_build_facility_streams(self, spawns):
        cinst = ColumnarInstance.generate_sparse(12, 60, seed=5)
        solve_columnar(
            cinst, k=6, variant="dual_ascent", seed=2,
            rounding=RoundingPolicy(mode="randomized"),
        )
        solve_columnar(cinst, k=6, variant="greedy", seed=2)
        assert spawns == [(0, 12), (0, 12)]


class TestByteIdentity:
    """Solutions and recorder digests, three engines, shards 1 and 4."""

    @pytest.mark.parametrize("variant", ["greedy", "dual_ascent"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_solutions_identical(self, instance, variant, shards):
        loop = run_sequential(
            instance, k=5, variant=variant, seed=3, engine="loop"
        )
        vectorized = run_sequential(
            instance, k=5, variant=variant, seed=3, engine="vectorized"
        )
        sharded = run_sequential(
            instance, k=5, variant=variant, seed=3, engine="columnar",
            shards=shards,
        )
        assert loop.open_facilities == vectorized.open_facilities
        assert loop.open_facilities == sharded.open_facilities
        assert loop.assignment == vectorized.assignment
        assert loop.assignment == sharded.assignment
        # Canonical (client-sorted) summation makes even the float total
        # identical, not merely close.
        assert loop.cost == vectorized.cost == sharded.cost

    @pytest.mark.parametrize("variant", ["greedy", "dual_ascent"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_recorder_digests_identical(self, instance, variant, shards):
        oracle = record_run(
            instance, engine="loop", k=4, variant=variant, seed=7
        )
        col = record_run(
            instance, engine="columnar", k=4, variant=variant, seed=7,
            shards=shards,
        )
        assert len(col.checkpoints) == len(oracle.checkpoints)
        assert col.final_digest() == oracle.final_digest()
        assert diff_recordings(oracle, col).identical

    def test_shards_never_change_digests(self, instance):
        one = record_run(instance, engine="columnar", k=4, seed=2, shards=1)
        four = record_run(instance, engine="columnar", k=4, seed=2, shards=4)
        assert one.final_digest() == four.final_digest()

    def test_only_columnar_shards(self, instance):
        with pytest.raises(AlgorithmError, match="does not shard"):
            run_sequential(instance, k=4, engine="vectorized", shards=2)


class TestDivergenceBisection:
    """A deliberate mis-raise on the columnar plane must be pinpointed."""

    def test_columnar_perturbation_is_bisected(self, monkeypatch):
        # The euclidean geometry keeps clients unfrozen past level 1, so
        # a level-2 mis-raise has somewhere to land (the sparse fixture
        # freezes everyone at level 1).
        instance = make_instance("euclidean", 8, 20, seed=3)
        baseline = record_run(
            instance, engine="loop", k=4, variant="dual_ascent", seed=7
        )
        perturbed_clients: list[int] = []

        def mis_raise(level, client, value):
            if level == 2:
                perturbed_clients.append(client)
                return value * (1 + 1e-6)
            return value

        monkeypatch.setattr(
            columnar, "_TEST_COLUMNAR_DUAL_ALPHA_RAISE_HOOK", mis_raise
        )
        perturbed = record_run(
            instance, engine="columnar", k=4, variant="dual_ascent", seed=7
        )
        assert perturbed_clients, "hook never fired; test is vacuous"
        report = diff_recordings(perturbed, baseline)
        assert not report.identical
        assert report.label == "dual:level:2"
        assert report.field == "alpha"
        assert report.leaf == f"client:{min(perturbed_clients)}"
        assert report.left_value != report.right_value

    def test_unperturbed_hook_restores_identity(self, instance):
        assert columnar._TEST_COLUMNAR_DUAL_ALPHA_RAISE_HOOK is None
        left = record_run(
            instance, engine="columnar", k=4, variant="dual_ascent", seed=7
        )
        right = record_run(
            instance, engine="loop", k=4, variant="dual_ascent", seed=7
        )
        assert diff_recordings(left, right).identical


class TestColumnarBitLedger:
    def test_counts_accumulate(self):
        ledger = ColumnarBitLedger(4, 10, 20)
        ledger.greedy_iteration(
            active_edges=20, proposals=4, offers=10, served=3, opened=1
        )
        ledger.greedy_force(forced=2)
        metrics = ledger.to_metrics()
        assert metrics.rounds == 5  # 4 per iteration + 1 force
        assert metrics.total_messages == 20 + 4 + 10 + 3 + 1 + 2
        assert metrics.total_bits > 0
        assert set(metrics.messages_by_kind) == {
            "greedy/active", "greedy/propose", "greedy/accept",
            "greedy/serve", "greedy/open", "greedy/force",
        }

    def test_timeline_entries_are_engine_tagged(self):
        ledger = ColumnarBitLedger(4, 10, 20)
        ledger.dual_level(
            unfrozen=10, unfrozen_edges=20, newly_tight=5, newly_frozen=2
        )
        timeline = ledger.to_timeline(num_nodes=14)
        assert len(timeline) == 3
        for entry in timeline:
            assert entry.engine == "columnar"
            assert entry.wall_ms == 0.0
            assert entry.alive == 14

    def test_solve_columnar_populates_metrics(self):
        cinst = ColumnarInstance.generate_sparse(8, 40, seed=1)
        result = solve_columnar(cinst, k=5, seed=0)
        assert result.metrics is not None
        assert result.metrics.rounds > 0
        assert result.metrics.total_messages > 0
        assert len(result.timeline) == result.metrics.rounds


class TestInboxPool:
    def test_acquire_release_reuses_lists(self):
        pool = InboxPool()
        first = pool.acquire()
        first.append("x")
        assert pool.pooled == 0
        pool.release_all()
        assert pool.pooled == 1
        second = pool.acquire()
        assert second is first
        assert second == []


class TestServiceEngineSelection:
    def test_default_work_key_and_wire_unchanged(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        base = SolveRequest(request_id="a", recipe=recipe, k=6)
        assert len(base.work_key()) == 9  # pre-engine shape
        assert "engine" not in base.to_wire()
        assert "shards" not in base.to_wire()

    def test_shards_stay_out_of_the_work_key(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        one = SolveRequest(
            request_id="a", recipe=recipe, k=6, engine="columnar", shards=1
        )
        four = SolveRequest(
            request_id="b", recipe=recipe, k=6, engine="columnar", shards=4
        )
        sim = SolveRequest(request_id="c", recipe=recipe, k=6)
        assert one.work_key() == four.work_key()
        assert one.work_key() != sim.work_key()

    def test_wire_roundtrip(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        request = SolveRequest(
            request_id="a", recipe=recipe, k=6, engine="columnar", shards=2
        )
        wire = request.to_wire()
        assert wire["engine"] == "columnar" and wire["shards"] == 2
        assert SolveRequest.from_wire(wire) == request

    def test_validation(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        with pytest.raises(ReproError, match="unknown engine"):
            SolveRequest(request_id="a", recipe=recipe, engine="warp")
        with pytest.raises(ReproError, match="does not shard"):
            SolveRequest(
                request_id="a", recipe=recipe, engine="loop", shards=2
            )
        with pytest.raises(ReproError, match="capture_events"):
            SolveRequest(
                request_id="a", recipe=recipe, engine="columnar",
                capture_events=True,
            )

    def test_engine_cells_agree_with_the_simulator(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        sim = run_service_cell(
            _cell(SolveRequest(request_id="a", recipe=recipe, k=6))
        )
        col = run_service_cell(
            _cell(
                SolveRequest(
                    request_id="b", recipe=recipe, k=6, engine="columnar"
                )
            )
        )
        assert col["result"]["cost"] == sim["result"]["cost"]
        assert (
            col["result"]["open_facilities"]
            == sim["result"]["open_facilities"]
        )
        assert col["result"]["engine"] == "columnar"
        assert "engine" not in sim["result"]
        assert sim["manifest"]["parameters"] == {
            "k": 6, "variant": "greedy", "rounding": "select_all",
            "c_round": 1.0,
        }
        assert col["manifest"]["parameters"]["engine"] == "columnar"

    def test_recorded_engine_cell_ships_a_recording(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        out = run_service_cell(
            _cell(
                SolveRequest(
                    request_id="a", recipe=recipe, k=6,
                    engine="columnar", record=True,
                )
            )
        )
        assert out["recording"]["engine"] == "columnar"
        assert out["recording"]["checkpoints"]


class TestCliDigest:
    """`repro solve --digest` is the cheap cross-engine identity check."""

    @staticmethod
    def _digest(capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)["digest"]

    def test_digest_identical_across_engines(self, capsys):
        base = (
            "solve", "--family", "sparse", "-m", "8", "-n", "24",
            "--seed", "3", "-k", "6", "--no-lp", "--digest", "--json",
        )
        reference = self._digest(capsys, *base)
        for engine_args in (
            ("--engine", "loop"),
            ("--engine", "vectorized"),
            ("--engine", "columnar"),
            ("--engine", "columnar", "--shards", "2"),
        ):
            assert self._digest(capsys, *base, *engine_args) == reference

    def test_sparse_degree_needs_no_lp_on_columnar(self, capsys):
        from repro.cli import main

        args = [
            "solve", "--sparse-degree", "3", "-m", "10", "-n", "50",
            "--seed", "2", "-k", "5", "--engine", "columnar",
            "--digest", "--json",
        ]
        assert main(args) == 1  # LP bound would densify: refused
        assert "--no-lp" in capsys.readouterr().err
        assert main(args + ["--no-lp"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["digest"]
