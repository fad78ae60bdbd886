"""Consistent-hash routing and the cross-worker shared result cache.

The routing properties under test are the ones horizontal serving
depends on: deterministic key→worker assignment (across runs and across
fresh ring instances), stability under worker-count change (only about
1/K of keys move), and duplicate work keys always landing on the same
worker — which is what keeps batcher dedup alive behind a router.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ReproError
from repro.service.request import InstanceRecipe, SolveRequest, SolveResponse
from repro.service.router import (
    HashRing,
    RouterConfig,
    ServiceRouter,
    SharedResultCache,
    canonical_key_bytes,
)
from repro.service.store import StoreMiss


def sample_keys(count: int = 200) -> list[tuple]:
    return [
        SolveRequest(
            request_id=f"k{seed}-{k}",
            recipe=InstanceRecipe("uniform", 6, 15, seed),
            k=k,
        ).work_key()
        for seed in range(count // 2)
        for k in (4, 9)
    ]


def make_request(rid: str, seed: int, k: int = 4) -> SolveRequest:
    return SolveRequest(
        request_id=rid,
        recipe=InstanceRecipe("uniform", 6, 15, seed),
        k=k,
    )


class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = sample_keys()
        first = HashRing(4)
        second = HashRing(4)
        assert [first.worker_for(k) for k in keys] == [
            second.worker_for(k) for k in keys
        ]

    def test_duplicate_keys_share_a_worker(self):
        ring = HashRing(8)
        a = make_request("a", seed=3).work_key()
        b = make_request("b", seed=3).work_key()  # same work, new id
        assert a == b
        assert ring.worker_for(a) == ring.worker_for(b)

    def test_all_workers_receive_some_keys(self):
        ring = HashRing(4)
        owners = {ring.worker_for(key) for key in sample_keys()}
        assert owners == {0, 1, 2, 3}

    def test_resize_moves_about_one_in_k_keys(self):
        keys = sample_keys()
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(
            before.worker_for(key) != after.worker_for(key) for key in keys
        )
        fraction = moved / len(keys)
        # Ideal is 1/5 = 0.2; vnode variance allows some slack, but a
        # naive `hash % K` scheme would move ~0.8 and fail this hard.
        assert 0.0 < fraction <= 0.40

    def test_canonical_key_bytes_stable(self):
        key = make_request("x", seed=1).work_key()
        assert canonical_key_bytes(key) == canonical_key_bytes(key)
        other = make_request("y", seed=2).work_key()
        assert canonical_key_bytes(key) != canonical_key_bytes(other)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ReproError):
            HashRing(0)
        with pytest.raises(ReproError):
            HashRing(2, replicas=0)


class TestSharedResultCache:
    def ok_response(self, rid: str = "r1") -> SolveResponse:
        return SolveResponse(
            request_id=rid,
            status="ok",
            result={"cost": 12.5},
            manifest={"version": "x"},
        )

    def test_hit_returns_byte_identical_payload(self):
        cache = SharedResultCache()
        key = make_request("r1", seed=1).work_key()
        assert cache.put(key, self.ok_response())
        entry = cache.get(key)
        assert entry is not None
        wrapped = entry.response_for("other-id")
        assert wrapped.request_id == "other-id"
        assert wrapped.dedup and wrapped.batch_index == -1
        assert json.dumps(dict(wrapped.result), sort_keys=True) == json.dumps(
            {"cost": 12.5}, sort_keys=True
        )

    def test_only_ok_responses_are_cached(self):
        cache = SharedResultCache()
        key = make_request("r1", seed=1).work_key()
        refused = SolveResponse(request_id="r1", status="error", error="boom")
        assert not cache.put(key, refused)
        assert cache.get(key) is None

    def test_ttl_expiry(self):
        now = {"t": 0.0}
        cache = SharedResultCache(ttl_s=10.0, clock=lambda: now["t"])
        key = make_request("r1", seed=1).work_key()
        cache.put(key, self.ok_response())
        assert cache.get(key) is not None
        now["t"] = 11.0
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_capacity_eviction_drops_oldest(self):
        cache = SharedResultCache(max_entries=2)
        keys = [make_request(f"r{i}", seed=i).work_key() for i in range(3)]
        for index, key in enumerate(keys):
            cache.put(key, self.ok_response(f"r{index}"))
        assert cache.get(keys[0]) is None  # oldest store evicted
        assert cache.get(keys[1]) is not None
        assert cache.get(keys[2]) is not None

    def test_counters_track_traffic(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        cache = SharedResultCache(max_entries=1, registry=registry)
        key_a = make_request("a", seed=1).work_key()
        key_b = make_request("b", seed=2).work_key()
        cache.get(key_a)  # miss
        cache.put(key_a, self.ok_response("a"))
        cache.get(key_a)  # hit
        cache.put(key_b, self.ok_response("b"))  # evicts key_a
        flat = registry.flat_values() if hasattr(registry, "flat_values") else {}
        assert cache._hits.total == 1
        assert cache._misses.total == 1
        assert cache._stores.total == 2
        assert cache._evictions.value(reason="capacity") == 1

    def test_rejects_bad_configuration(self):
        with pytest.raises(ReproError):
            SharedResultCache(ttl_s=0)
        with pytest.raises(ReproError):
            SharedResultCache(max_entries=0)


class TestServiceRouter:
    def router(self, workers: int = 2) -> ServiceRouter:
        return ServiceRouter(RouterConfig(num_workers=workers))

    def test_duplicates_dedup_across_the_router(self):
        router = self.router()
        for rid, seed in (("a", 1), ("b", 2), ("a-dup", 1)):
            assert router.submit(make_request(rid, seed)).accepted
        responses = {r.request_id: r for r in router.run_until_drained()}
        assert responses["a"].status == "ok" and not responses["a"].dedup
        assert responses["a-dup"].status == "ok" and responses["a-dup"].dedup
        # Identical payload bytes: dedup is invisible in the answer.
        assert json.dumps(dict(responses["a"].result), sort_keys=True) == (
            json.dumps(dict(responses["a-dup"].result), sort_keys=True)
        )

    def test_responses_merge_in_admission_order(self):
        router = self.router(workers=3)
        rids = [f"r{i}" for i in range(6)]
        for index, rid in enumerate(rids):
            assert router.submit(make_request(rid, seed=index)).accepted
        assert [r.request_id for r in router.run_until_drained()] == rids

    def test_shared_cache_short_circuits_repeat_work(self):
        router = self.router()
        assert router.submit(make_request("first", seed=5)).accepted
        first = router.run_until_drained()[0]
        assert first.status == "ok"
        assert router.submit(make_request("again", seed=5)).accepted
        again = router.run_until_drained()[0]
        assert again.status == "ok" and again.dedup
        assert json.dumps(dict(first.result), sort_keys=True) == (
            json.dumps(dict(again.result), sort_keys=True)
        )
        summary = router.metrics_summary()
        assert summary["shared_cache_hits"] == 1
        assert summary["route_cache_short_circuits"] == 1
        # The cache-served response is fetchable like any other.
        fetched = router.fetch("again")
        assert fetched is not None and fetched.dedup

    def test_routing_is_balanced_across_workers(self):
        router = self.router(workers=4)
        for index in range(40):
            router.submit(make_request(f"r{index}", seed=index, k=4))
        counts = router.route_counts()
        assert sum(counts.values()) == 40
        assert all(count > 0 for count in counts.values())

    def test_drain_refuses_new_work_without_cache_hits(self):
        router = self.router()
        assert router.submit(make_request("early", seed=7)).accepted
        router.run_until_drained()
        router.begin_drain()
        assert router.draining
        outcome = router.submit(make_request("late", seed=7))
        assert not outcome.accepted and outcome.reason == "draining"
        summary = router.metrics_summary()
        assert summary["route_cache_short_circuits"] == 0

    def test_shutdown_merges_and_reports(self):
        router = self.router()
        assert router.submit(make_request("x", seed=1)).accepted
        responses = router.shutdown(drain=True)
        assert [r.request_id for r in responses] == ["x"]
        assert responses[0].status == "ok"

    def test_lookup_unknown_id_is_a_typed_miss(self):
        router = self.router()
        found = router.lookup("never-submitted")
        assert isinstance(found, StoreMiss)
        assert found.reason == "unknown"
        assert router.fetch("never-submitted") is None

    def test_metrics_summary_matches_single_service_shape(self):
        from repro.service.service import SolveService

        router = self.router()
        assert router.submit(make_request("m", seed=3)).accepted
        router.run_until_drained()
        single_keys = set(SolveService().metrics_summary())
        summary = router.metrics_summary()
        assert single_keys <= set(summary)
        assert summary["responses_ok"] == 1

    def test_metrics_summary_batch_means_weight_by_batches(self):
        # Means are per batch, so the router's mean is total batched
        # requests over total batches, not a sum of worker means.
        from repro.service.service import ServiceConfig

        router = ServiceRouter(
            RouterConfig(num_workers=2),
            service_config=ServiceConfig(max_batch_size=2),
        )
        for seed in range(7):
            assert router.submit(make_request(f"b{seed}", seed)).accepted
        router.run_until_drained()
        routed = [int(count) for count in router.route_counts().values()]
        assert sorted(routed) != [0, 7]  # both workers batched something
        batches = sum((count + 1) // 2 for count in routed)
        summary = router.metrics_summary()
        assert summary["batches"] == batches
        assert summary["batch_size_mean"] == pytest.approx(7 / batches)
        assert summary["batch_unique_mean"] == pytest.approx(7 / batches)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ReproError):
            RouterConfig(num_workers=0)
