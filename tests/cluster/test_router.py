"""End-to-end cluster router tests: real shard processes over sockets."""

import numpy as np
import pytest

from repro.api.requests import ImputeRequest
from repro.api.service import ImputationService
from repro.baselines.registry import MethodInfo, get_registry
from repro.baselines.simple import MeanImputer
from repro.cluster import ClusterRouter
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import ServiceError, ValidationError


def _panel(seed, shape=(4, 40), missing=6):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape).cumsum(axis=1)
    mask = np.ones(shape)
    flat = rng.choice(values.size, size=missing, replace=False)
    mask.flat[flat] = 0
    values = np.where(mask == 1, values, np.nan)
    return TimeSeriesTensor(values=values,
                            dimensions=[Dimension.categorical("s", shape[0])],
                            mask=mask, name=f"panel-{seed}")


class PoisonableImputer(MeanImputer):
    """Mean imputer that rejects tensors named 'poison'.

    Overrides ``impute_many`` so the shard attempts a fused pass, which the
    poisoned tensor aborts.
    """

    def impute(self, tensor=None):
        if tensor is not None and tensor.name == "poison":
            raise RuntimeError("poisoned tensor")
        return super().impute(tensor)

    def impute_many(self, tensors):
        return [self.impute(tensor) for tensor in tensors]


@pytest.fixture
def router(tmp_path):
    router = ClusterRouter(directory=tmp_path, shards=2)
    yield router
    router.close()


class TestRouterServing:
    def test_fit_and_serve_round_trip(self, router):
        train = _panel(1)
        model_id = router.fit(train, method="mean")
        assert model_id in router.list_models()
        ids = [router.submit(_panel(seed, missing=4), model_id=model_id)
               for seed in (2, 3, 4)]
        results = router.gather()
        assert [result.request_id for result in results] == ids
        for result in results:
            assert result.model_id == model_id
            assert np.isfinite(result.completed.values).all()

    def test_results_bit_identical_to_single_process_service(self, router):
        train, query = _panel(1), _panel(2, missing=4)
        local = ImputationService()
        local_id = local.fit(train, method="mean")
        remote_id = router.fit(train, method="mean")
        expected = local.impute(query, model_id=local_id)
        actual = router.impute(query, model_id=remote_id)
        # Same bytes as local serving, not merely close.
        np.testing.assert_array_equal(actual.completed.values,
                                      expected.completed.values)

    def test_unknown_model_and_duplicate_ids_rejected(self, router):
        with pytest.raises(ServiceError, match="unknown model"):
            router.submit(_panel(2), model_id="nope")
        model_id = router.fit(_panel(1), method="mean")
        request = ImputeRequest(model_id=model_id, data=_panel(2),
                                request_id="dup")
        router.submit(request)
        with pytest.raises(ValidationError, match="already queued"):
            router.submit(request)

    def test_models_live_where_the_ring_says(self, router):
        model_ids = [router.fit(_panel(seed), method="mean")
                     for seed in range(6)]
        stats = router.shard_stats()
        owners = {name: set(info["models"]) for name, info in stats.items()}
        assert sum(len(models) for models in owners.values()) == 6
        for model_id in model_ids:
            assert model_id in owners[router.ring.assign(model_id)]


class TestDurability:
    def test_kill_and_resend_is_exactly_once(self, router):
        model_id = router.fit(_panel(1), method="mean")
        queries = [_panel(seed, missing=4) for seed in (2, 3, 4)]
        ids = [router.submit(query, model_id=model_id) for query in queries]
        first = router.gather()
        owner = router.ring.assign(model_id)

        router.kill_shard(owner)
        assert not router.handles[owner].alive

        # Resend the same request ids: the restarted shard must answer
        # from its ledger, not serve them twice.
        for request_id, query in zip(ids, queries):
            router.submit(ImputeRequest(model_id=model_id, data=query,
                                        request_id=request_id))
        second = router.gather()
        assert router.last_deduped == len(ids)
        assert len(router.recoveries) == 1
        for before, after in zip(first, second):
            assert before.request_id == after.request_id
            np.testing.assert_array_equal(after.completed.values,
                                          before.completed.values)
        # The ledger holds exactly one row per request id.
        stats = router.shard_stats()
        assert stats[owner]["results"] == len(ids)

    def test_mid_gather_shard_death_recovers_transparently(self, router):
        model_id = router.fit(_panel(1), method="mean")
        owner = router.ring.assign(model_id)
        router.kill_shard(owner)
        result = router.impute(_panel(2, missing=4), model_id=model_id)
        assert np.isfinite(result.completed.values).all()
        assert [entry["shard"] for entry in router.recoveries] == [owner]

    def test_expired_deadline_fails_without_journaling(self, router):
        model_id = router.fit(_panel(1), method="mean")
        owner = router.ring.assign(model_id)
        results_before = router.shard_stats()[owner]["results"]
        request_id = router.submit(_panel(2, missing=4), model_id=model_id,
                                   deadline_ms=0.0001)
        results = router.gather(raise_on_error=False)
        assert results == []
        assert "deadline expired" in router.last_errors[request_id]
        stats = router.shard_stats()[owner]
        assert stats["results"] == results_before
        # Never journaled: a restart must not resurrect it.
        assert stats["journal"].get("request", 0) == results_before


class TestIntrospection:
    def test_analytics_window_report(self, router):
        model_id = router.fit(_panel(1), method="mean")
        for seed in (2, 3, 4):
            router.submit(_panel(seed, missing=4), model_id=model_id)
        router.gather()
        report = router.analytics(bucket_seconds=3600.0)
        assert report["shards"] == ["shard-0", "shard-1"]
        assert sum(row["completions"]
                   for row in report["p99_over_time"]) == 3
        (qps,) = [row for row in report["per_model_qps"]
                  if row["model_id"] == model_id]
        assert qps["qps"] == pytest.approx(3 / 3600.0)

    def test_stats_and_describe(self, router):
        router.fit(_panel(1), method="mean")
        stats = router.stats()
        assert set(stats["shards"]) == {"shard-0", "shard-1"}
        for info in stats["shards"].values():
            assert info["alive"] is True
            assert "replay" in info
        description = router.describe()
        assert description["shards"] == ["shard-0", "shard-1"]

    def test_gateway_fronts_the_cluster(self, router):
        from repro.gateway import Gateway

        model_id = router.fit(_panel(1), method="mean")
        gateway = Gateway(service=router, max_wait_ms=1.0)
        try:
            futures = [gateway.submit(_panel(seed, missing=4),
                                      model_id=model_id)
                       for seed in (2, 3)]
            for future in futures:
                result = future.result(timeout=60.0)
                assert np.isfinite(result.completed.values).all()
            stats = gateway.stats()
            assert set(stats["shards"]) == {"shard-0", "shard-1"}
            assert stats["completed"] == 2
        finally:
            gateway.close()

    def test_gateway_batch_with_a_poisoned_request_is_served_once(
            self, tmp_path, monkeypatch):
        """A bad request fails alone; nothing is resent under new ids."""
        from repro.gateway import Gateway

        # Registered before the shard forks, so the shard can fit it (a
        # put_model blob of a class outside repro.* would be refused).
        monkeypatch.setitem(get_registry()._methods, "poisonable-test",
                            MethodInfo("poisonable-test", PoisonableImputer))
        router = ClusterRouter(directory=tmp_path, shards=1)
        try:
            model_id = router.fit(_panel(1), method="poisonable-test")
            poison = _panel(3, missing=4)
            poison.name = "poison"
            gateway = Gateway(service=router, max_wait_ms=1.0, start=False)
            try:
                futures = [gateway.submit(tensor, model_id=model_id)
                           for tensor in (_panel(2, missing=4), poison,
                                          _panel(4, missing=4))]
                gateway.start()
                healthy = [futures[0].result(timeout=60.0),
                           futures[2].result(timeout=60.0)]
                with pytest.raises(ServiceError, match="poisoned tensor"):
                    futures[1].result(timeout=60.0)
            finally:
                gateway.close()
            assert all(result.fused for result in healthy)
            journal = router.shard_stats()["shard-0"]["journal"]
            assert journal == {"request": 3, "result": 2, "failed": 1}
        finally:
            router.close()
