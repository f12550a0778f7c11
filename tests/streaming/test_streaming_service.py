"""Tests of the multi-stream streaming service and the replay harness."""

import numpy as np
import pytest

from repro.api import ImputationService
from repro.baselines.base import BaseImputer
from repro.baselines.registry import ImputerRegistry, MethodInfo
from repro.baselines.simple import LinearInterpolationImputer, MeanImputer
from repro.data.missing import MissingScenario, apply_scenario
from repro.exceptions import ServiceError, ValidationError
from repro.streaming import StreamingService, WindowedStream, replay


class _PoisonImputer(BaseImputer):
    """Fits fine, explodes on impute — a poisoned stream."""

    name = "poison"

    def impute(self, tensor=None):
        raise RuntimeError("poisoned window")


@pytest.fixture
def registry():
    registry = ImputerRegistry()
    registry.register(MethodInfo("mean", MeanImputer,
                                 tags=("streaming", "simple")))
    registry.register(MethodInfo("interpolation", LinearInterpolationImputer,
                                 tags=("streaming", "simple")))
    registry.register(MethodInfo("poison", _PoisonImputer,
                                 tags=("streaming",)))
    return registry


@pytest.fixture
def incomplete_stream(small_panel):
    scenario = MissingScenario("drift_outage", {})
    incomplete, _ = apply_scenario(small_panel, scenario, seed=2)
    return WindowedStream.from_tensor(incomplete, window_size=24, stride=12)


class TestStreamLifecycle:
    def test_open_push_step(self, registry, incomplete_stream):
        svc = StreamingService(registry=registry)
        svc.open_stream("plant-a", method="mean", refit_every=4)
        window = next(iter(incomplete_stream))
        svc.push("plant-a", window)
        (result,) = svc.step()
        assert result.ok and result.refit
        assert result.completed.missing_fraction == 0.0
        assert result.stream_id == "plant-a"
        assert svc.describe()["streams"]["plant-a"]["windows_served"] == 1

    def test_duplicate_and_unknown_streams_are_rejected(self, registry):
        svc = StreamingService(registry=registry)
        svc.open_stream("a", method="mean")
        with pytest.raises(ValidationError):
            svc.open_stream("a", method="mean")
        with pytest.raises(ServiceError):
            svc.push("missing", object())

    def test_stream_id_must_be_path_safe(self, registry):
        svc = StreamingService(registry=registry)
        with pytest.raises(ValidationError):
            svc.open_stream("../evil", method="mean")

    def test_closed_stream_rejects_pushes(self, registry, incomplete_stream):
        svc = StreamingService(registry=registry)
        svc.open_stream("a", method="mean")
        svc.close_stream("a")
        with pytest.raises(ServiceError):
            svc.push("a", next(iter(incomplete_stream)))

    def test_closed_stream_id_can_be_reopened(self, registry,
                                              incomplete_stream):
        # A site that goes offline and comes back reuses its stream id;
        # the old stream's model is evicted, the new one starts fresh.
        svc = StreamingService(registry=registry)
        svc.open_stream("plant-a", method="mean", refit_every=0)
        window = next(iter(incomplete_stream))
        svc.push("plant-a", window)
        (first,) = svc.step()
        assert first.ok
        old_model = svc._streams["plant-a"].model_id
        svc.close_stream("plant-a")

        state = svc.open_stream("plant-a", method="interpolation")
        assert not state.closed and state.windows_served == 0
        assert old_model not in svc.service.store
        svc.push("plant-a", window)
        (again,) = svc.step()
        assert again.ok and again.refit

    def test_max_history_none_means_unbounded(self, registry):
        svc = StreamingService(registry=registry, default_max_history=16)
        unbounded = svc.open_stream("a", method="mean", max_history=None)
        assert unbounded.history.max_history is None
        defaulted = svc.open_stream("b", method="mean")
        assert defaulted.history.max_history == 16

    def test_non_streaming_method_warns(self, registry, small_panel):
        registry.register(MethodInfo("untagged", MeanImputer))
        svc = StreamingService(registry=registry)
        with pytest.warns(UserWarning, match="not tagged streaming"):
            svc.open_stream("a", method="untagged")


class TestServing:
    def test_run_serves_every_window_of_every_stream(self, registry,
                                                     small_panel):
        scenario = MissingScenario("periodic_outage", {"period": 12})
        streams = {}
        for k in range(3):
            incomplete, _ = apply_scenario(small_panel, scenario, seed=k)
            streams[f"s{k}"] = WindowedStream.from_tensor(
                incomplete, window_size=24, stride=12)
        svc = StreamingService(registry=registry)
        for stream_id in streams:
            svc.open_stream(stream_id, method="interpolation", refit_every=4)
        served = svc.run(streams)
        expected = streams["s0"].n_windows
        for stream_id, results in served.items():
            assert len(results) == expected
            assert all(r.ok for r in results)
            # windows come back in stream order
            assert [r.window_index for r in results] == list(range(expected))

    def test_refit_cadence_through_the_model_store(self, registry,
                                                   incomplete_stream):
        svc = StreamingService(registry=registry)
        svc.open_stream("a", method="mean", refit_every=3)
        served = svc.run({"a": incomplete_stream})["a"]
        n_windows = len(served)
        expected_refits = 1 + (n_windows - 1) // 3
        assert sum(r.refit for r in served) == expected_refits
        assert svc.describe()["streams"]["a"]["refits"] == expected_refits

    def test_superseded_models_are_evicted(self, registry, incomplete_stream,
                                           tmp_path):
        # A long-running stream must not leak one model per refit.
        svc = StreamingService(registry=registry,
                               store_dir=str(tmp_path / "models"))
        svc.open_stream("a", method="mean", refit_every=1)
        served = svc.run({"a": incomplete_stream})["a"]
        assert sum(r.refit for r in served) == len(served)
        assert svc.service.list_models() == [svc._streams["a"].model_id]
        assert len(svc.service.fit_counts) == 1
        assert len(svc.service.fit_seconds) == 1

    def test_warm_start_model_is_never_evicted(self, registry, small_panel,
                                               incomplete_stream):
        inner = ImputationService(registry=registry)
        model_id = inner.fit(small_panel, method="mean")
        svc = StreamingService(service=inner, registry=registry)
        svc.open_stream("a", method="mean", warm_start=model_id,
                        refit_every=2)
        svc.run({"a": incomplete_stream})
        # refits replaced each other, but the caller's model survived
        assert model_id in svc.service.store

    def test_warm_start_skips_the_initial_fit(self, registry, small_panel,
                                              incomplete_stream):
        inner = ImputationService(registry=registry)
        model_id = inner.fit(small_panel, method="mean")
        svc = StreamingService(service=inner, registry=registry)
        svc.open_stream("a", method="mean", warm_start=model_id,
                        refit_every=0)
        served = svc.run({"a": incomplete_stream})["a"]
        assert all(r.ok and not r.refit for r in served)
        assert svc.service.fit_counts == {model_id: 1}

    def test_warm_start_derives_the_method_from_the_store(self, registry,
                                                          small_panel,
                                                          incomplete_stream):
        # Omitting method= must not silently switch the model family to
        # the interpolation default on the first refit.
        inner = ImputationService(registry=registry)
        model_id = inner.fit(small_panel, method="mean")
        svc = StreamingService(service=inner, registry=registry)
        state = svc.open_stream("a", warm_start=model_id, refit_every=2)
        assert state.method == "mean"
        svc.run({"a": incomplete_stream})
        refit_model = svc._streams["a"].model_id
        assert refit_model != model_id
        assert svc.service.store.method_for(refit_model) == "mean"

    def test_warm_start_requires_a_known_model(self, registry):
        svc = StreamingService(registry=registry)
        with pytest.raises(ServiceError):
            svc.open_stream("a", method="mean", warm_start="nope")

    def test_foreign_pending_requests_are_rejected(self, registry,
                                                   small_panel,
                                                   incomplete_stream):
        # step() drains the wrapped service's queue; a request queued
        # directly on it would be executed and its result silently lost.
        inner = ImputationService(registry=registry)
        model_id = inner.fit(small_panel, method="mean")
        svc = StreamingService(service=inner, registry=registry)
        svc.open_stream("a", method="mean")
        svc.push("a", next(iter(incomplete_stream)))
        inner.submit(model_id=model_id, request=small_panel)
        with pytest.raises(ServiceError, match="foreign pending"):
            svc.step()


class TestFailureIsolation:
    def test_poisoned_stream_never_hurts_its_neighbours(self, registry,
                                                        small_panel):
        scenario = MissingScenario("drift_outage", {})
        incomplete, _ = apply_scenario(small_panel, scenario, seed=1)
        make_stream = lambda: WindowedStream.from_tensor(  # noqa: E731
            incomplete, window_size=24, stride=12)
        svc = StreamingService(registry=registry)
        svc.open_stream("good", method="mean")
        svc.open_stream("bad", method="poison")
        served = svc.run({"good": make_stream(), "bad": make_stream()})
        assert all(r.ok for r in served["good"])
        assert all(not r.ok for r in served["bad"])
        assert all("poisoned window" in r.error for r in served["bad"])
        state = svc.close_stream("bad")
        assert len(state.errors) == len(served["bad"])

    def test_submit_failure_is_isolated_and_never_wedges_the_service(
            self, registry, small_panel):
        # An externally pruned model makes submit() raise for that stream;
        # the sibling stream must keep serving and later steps must work.
        scenario = MissingScenario("periodic_outage", {"period": 12})
        incomplete, _ = apply_scenario(small_panel, scenario, seed=0)
        windows = list(WindowedStream.from_tensor(incomplete, window_size=24,
                                                  stride=12))
        svc = StreamingService(registry=registry)
        svc.open_stream("a", method="mean", refit_every=0)
        svc.open_stream("b", method="mean", refit_every=0)
        svc.push("a", windows[0])
        svc.push("b", windows[0])
        assert all(r.ok for r in svc.step())

        svc.service.store.discard(svc._streams["b"].model_id)
        svc.push("a", windows[1])
        svc.push("b", windows[1])
        by_stream = {r.stream_id: r for r in svc.step()}
        assert by_stream["a"].ok
        assert not by_stream["b"].ok and "unknown model" in by_stream["b"].error
        # the service is not wedged: the next step serves normally
        svc.push("a", windows[2])
        (third,) = svc.step()
        assert third.ok

    def test_run_includes_windows_of_other_open_streams(self, registry,
                                                        small_panel):
        scenario = MissingScenario("periodic_outage", {"period": 12})
        incomplete, _ = apply_scenario(small_panel, scenario, seed=0)
        stream = WindowedStream.from_tensor(incomplete, window_size=24)
        svc = StreamingService(registry=registry)
        svc.open_stream("extra", method="mean")
        svc.push("extra", next(iter(stream)))
        served = svc.run({"main": stream})
        assert len(served["main"]) == stream.n_windows
        assert [r.ok for r in served["extra"]] == [True]

    def test_run_drains_pre_pushed_backlogs(self, registry, small_panel):
        # Pre-pushed windows shift serving a round behind the push
        # cadence; run() must still serve every window of its streams.
        scenario = MissingScenario("periodic_outage", {"period": 12})
        incomplete, _ = apply_scenario(small_panel, scenario, seed=0)
        stream = WindowedStream.from_tensor(incomplete, window_size=24,
                                            stride=12)
        windows = list(stream)
        svc = StreamingService(registry=registry)
        svc.open_stream("a", method="mean")
        svc.push("a", windows[0])                # backlog before run()
        served = svc.run({"a": iter(windows)})
        assert [r.window_index for r in served["a"]] == \
            [windows[0].index] + [w.index for w in windows]
        assert all(r.ok for r in served["a"])
        assert not svc._streams["a"].pending

    def test_warm_start_without_refits_keeps_no_history(self, registry,
                                                        small_panel,
                                                        incomplete_stream):
        inner = ImputationService(registry=registry)
        model_id = inner.fit(small_panel, method="mean")
        svc = StreamingService(service=inner, registry=registry)
        svc.open_stream("a", method="mean", warm_start=model_id,
                        refit_every=0)
        svc.run({"a": incomplete_stream})
        assert svc._streams["a"].history.steps == 0

    def test_fit_failure_is_isolated_too(self, registry, small_panel):
        class _UnfittableImputer(BaseImputer):
            def fit(self, tensor):
                raise RuntimeError("cannot fit")

        registry.register(MethodInfo("unfittable", _UnfittableImputer,
                                     tags=("streaming",)))
        scenario = MissingScenario("periodic_outage", {"period": 12})
        incomplete, _ = apply_scenario(small_panel, scenario, seed=0)
        make_stream = lambda: WindowedStream.from_tensor(  # noqa: E731
            incomplete, window_size=24)
        svc = StreamingService(registry=registry)
        svc.open_stream("good", method="interpolation")
        svc.open_stream("bad", method="unfittable")
        served = svc.run({"good": make_stream(), "bad": make_stream()})
        assert all(r.ok for r in served["good"])
        assert all(not r.ok and "cannot fit" in r.error
                   for r in served["bad"])


class TestReplayHarness:
    def test_replay_reports_per_window_scores(self, small_panel):
        report = replay(small_panel, method="interpolation",
                        scenario="drift_outage", window_size=24,
                        refit_every=4, n_streams=2, seed=0)
        assert report.windows > 0 and report.failures == 0
        assert report.n_streams == 2
        assert report.windows_per_second > 0
        assert np.isfinite(report.mean_mae)
        record = report.to_record()
        assert record["windows"] == report.windows
        assert len(record["rows"]) == report.windows
        assert "windows/sec" in report.describe()

    @pytest.mark.parametrize("scenario", ["drift_outage",
                                          "correlated_failure",
                                          "periodic_outage"])
    def test_new_scenarios_reach_the_streaming_layer(self, small_panel,
                                                     scenario):
        report = replay(small_panel, method="mean", scenario=scenario,
                        window_size=24, refit_every=0, seed=1)
        assert report.windows > 0 and report.failures == 0
        assert scenario in report.scenario


class TestBatchedStep:
    """step(max_windows=K) drains backlogs through one fused sweep."""

    def test_batched_step_matches_one_at_a_time(self, registry, small_panel):
        scenario = MissingScenario("drift_outage", {})
        incomplete, _ = apply_scenario(small_panel, scenario, seed=2)
        windows = list(WindowedStream.from_tensor(
            incomplete, window_size=24, stride=24))

        one = StreamingService(registry=registry)
        one.open_stream("s", method="mean", refit_every=0)
        for window in windows:
            one.push("s", window)
        single_results = []
        while any(state.pending for state in one._streams.values()):
            single_results.extend(one.step())

        many = StreamingService(registry=registry)
        many.open_stream("s", method="mean", refit_every=0)
        for window in windows:
            many.push("s", window)
        batched_results = many.step(max_windows=0)

        assert len(batched_results) == len(single_results) == len(windows)
        for left, right in zip(single_results, batched_results):
            assert left.window_index == right.window_index
            assert left.ok and right.ok
            np.testing.assert_array_equal(left.completed.values,
                                          right.completed.values)

    def test_mid_batch_refit_keeps_earlier_windows_alive(self, registry,
                                                         small_panel):
        scenario = MissingScenario("drift_outage", {})
        incomplete, _ = apply_scenario(small_panel, scenario, seed=2)
        windows = list(WindowedStream.from_tensor(
            incomplete, window_size=24, stride=24))
        svc = StreamingService(registry=registry)
        # refit_every=2: serving 4+ windows in one step refits mid-batch,
        # superseding the model that the first windows were queued against.
        svc.open_stream("s", method="mean", refit_every=2)
        for window in windows[:4]:
            svc.push("s", window)
        results = svc.step(max_windows=4)
        assert len(results) == 4
        assert all(result.ok for result in results)
        assert any(result.refit for result in results)
        # Only the newest model survives the step.
        state = svc._streams["s"]
        assert svc.service.store.list_models() == [state.model_id]

    def test_negative_max_windows_rejected(self, registry):
        svc = StreamingService(registry=registry)
        with pytest.raises(ValidationError):
            svc.step(max_windows=-1)


class TestStreamingFastPath:
    def test_background_tables_land_after_refit(self, incomplete_stream):
        from repro.core.config import DeepMVIConfig

        svc = StreamingService()            # default registry has deepmvi
        svc.open_stream("plant-a", method="deepmvi", refit_every=4,
                        config=DeepMVIConfig.fast(fast_path="background"))
        svc.push("plant-a", next(iter(incomplete_stream)))
        (result,) = svc.step()
        # Serving never waits on the table build: the window is answered
        # by the (stale-but-correct) full forward immediately.
        assert result.ok and result.refit
        # ... and the background build lands without another refit.
        assert svc.wait_for_fast_path("plant-a", timeout=30.0)
        state = svc._streams["plant-a"]
        imputer = svc.service.store.peek(state.model_id)
        assert imputer.fast_path_tables is not None

    def test_wait_for_fast_path_degrades_gracefully(self, registry,
                                                    incomplete_stream):
        svc = StreamingService(registry=registry)
        svc.open_stream("a", method="mean", refit_every=4)
        # No fitted model yet.
        assert svc.wait_for_fast_path("a") is False
        svc.push("a", next(iter(incomplete_stream)))
        svc.step()
        # Fitted, but the method has no fast path.
        assert svc.wait_for_fast_path("a") is False
        with pytest.raises(ServiceError):
            svc.wait_for_fast_path("nope")
