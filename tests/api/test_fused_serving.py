"""Fused serving path: one forward call for a whole micro-batch.

``gather()`` serves every batch through ``impute_many`` — for DeepMVI one
fused network call per chunk of the concatenated missing-cell stream — and
must reproduce the per-request ``impute()`` results bit-for-bit.  A request
that poisons the fused pass falls back to per-request serving so the
failure stays isolated.
"""

import numpy as np
import pytest

from repro.api import ImputationService
from repro.api.requests import ImputeRequest
from repro.core.config import DeepMVIConfig
from repro.core.imputer import DeepMVIImputer
from repro.data.datasets import load_dataset
from repro.data.missing import MissingScenario, apply_scenario
from repro.exceptions import ServiceError

TINY_CONFIG = DeepMVIConfig(max_epochs=2, samples_per_epoch=32, patience=1,
                            batch_size=8, n_filters=4, max_context_windows=8)
SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})


@pytest.fixture(scope="module")
def truth():
    return load_dataset("airq", size="tiny", seed=0)


@pytest.fixture(scope="module")
def fitted_deepmvi(truth):
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    return DeepMVIImputer(config=TINY_CONFIG).fit(incomplete)


def _requests(truth, seeds):
    return [apply_scenario(truth, SCENARIO, seed=seed)[0] for seed in seeds]


class TestImputeMany:
    def test_fused_equals_sequential_bitwise(self, truth, fitted_deepmvi):
        tensors = _requests(truth, (1, 2, 3, 4))
        sequential = [fitted_deepmvi.impute(t) for t in tensors]
        fused = fitted_deepmvi.impute_many(tensors)
        for left, right in zip(sequential, fused):
            np.testing.assert_array_equal(left.values, right.values)

    def test_none_means_fitted_tensor(self, fitted_deepmvi):
        np.testing.assert_array_equal(
            fitted_deepmvi.impute().values,
            fitted_deepmvi.impute_many([None])[0].values)

    def test_mixed_shapes_fall_into_separate_groups(self, truth,
                                                    fitted_deepmvi):
        short = load_dataset("airq", size="tiny", seed=0, length=64)
        incomplete_short, _ = apply_scenario(short, SCENARIO, seed=9)
        tensors = _requests(truth, (5,)) + [incomplete_short]
        fused = fitted_deepmvi.impute_many(tensors)
        assert fused[0].values.shape == truth.values.shape
        assert fused[1].values.shape == short.values.shape
        np.testing.assert_array_equal(
            fused[1].values, fitted_deepmvi.impute(incomplete_short).values)

    def test_refit_with_new_window_refreshes_structure_templates(self, truth):
        """A refit that changes the window must not leave stale templates.

        The per-shape structure cache would otherwise keep serving (or
        keep rejecting) tables built for the old window for the imputer's
        remaining lifetime.
        """
        import dataclasses as _dc

        imputer = DeepMVIImputer(config=TINY_CONFIG, auto_window=False)
        incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
        imputer.fit(incomplete)
        tensors = _requests(truth, (1, 2))
        first = imputer.impute_many(tensors)
        assert imputer._structure_cache()      # templates populated

        refit_config = _dc.replace(TINY_CONFIG, window=TINY_CONFIG.window * 2)
        imputer.config = refit_config
        imputer.fit(incomplete)                # clears stale templates
        second = imputer.impute_many(tensors)
        sequential = [imputer.impute(t) for t in tensors]
        for fused, direct in zip(second, sequential):
            np.testing.assert_array_equal(fused.values, direct.values)
        # The refreshed templates carry the new window.
        for template in imputer._structure_cache().values():
            assert template.window == imputer.config.window
        assert first[0].values.shape == second[0].values.shape

    def test_base_imputer_default_loops(self, truth):
        from repro.baselines.simple import MeanImputer

        tensors = _requests(truth, (1, 2))
        imputer = MeanImputer().fit(tensors[0])
        fused = imputer.impute_many(tensors)
        for tensor, completed in zip(tensors, fused):
            np.testing.assert_array_equal(
                completed.values, imputer.impute(tensor).values)


class TestFusedGather:
    def test_gather_matches_per_request_impute(self, truth):
        service = ImputationService()
        incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
        model_id = service.fit(incomplete, method="deepmvi",
                               config=TINY_CONFIG)
        tensors = _requests(truth, (1, 2, 3))
        direct = [service.impute(t, model_id=model_id) for t in tensors]
        for tensor in tensors:
            service.submit(tensor, model_id=model_id)
        gathered = service.gather()
        assert len(gathered) == len(direct)
        for one, many in zip(direct, gathered):
            np.testing.assert_array_equal(one.completed.values,
                                          many.completed.values)
            assert many.from_batch and many.fused
            assert not one.fused
            assert many.runtime_seconds > 0

    def test_single_request_batch_is_not_fused(self, truth):
        service = ImputationService()
        incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
        model_id = service.fit(incomplete, method="mean")
        service.submit(incomplete, model_id=model_id)
        (result,) = service.gather()
        assert result.from_batch and not result.fused

    def test_poisoned_request_falls_back_and_isolates(self, truth):
        from repro.baselines.registry import ImputerRegistry, MethodInfo
        from repro.baselines.simple import MeanImputer

        class PoisonableImputer(MeanImputer):
            """Rejects tensors named 'poison'; serves everything else.

            Overrides ``impute_many`` so the serving layer attempts the
            fused pass (the Base default would be skipped) — the poisoned
            tensor must abort it and trigger the per-request fallback.
            """

            def impute(self, tensor=None):
                if tensor is not None and tensor.name == "poison":
                    raise RuntimeError("poisoned tensor")
                return super().impute(tensor)

            def impute_many(self, tensors):
                return [self.impute(tensor) for tensor in tensors]

        registry = ImputerRegistry()
        registry.register(MethodInfo("poisonable", PoisonableImputer))
        service = ImputationService(registry=registry)
        incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
        model_id = service.fit(incomplete, method="poisonable")
        good = _requests(truth, (1, 2))
        bad = incomplete.copy()
        bad.name = "poison"
        service.submit(good[0], model_id=model_id)
        service.submit(ImputeRequest(model_id=model_id, data=bad,
                                     request_id="poison"))
        service.submit(good[1], model_id=model_id)
        with pytest.raises(ServiceError) as excinfo:
            service.gather()
        assert len(excinfo.value.partial_results) == 2
        assert set(service.last_errors) == {"poison"}
        # The fallback results are per-request, not fused.
        assert all(not result.fused
                   for result in excinfo.value.partial_results)

    def test_fused_latency_includes_queue_wait(self, truth):
        """latency_seconds = queue wait + compute on the fused path."""
        service = ImputationService()
        incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
        model_id = service.fit(incomplete, method="deepmvi",
                               config=TINY_CONFIG)
        for tensor in _requests(truth, (1, 2, 3)):
            service.submit(tensor, model_id=model_id)
        results = service.gather()
        assert all(result.fused for result in results)
        for result in results:
            # Queue wait (submit -> serve) is real, so end-to-end latency
            # must strictly dominate the request's compute share.
            assert result.latency_seconds > result.runtime_seconds > 0

    def test_fallback_latency_includes_queue_wait(self, truth):
        """Same accounting on the per-request fallback path."""
        service = ImputationService()
        incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
        model_id = service.fit(incomplete, method="mean")
        for tensor in _requests(truth, (1, 2)):
            service.submit(tensor, model_id=model_id)
        results = service.gather()
        assert all(not result.fused for result in results)
        for result in results:
            assert result.latency_seconds >= result.runtime_seconds
            assert result.latency_seconds > 0

    def test_synchronous_impute_latency_equals_runtime(self, truth):
        service = ImputationService()
        incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
        model_id = service.fit(incomplete, method="mean")
        result = service.impute(incomplete, model_id=model_id)
        assert result.latency_seconds == result.runtime_seconds > 0

    def test_latency_round_trips_the_wire(self, truth):
        from repro.api.requests import ImputeResult

        service = ImputationService()
        incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
        model_id = service.fit(incomplete, method="mean")
        result = service.impute(incomplete, model_id=model_id)
        clone = ImputeResult.from_dict(result.to_dict())
        assert clone.latency_seconds == pytest.approx(
            result.latency_seconds)

    def test_unfused_method_gather_is_batched_not_fused(self, truth):
        incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
        tensors = _requests(truth, (1, 2, 3))
        service = ImputationService()
        model_id = service.fit(incomplete, method="svdimp", rank=3)
        direct = [service.impute(tensor, model_id=model_id)
                  for tensor in tensors]
        for tensor in tensors:
            service.submit(tensor, model_id=model_id)
        for one, many in zip(direct, service.gather()):
            np.testing.assert_array_equal(one.completed.values,
                                          many.completed.values)
            # svdimp has no fused impute_many: the serving layer must not
            # pretend otherwise.
            assert many.from_batch and not many.fused
