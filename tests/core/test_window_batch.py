"""The per-window batch and the batch-composition contract of serving.

A :class:`~repro.core.context.Batch` stores each distinct (series, target
window) context once and maps every cell to its row.  The contract these
tests pin down: an answer does not depend on which other cells or requests
share the forward call, and windows of different requests never merge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DeepMVIConfig
from repro.core.context import DatasetContext, concatenate_batches
from repro.core.imputer import DeepMVIImputer
from repro.core.sampling import MissingShapeSampler, TrainingSampler
from repro.data.datasets import load_dataset
from repro.data.missing import MissingScenario, apply_scenario
from repro.data.tensor import TimeSeriesTensor

SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})
TINY_CONFIG = DeepMVIConfig(max_epochs=2, samples_per_epoch=32, patience=1,
                            batch_size=8, n_filters=4, max_context_windows=8)


@pytest.fixture(scope="module")
def served():
    """(truth panel, incomplete panel, fitted imputer), fitted once."""
    panel = load_dataset("airq", size="tiny", seed=7, length=120, shape=(8,))
    incomplete, _ = apply_scenario(panel, SCENARIO, seed=0)
    return panel, incomplete, DeepMVIImputer(TINY_CONFIG).fit(incomplete)


def _hide(tensor: TimeSeriesTensor, cells) -> TimeSeriesTensor:
    """``tensor`` with the given flat (series, time) cells made missing."""
    n_series = tensor.n_series
    values = tensor.values.reshape(n_series, tensor.n_time).copy()
    mask = tensor.mask.reshape(n_series, tensor.n_time).copy()
    for row, time in cells:
        values[row, time] = np.nan
        mask[row, time] = 0
    return TimeSeriesTensor(values=values.reshape(tensor.values.shape),
                            dimensions=list(tensor.dimensions),
                            mask=mask.reshape(tensor.mask.shape))


class TestPerWindowBatch:
    def test_cells_of_one_window_share_a_row(self, small_panel):
        context = DatasetContext(small_panel, window=8, max_context_windows=6)
        rows = np.array([3, 0, 3, 3, 0])
        times = np.array([17, 5, 20, 30, 2])
        batch = context.build_batch(rows, times)
        # (3, window 2) twice, (3, window 3) once, (0, window 0) twice.
        assert batch.window_values.shape[0] == 3
        assert batch.size == 5
        assert batch.cell_window[0] == batch.cell_window[2]
        assert batch.cell_window[1] == batch.cell_window[4]
        assert len(set(batch.cell_window[[0, 1, 3]])) == 3
        for cell in range(5):
            alone = context.build_batch(rows[cell:cell + 1],
                                        times[cell:cell + 1])
            row = batch.cell_window[cell]
            np.testing.assert_array_equal(batch.window_values[row],
                                          alone.window_values[0])
            np.testing.assert_array_equal(batch.window_avail[row],
                                          alone.window_avail[0])
            np.testing.assert_array_equal(batch.absolute_index[row],
                                          alone.absolute_index[0])
            assert batch.target_window[row] == alone.target_window[0]
            assert batch.target_offset[cell] == alone.target_offset[0]

    def test_training_batch_keeps_one_window_per_sample(self, small_panel):
        incomplete, _ = apply_scenario(small_panel, SCENARIO, seed=0)
        context = DatasetContext(incomplete, window=8, max_context_windows=8)
        shapes = MissingShapeSampler(1.0 - context.avail,
                                     context.index_table,
                                     context.dimension_sizes)
        sampler = TrainingSampler(context, shapes, np.random.default_rng(0))
        batch = sampler.sample_batch(64)
        assert batch.window_values.shape[0] == batch.size == 64
        np.testing.assert_array_equal(batch.cell_window, np.arange(64))
        # Equal ids do not mean equal inputs once each sample hides its own
        # block, so even repeated cells keep separate windows.
        rows = np.array([2, 2])
        times = np.array([40, 40])
        override = context.padded_avail[rows].copy()
        override[0, 32:40] = 0.0
        batch = context.build_batch(rows, times,
                                    series_avail_override=override)
        assert batch.window_values.shape[0] == 2
        assert not np.array_equal(batch.window_avail[0],
                                  batch.window_avail[1])


class TestFusedRequests:
    def test_equal_ids_with_different_values_are_not_merged(self, served):
        panel, _, imputer = served
        first = _hide(panel.slice_time(10, 50), [(2, 13)])
        second = _hide(panel.slice_time(60, 100), [(2, 13)])
        config = imputer.config
        contexts = [DatasetContext(tensor, window=config.window,
                                   max_context_windows=config
                                   .max_context_windows)
                    for tensor in (first, second)]
        pieces = [context.build_batch(np.array([2]), np.array([13]))
                  for context in contexts]
        fused = concatenate_batches(pieces)
        assert fused.window_values.shape[0] == 2
        np.testing.assert_array_equal(fused.cell_window, [0, 1])
        assert not np.array_equal(fused.window_values[0],
                                  fused.window_values[1])
        predictions = imputer.model.predict(fused)
        assert predictions[0] != predictions[1]
        for piece, prediction in zip(pieces, predictions):
            assert imputer.model.predict(piece)[0] == prediction

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_answer_does_not_depend_on_companions(self, served, data):
        panel, incomplete, imputer = served
        width = data.draw(st.sampled_from([24, 40]), label="width")
        start = data.draw(st.integers(0, panel.n_time - width), label="start")
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, panel.n_series - 1),
                      st.integers(0, width - 1)),
            min_size=1, max_size=6, unique=True), label="hidden cells")
        request = _hide(panel.slice_time(start, start + width), cells)
        companions = [
            incomplete.slice_time(offset, offset + size)
            for offset, size in data.draw(st.lists(
                st.tuples(st.integers(0, panel.n_time - 40),
                          st.sampled_from([24, 40])),
                min_size=1, max_size=3), label="companions")]
        position = data.draw(st.integers(0, len(companions)),
                             label="position")
        fused = companions[:position] + [request] + companions[position:]
        alone = imputer.impute(request).values
        together = imputer.impute_many(fused)[position].values
        np.testing.assert_array_equal(alone, together)
