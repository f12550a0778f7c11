"""Stacked serving against a per-request oracle.

:meth:`DeepMVIImputer.impute_many` serves each group of same-shaped
requests as one stacked context: one block of rows per request, each
block normalised with its own statistics, one missing-cell scan, one
``build_batch`` per chunk and one denormalisation per group.  The oracle
here is the per-request pipeline it replaced: one
:class:`~repro.core.context.DatasetContext`, one table stage, and one
``build_batch`` + ``predict`` per chunk for every request on its own.  The
two must agree bit for bit, whatever the group sizes, shapes, chunk
boundaries and table hits.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DeepMVIConfig
from repro.core.context import DatasetContext
from repro.core.imputer import DeepMVIImputer
from repro.data.datasets import load_dataset
from repro.data.missing import MissingScenario, apply_scenario
from repro.data.tensor import TimeSeriesTensor

SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})
#: a small impute_batch_size makes chunks straddle request blocks
TINY_CONFIG = DeepMVIConfig(max_epochs=2, samples_per_epoch=32, patience=1,
                            batch_size=8, n_filters=4, max_context_windows=8,
                            impute_batch_size=16)


@pytest.fixture(scope="module")
def served():
    """(truth panel, fitted incomplete panel, fitted imputer)."""
    panel = load_dataset("airq", size="tiny", seed=7, length=120, shape=(8,))
    incomplete, _ = apply_scenario(panel, SCENARIO, seed=0)
    return panel, incomplete, DeepMVIImputer(TINY_CONFIG).fit(incomplete)


@pytest.fixture(scope="module")
def served_multidim():
    """The same over a (4 stores x 3 items) panel: two sibling tables."""
    panel = load_dataset("janatahack", size="tiny", seed=11, length=96,
                         shape=(4, 3))
    incomplete, _ = apply_scenario(panel, SCENARIO, seed=0)
    return panel, incomplete, DeepMVIImputer(TINY_CONFIG).fit(incomplete)


def serve_reference(imputer: DeepMVIImputer, tensors):
    """Per-request serving: (completed tensors, per-request table hits)."""
    config, fitted = imputer.config, imputer._fitted_tensor
    tables = imputer.fast_path_tables
    completed, hits_per_request = [], []
    for tensor in tensors:
        tensor = fitted if tensor is None else tensor
        if tensor is fitted:
            context = imputer.context
        else:
            same_shape = tensor.values.shape == fitted.values.shape
            context = DatasetContext(
                tensor, window=config.window,
                max_context_windows=config.max_context_windows,
                flatten_dimensions=config.flatten_dimensions,
                normalisation=(imputer.context.mean, imputer.context.std)
                if same_shape else None)
        cells = np.argwhere(context.avail == 0)
        cells = cells[cells[:, 1] < context.n_time]
        matrix = context.matrix.copy()
        served = 0
        match = tables.match_windows(context) if tables is not None \
            else None
        if match is not None and cells.shape[0]:
            hits, predictions = tables.lookup(context, cells, match)
            matrix[cells[hits, 0], cells[hits, 1]] = predictions[hits]
            cells, served = cells[~hits], int(hits.sum())
        for lo in range(0, cells.shape[0], config.impute_batch_size):
            chunk = cells[lo:lo + config.impute_batch_size]
            batch = context.build_batch(chunk[:, 0], chunk[:, 1])
            matrix[chunk[:, 0], chunk[:, 1]] = imputer.model.predict(batch)
        completed.append(tensor.fill(
            context.denormalise(matrix).reshape(tensor.values.shape)))
        hits_per_request.append(served)
    return completed, hits_per_request


def _window(panel, rng, width, kind):
    """A request: a ``width``-step slice of ``panel`` with cells hidden.

    ``kind`` is ``"mcar"`` (random cells), ``"complete"`` (nothing
    missing) or ``"blank_row"`` (one series missing entirely, plus a few
    random cells).
    """
    start = int(rng.integers(0, panel.n_time - width + 1))
    window = panel.slice_time(start, start + width)
    values = window.values.reshape(window.n_series, width).copy()
    mask = np.ones_like(values)
    if kind != "complete":
        mask[rng.random(mask.shape) < 0.2] = 0.0
    if kind == "blank_row":
        mask[int(rng.integers(0, window.n_series))] = 0.0
    values[mask == 0] = np.nan
    return TimeSeriesTensor(values=values.reshape(window.values.shape),
                            dimensions=list(window.dimensions),
                            mask=mask.reshape(window.values.shape))


def _fitted_variant(incomplete, rng):
    """A fitted-shaped request agreeing with the fit on most windows."""
    values = incomplete.values.reshape(incomplete.n_series, -1).copy()
    mask = incomplete.mask.reshape(incomplete.n_series, -1).copy()
    for _ in range(int(rng.integers(0, 3))):
        row = int(rng.integers(0, values.shape[0]))
        time = int(rng.integers(0, values.shape[1]))
        values[row, time] = 10.0 * rng.normal()
        mask[row, time] = 1.0
    values[mask == 0] = np.nan
    return TimeSeriesTensor(values=values.reshape(incomplete.values.shape),
                            dimensions=list(incomplete.dimensions),
                            mask=mask.reshape(incomplete.values.shape))


def _assert_matches_reference(imputer, tensors):
    expected, hits = serve_reference(imputer, tensors)
    completed = imputer.impute_many(tensors)
    assert len(completed) == len(tensors)
    for position, (want, got) in enumerate(zip(expected, completed)):
        assert got.values.shape == want.values.shape, position
        np.testing.assert_array_equal(got.values, want.values,
                                      err_msg=f"request {position}")
    assert [info["fast_path_hits"] for info in imputer.last_impute_info] \
        == hits


KINDS = st.sampled_from(["mcar", "mcar", "complete", "blank_row"])


class TestStackedEqualsPerRequest:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_groups_match_the_per_request_oracle(self, served, data):
        panel, incomplete, imputer = served
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        entries = [
            _window(panel, rng, 40, kind) for kind in data.draw(
                st.lists(KINDS, min_size=1, max_size=40), label="40-step")]
        entries += [
            _window(panel, rng, 24, kind) for kind in data.draw(
                st.lists(KINDS, max_size=5), label="24-step")]
        entries += [_fitted_variant(incomplete, rng) for _ in range(
            data.draw(st.integers(0, 3), label="fitted-shaped"))]
        entries += [None] * data.draw(st.integers(0, 2), label="None")
        order = data.draw(st.permutations(range(len(entries))),
                          label="order")
        _assert_matches_reference(imputer, [entries[i] for i in order])

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_multidimensional_groups_match(self, served_multidim, data):
        panel, incomplete, imputer = served_multidim
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        kinds = data.draw(st.lists(KINDS, min_size=2, max_size=12),
                          label="kinds")
        entries = [_window(panel, rng, 30, kind) for kind in kinds]
        entries.append(_fitted_variant(incomplete, rng))
        _assert_matches_reference(imputer, entries)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunks_straddling_request_blocks(self, served, delta,
                                              monkeypatch):
        """Cell totals of batch size -1, +0 and +1 over three requests."""
        panel, _, imputer = served
        size = imputer.config.impute_batch_size
        counts = [6, 5, size - 11 + delta]
        requests = []
        for index, count in enumerate(counts):
            window = panel.slice_time(10 * index, 10 * index + 40)
            flat = window.values.reshape(window.n_series, 40).copy()
            mask = np.ones_like(flat)
            cells = np.random.default_rng(index).choice(
                flat.size, size=count, replace=False)
            mask.reshape(-1)[cells] = 0.0
            flat[mask == 0] = np.nan
            requests.append(TimeSeriesTensor(
                values=flat.reshape(window.values.shape),
                dimensions=list(window.dimensions),
                mask=mask.reshape(window.values.shape)))
        _assert_matches_reference(imputer, requests)

        calls = []
        predict = imputer.model.predict
        monkeypatch.setattr(imputer.model, "predict",
                            lambda batch: calls.append(batch.size)
                            or predict(batch))
        imputer.impute_many(requests)
        assert sum(calls) == sum(counts)
        assert len(calls) == -(-sum(counts) // size)

    def test_mixed_lengths_share_forward_chunks(self, served, monkeypatch):
        """35- and 40-step requests have one signature and share chunks."""
        panel, _, imputer = served
        rng = np.random.default_rng(3)
        requests = [_window(panel, rng, width, "mcar")
                    for width in (40, 35, 40, 35, 35)]
        _assert_matches_reference(imputer, requests)
        calls = []
        predict = imputer.model.predict
        monkeypatch.setattr(imputer.model, "predict",
                            lambda batch: calls.append(batch.size)
                            or predict(batch))
        imputer.impute_many(requests)
        total = sum(int((r.mask == 0).sum()) for r in requests)
        assert len(calls) == -(-total // imputer.config.impute_batch_size)

    def test_fitted_shaped_group_with_partial_table_hits(self, served):
        _, incomplete, imputer = served
        rng = np.random.default_rng(0)
        requests = [_fitted_variant(incomplete, rng) for _ in range(6)]
        _assert_matches_reference(imputer, requests)
        served_cells = [(info["fast_path_hits"], info["cells"])
                        for info in imputer.last_impute_info]
        assert any(0 < hits < cells for hits, cells in served_cells)
        assert any(hits == cells for hits, cells in served_cells)

    def test_without_tables(self, served):
        panel, incomplete, imputer = served
        state = imputer.get_state()
        state["config"] = dict(state["config"], fast_path="off")
        state["fast_path"] = None
        plain = DeepMVIImputer().set_state(state)
        rng = np.random.default_rng(5)
        requests = [_window(panel, rng, 40, "mcar") for _ in range(5)]
        requests += [_fitted_variant(incomplete, rng), None]
        _assert_matches_reference(plain, requests)


class TestRequestsStayApart:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_answer_does_not_depend_on_companion_values(self, served, data):
        panel, _, imputer = served
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        size = data.draw(st.integers(2, 12), label="group size")
        position = data.draw(st.integers(0, size - 1), label="position")
        group = [_window(panel, rng, 40, "mcar") for _ in range(size)]
        before = imputer.impute_many(group)[position].values
        # Same shapes and masks, other values (and so other statistics).
        replaced = [
            tensor if index == position else TimeSeriesTensor(
                values=np.where(tensor.mask == 1,
                                tensor.values * 3.0 + rng.normal(),
                                np.nan),
                dimensions=list(tensor.dimensions), mask=tensor.mask)
            for index, tensor in enumerate(group)]
        after = imputer.impute_many(replaced)[position].values
        np.testing.assert_array_equal(before, after)

    def test_stacked_rows_equal_one_block_contexts(self, served_multidim):
        panel, _, imputer = served_multidim
        config = imputer.config
        rng = np.random.default_rng(9)
        requests = [_window(panel, rng, 30, "mcar") for _ in range(3)]
        stacked = DatasetContext(requests, window=config.window,
                                 max_context_windows=8)
        assert stacked.n_blocks == 3
        assert stacked.n_series == 3 * requests[0].n_series
        for block, tensor in enumerate(requests):
            alone = DatasetContext(tensor, window=config.window,
                                   max_context_windows=8)
            rows = stacked.block_rows(block)
            np.testing.assert_array_equal(stacked.padded_matrix[rows],
                                          alone.padded_matrix)
            np.testing.assert_array_equal(stacked.padded_avail[rows],
                                          alone.padded_avail)
            assert stacked.block_mean[block] == alone.mean
            assert stacked.block_std[block] == alone.std
            for dim in range(alone.n_dims):
                np.testing.assert_array_equal(
                    stacked.sibling_rows(dim)[rows] - rows.start,
                    alone.sibling_rows(dim))
        # A stack has one statistic per block, not one for the whole.
        with pytest.raises(ValueError):
            stacked.mean


class TestFastLane:
    def test_shape_miss_builds_no_context(self, served, monkeypatch):
        panel, _, imputer = served
        built = []
        monkeypatch.setattr(DatasetContext, "__init__",
                            lambda *args, **kwargs: built.append(args))
        window = _window(panel, np.random.default_rng(0), 40, "mcar")
        assert imputer.try_fast_path([window]) is None
        assert built == []

    def test_all_or_nothing_over_a_group(self, served):
        _, incomplete, imputer = served
        copies = [dataclasses.replace(incomplete, values=incomplete.values
                                      .copy(), mask=incomplete.mask.copy())
                  for _ in range(3)]
        lane = imputer.try_fast_path(copies + [None])
        assert lane is not None
        expected, _ = serve_reference(imputer, copies + [None])
        for got, want in zip(lane, expected):
            np.testing.assert_array_equal(got.values, want.values)
        changed = _fitted_variant(incomplete, np.random.default_rng(1))
        values = changed.values.copy()
        flat = values.reshape(changed.n_series, -1)
        row, time = np.argwhere(changed.mask.reshape(flat.shape) == 0)[0]
        # Make one hidden cell's window observed with a new value: that
        # window no longer matches, so the whole call must miss.
        mask = changed.mask.copy().reshape(flat.shape)
        mask[row, time] = 1.0
        flat[row, time] = 123.0
        moved = TimeSeriesTensor(values=values,
                                 dimensions=list(changed.dimensions),
                                 mask=mask.reshape(changed.values.shape))
        assert imputer.try_fast_path(copies + [moved]) is None
        assert imputer.try_fast_path([None]) is not None

    def test_fast_lane_writes_no_cache(self, served):
        _, incomplete, imputer = served
        imputer._structure_cache().clear()
        assert imputer.try_fast_path([incomplete.copy()]) is not None
        assert imputer._structure_cache() == {}
