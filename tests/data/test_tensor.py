"""Tests of the TimeSeriesTensor container."""

import numpy as np
import pytest

from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import DimensionError, ShapeError


def _make(values, mask=None, dims=None, name="t"):
    values = np.asarray(values, dtype=float)
    if dims is None:
        dims = [Dimension.categorical("series", values.shape[0])]
    return TimeSeriesTensor(values=values, dimensions=dims, mask=mask, name=name)


class TestConstruction:
    def test_basic_properties(self, tiny_tensor):
        assert tiny_tensor.n_dims == 1
        assert tiny_tensor.n_time == 20
        assert tiny_tensor.n_series == 3
        assert tiny_tensor.shape == (3, 20)

    def test_mask_defaults_to_finite(self):
        values = np.array([[1.0, np.nan, 3.0]])
        tensor = _make(values)
        np.testing.assert_allclose(tensor.mask, [[1.0, 0.0, 1.0]])

    def test_shape_mismatch_with_dimensions_rejected(self):
        with pytest.raises(ShapeError):
            TimeSeriesTensor(values=np.zeros((3, 5)),
                             dimensions=[Dimension.categorical("s", 4)])

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            TimeSeriesTensor(values=np.zeros((3, 4, 5)),
                             dimensions=[Dimension.categorical("s", 3)])

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            _make(np.zeros((2, 4)), mask=np.ones((2, 3)))

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ShapeError):
            _make(np.zeros((1, 3)), mask=np.array([[0.5, 1.0, 1.0]]))

    @pytest.mark.parametrize("bad", [0.5, np.nan, 2.0, -1.0, np.inf,
                                     1.0 + 1e-12])
    def test_mask_values_other_than_zero_and_one_rejected(self, bad):
        with pytest.raises(ShapeError):
            _make(np.zeros((1, 3)), mask=np.array([[0.0, bad, 1.0]]))

    @pytest.mark.parametrize("mask", [[[0.0, 1.0, 1.0]], [[-0.0, 1.0, 0.0]],
                                      [[1.0, 1.0, 1.0]], [[0.0, 0.0, 0.0]],
                                      [[False, True, True]], [[0, 1, 1]]])
    def test_zero_one_masks_accepted(self, mask):
        tensor = _make(np.zeros((1, 3)), mask=np.array(mask))
        assert tensor.mask.dtype == np.float64
        np.testing.assert_array_equal(tensor.mask, np.asarray(mask, float))

    def test_missing_fraction(self, tiny_tensor):
        assert tiny_tensor.missing_fraction == pytest.approx(4 / 60)

    def test_missing_and_available_indices_partition_cells(self, tiny_tensor):
        total = tiny_tensor.missing_indices().shape[0] + tiny_tensor.available_indices().shape[0]
        assert total == 60

    def test_repr_contains_name_and_dims(self, tiny_tensor):
        text = repr(tiny_tensor)
        assert "tiny" in text and "sensor[3]" in text


class TestMatrixViews:
    def test_to_matrix_roundtrip(self, small_multidim_panel):
        matrix, mask = small_multidim_panel.to_matrix()
        assert matrix.shape == (12, 96)
        rebuilt = small_multidim_panel.with_matrix(matrix)
        np.testing.assert_allclose(rebuilt.values, small_multidim_panel.values)

    def test_to_matrix_returns_copies(self, tiny_tensor):
        matrix, _ = tiny_tensor.to_matrix()
        matrix[0, 0] = 999.0
        assert tiny_tensor.values[0, 0] != 999.0

    def test_with_matrix_rejects_wrong_shape(self, tiny_tensor):
        with pytest.raises(ShapeError):
            tiny_tensor.with_matrix(np.zeros((2, 20)))

    def test_series_index_table_multidim(self, small_multidim_panel):
        table = small_multidim_panel.series_index_table()
        assert table.shape == (12, 2)
        # C-order flattening: second dimension varies fastest.
        np.testing.assert_array_equal(table[0], [0, 0])
        np.testing.assert_array_equal(table[1], [0, 1])
        np.testing.assert_array_equal(table[3], [1, 0])

    def test_copy_is_independent(self, tiny_tensor):
        clone = tiny_tensor.copy()
        clone.values[0, 0] = 123.0
        assert tiny_tensor.values[0, 0] != 123.0


class TestMissingAndFill:
    def test_with_missing_hides_cells(self, small_panel):
        missing = np.zeros_like(small_panel.values)
        missing[0, :10] = 1
        hidden = small_panel.with_missing(missing)
        assert hidden.mask[0, :10].sum() == 0
        assert np.isnan(hidden.values[0, :10]).all()
        # untouched elsewhere
        assert hidden.mask[1:].sum() == small_panel.mask[1:].sum()

    def test_with_missing_shape_check(self, small_panel):
        with pytest.raises(ShapeError):
            small_panel.with_missing(np.zeros((2, 2)))

    def test_fill_preserves_observed_values(self, tiny_tensor):
        imputed = np.full_like(tiny_tensor.values, -7.0)
        filled = tiny_tensor.fill(imputed)
        observed = tiny_tensor.mask == 1
        np.testing.assert_allclose(filled.values[observed], tiny_tensor.values[observed])
        np.testing.assert_allclose(filled.values[~observed], -7.0)
        assert filled.missing_fraction == 0.0

    def test_fill_shape_check(self, tiny_tensor):
        with pytest.raises(ShapeError):
            tiny_tensor.fill(np.zeros((1, 2)))


class TestStatistics:
    def test_observed_mean_std_ignores_missing(self):
        values = np.array([[1.0, np.nan, 3.0]])
        tensor = _make(values)
        mean, std = tensor.observed_mean_std()
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(1.0)

    def test_normalised_roundtrip(self, small_panel):
        normalised, mean, std = small_panel.normalised()
        restored = normalised.values * std + mean
        np.testing.assert_allclose(restored, small_panel.values)

    def test_normalised_has_zero_mean_unit_std(self, small_panel):
        normalised, _, _ = small_panel.normalised()
        observed = normalised.values[normalised.mask == 1]
        assert abs(observed.mean()) < 1e-9
        assert observed.std() == pytest.approx(1.0)

    def test_degenerate_std_falls_back_to_one(self):
        tensor = _make(np.full((1, 4), 3.0))
        _, std = tensor.observed_mean_std()
        assert std == 1.0

    def test_aggregate_over_drops_missing(self):
        values = np.array([[1.0, 2.0], [3.0, np.nan]])
        tensor = _make(values)
        aggregate = tensor.aggregate_over(axis=0)
        np.testing.assert_allclose(aggregate, [2.0, 2.0])

    def test_aggregate_over_all_missing_is_nan(self):
        values = np.array([[np.nan], [np.nan]])
        tensor = _make(values)
        assert np.isnan(tensor.aggregate_over(axis=0)[0])

    def test_aggregate_over_invalid_axis(self, tiny_tensor):
        with pytest.raises(DimensionError):
            tiny_tensor.aggregate_over(axis=1)

    def test_aggregate_over_multidim_shape(self, small_multidim_panel):
        aggregate = small_multidim_panel.aggregate_over(axis=0)
        assert aggregate.shape == (3, 96)
