"""The multidimensional time-series tensor container.

A :class:`TimeSeriesTensor` holds an ``(K_1, ..., K_n, T)`` array of values
together with an availability mask of the same shape (1 = observed,
0 = missing), mirroring the tensors ``X``, ``A`` and ``M`` of the paper's
problem statement (Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.data.dimensions import Dimension
from repro.exceptions import DimensionError, ShapeError


@dataclass
class TimeSeriesTensor:
    """Values and availability for a multidimensional time-series dataset.

    Parameters
    ----------
    values:
        ``(K_1, ..., K_n, T)`` float array.  Missing positions may hold any
        value (commonly ``nan``); only positions with ``mask == 1`` are
        treated as observed.
    dimensions:
        One :class:`Dimension` per non-time axis, in order.
    mask:
        Availability mask of the same shape as ``values``; defaults to
        "everything finite is available".
    name:
        Optional dataset name for reporting.
    """

    values: np.ndarray
    dimensions: List[Dimension]
    mask: Optional[np.ndarray] = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != len(self.dimensions) + 1:
            raise ShapeError(
                f"values has {self.values.ndim} axes but "
                f"{len(self.dimensions)} dimensions + time were declared")
        for axis, dimension in enumerate(self.dimensions):
            if self.values.shape[axis] != dimension.size:
                raise ShapeError(
                    f"axis {axis} has size {self.values.shape[axis]} but dimension "
                    f"{dimension.name!r} declares {dimension.size} members")
        if self.mask is None:
            self.mask = np.isfinite(self.values).astype(np.float64)
        else:
            self.mask = np.asarray(self.mask, dtype=np.float64)
            if self.mask.shape != self.values.shape:
                raise ShapeError(
                    f"mask shape {self.mask.shape} != values shape {self.values.shape}")
            if not ((self.mask == 0) | (self.mask == 1)).all():
                raise ShapeError("mask must contain only 0/1 values")

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_dims(self) -> int:
        """Number of non-time dimensions (the paper's ``n``)."""
        return len(self.dimensions)

    @property
    def n_time(self) -> int:
        """Length of the time axis ``T``."""
        return self.values.shape[-1]

    @property
    def n_series(self) -> int:
        """Number of individual time series (product of member counts)."""
        return int(np.prod(self.values.shape[:-1])) if self.n_dims else 1

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.values.shape

    @property
    def missing_fraction(self) -> float:
        """Fraction of cells that are missing."""
        return float(1.0 - self.mask.mean())

    def missing_indices(self) -> np.ndarray:
        """``(n_missing, n_dims + 1)`` integer array of missing cell coordinates."""
        return np.argwhere(self.mask == 0)

    def available_indices(self) -> np.ndarray:
        """``(n_available, n_dims + 1)`` integer array of observed cell coordinates."""
        return np.argwhere(self.mask == 1)

    # ------------------------------------------------------------------ #
    # views and conversions
    # ------------------------------------------------------------------ #
    def to_matrix(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten to ``(n_series, T)`` value and mask matrices.

        This is the view the matrix-completion baselines operate on: rows are
        series (all member combinations, in C order), columns are time.
        """
        flat_values = self.values.reshape(self.n_series, self.n_time)
        flat_mask = self.mask.reshape(self.n_series, self.n_time)
        return flat_values.copy(), flat_mask.copy()

    def with_matrix(self, matrix: np.ndarray) -> "TimeSeriesTensor":
        """Return a copy whose values are replaced by a flattened ``(n_series, T)`` matrix."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (self.n_series, self.n_time):
            raise ShapeError(
                f"matrix shape {matrix.shape} != ({self.n_series}, {self.n_time})")
        return TimeSeriesTensor(
            values=matrix.reshape(self.values.shape),
            dimensions=list(self.dimensions),
            mask=self.mask.copy(),
            name=self.name,
        )

    def slice_time(self, start: int, stop: int) -> "TimeSeriesTensor":
        """Copied contiguous time slice ``[start, stop)`` of the tensor.

        This is the windowing primitive of the streaming layer
        (:mod:`repro.streaming`): member dimensions are preserved, only the
        time axis is cut.
        """
        if not 0 <= start < stop <= self.n_time:
            raise ShapeError(
                f"time slice [{start}, {stop}) is outside [0, {self.n_time})")
        return TimeSeriesTensor(
            values=self.values[..., start:stop].copy(),
            dimensions=list(self.dimensions),
            mask=self.mask[..., start:stop].copy(),
            name=self.name,
        )

    def copy(self) -> "TimeSeriesTensor":
        return TimeSeriesTensor(
            values=self.values.copy(),
            dimensions=list(self.dimensions),
            mask=self.mask.copy(),
            name=self.name,
        )

    def series_index_table(self) -> np.ndarray:
        """``(n_series, n_dims)`` table mapping flat series row → member indices.

        Row ``r`` of :meth:`to_matrix` corresponds to the member combination
        given by row ``r`` of this table.
        """
        if self.n_dims == 0:
            return np.zeros((1, 0), dtype=np.int64)
        grids = np.meshgrid(
            *[np.arange(d.size) for d in self.dimensions], indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)

    # ------------------------------------------------------------------ #
    # masking and imputation plumbing
    # ------------------------------------------------------------------ #
    def with_missing(self, missing_mask: np.ndarray) -> "TimeSeriesTensor":
        """Return a copy with the cells where ``missing_mask == 1`` marked missing.

        The values at the newly missing cells are replaced by ``nan`` so that
        no method can accidentally peek at them.
        """
        missing_mask = np.asarray(missing_mask, dtype=np.float64)
        if missing_mask.shape != self.values.shape:
            raise ShapeError(
                f"missing mask shape {missing_mask.shape} != {self.values.shape}")
        new_mask = self.mask * (1.0 - missing_mask)
        new_values = self.values.copy()
        new_values[missing_mask == 1] = np.nan
        return TimeSeriesTensor(
            values=new_values,
            dimensions=list(self.dimensions),
            mask=new_mask,
            name=self.name,
        )

    def fill(self, imputed: np.ndarray) -> "TimeSeriesTensor":
        """Return a complete copy whose missing cells come from ``imputed``.

        Observed cells always keep their original values — imputation must
        never change what was measured.
        """
        imputed = np.asarray(imputed, dtype=np.float64)
        if imputed.shape != self.values.shape:
            raise ShapeError(
                f"imputed shape {imputed.shape} != {self.values.shape}")
        merged = np.where(self.mask == 1, self.values, imputed)
        return TimeSeriesTensor(
            values=merged,
            dimensions=list(self.dimensions),
            mask=np.ones_like(self.mask),
            name=self.name,
        )

    # ------------------------------------------------------------------ #
    # statistics and aggregation
    # ------------------------------------------------------------------ #
    def observed_mean_std(self) -> Tuple[float, float]:
        """Mean and standard deviation over observed cells only."""
        observed = self.values[self.mask == 1]
        if observed.size == 0:
            return 0.0, 1.0
        std = float(observed.std())
        return float(observed.mean()), std if std > 0 else 1.0

    def normalised(self) -> Tuple["TimeSeriesTensor", float, float]:
        """Z-normalised copy plus the (mean, std) used, for later de-normalisation."""
        mean, std = self.observed_mean_std()
        values = (self.values - mean) / std
        return (
            TimeSeriesTensor(values=values, dimensions=list(self.dimensions),
                             mask=self.mask.copy(), name=self.name),
            mean,
            std,
        )

    def aggregate_over(self, axis: int = 0) -> np.ndarray:
        """Average over one member dimension, ignoring missing cells.

        This is the downstream-analytics statistic of Section 5.7: averaging
        the first dimension gives an ``(K_2, ..., K_n, T)`` aggregate series
        (a single series when ``n == 1``).  Cells where every contributing
        value is missing come out as ``nan``.
        """
        if not 0 <= axis < self.n_dims:
            raise DimensionError(f"axis {axis} is not a member dimension")
        weights = self.mask.sum(axis=axis)
        sums = np.where(self.mask == 1, self.values, 0.0).sum(axis=axis)
        with np.errstate(invalid="ignore", divide="ignore"):
            result = np.where(weights > 0, sums / np.maximum(weights, 1e-12), np.nan)
        return result

    def __repr__(self) -> str:
        dims = " x ".join(f"{d.name}[{d.size}]" for d in self.dimensions)
        return (f"TimeSeriesTensor(name={self.name!r}, dims={dims}, T={self.n_time}, "
                f"missing={self.missing_fraction:.1%})")
