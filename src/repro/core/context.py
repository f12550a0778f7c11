"""Dataset context and batch construction for DeepMVI.

The neural modules only ever see small numpy arrays describing a batch of
target cells (their temporal context windows, sibling values, availability
masks).  This module owns the bookkeeping that turns a
:class:`~repro.data.tensor.TimeSeriesTensor` into those arrays:

* flattening to a ``(n_series, T)`` matrix and padding the time axis to a
  multiple of the window size;
* mapping flat series rows to per-dimension member indices and sibling rows;
* cropping a bounded context of windows around each target, once per
  distinct (series, target window) pair rather than once per cell;
* gathering sibling values at the target time, honouring both the dataset's
  availability and the per-sample synthetic missing cuboid used in training.

A context may also **stack** several same-shaped tensors (the requests of
one serving batch) as consecutive blocks of rows: ``R`` tensors of ``n``
series give ``R * n`` rows.  Each block is normalised with its own
``(mean, std)``, and its index and sibling tables are the per-shape
:class:`ContextStructure` shifted to the block's rows, so windows and
siblings never cross requests.  Every request's rows hold exactly the
values its own one-block context would hold, which is what lets one scan,
one :meth:`DatasetContext.build_batch` per chunk and one denormalisation
serve a whole group of requests with answers bit-identical to serving each
alone.

Training batches do not share windows: each sample hides its own synthetic
block through ``series_avail_override``, so two samples with equal
(series, window) ids still see different inputs.  They keep one window per
sample, and the training sampler needs no change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.tensor import TimeSeriesTensor


@dataclass
class Batch:
    """Inputs for one forward pass of :class:`repro.core.model.DeepMVIModel`.

    A batch holds ``B`` target cells and the ``K <= B`` distinct context
    windows they read.  The temporal transformer's coarse signal depends
    only on a cell's (series, target window) pair, so cells that share one
    share a row of the window arrays, and the forward computes that row's
    attention once; ``cell_window`` maps each cell to its row.  Rows are
    never shared across requests.  In a batch built from a stacked context
    each request owns its own block of series rows, so the dedupe key
    (series row, window) already keeps requests apart, and a chunk of the
    group's cell stream may straddle request blocks.  Batches of different
    contexts are joined by :func:`concatenate_batches`, which keeps every
    piece's windows apart.  Training batches keep one row per cell
    (``K == B``), because each sample hides its own synthetic block.
    """

    #: (K, C, w) context-window values (missing -> 0)
    window_values: np.ndarray
    #: (K, C, w) availability of the context windows
    window_avail: np.ndarray
    #: (K, C) absolute window index of each context window
    absolute_index: np.ndarray
    #: (K,) index within the context of the window containing the targets
    target_window: np.ndarray
    #: (B,) row of each cell's context in the (K, ...) window arrays
    cell_window: np.ndarray
    #: (B,) offset of the target inside its window
    target_offset: np.ndarray
    #: (B, n_dims) member index of the target along each dimension
    member_indices: np.ndarray
    #: per-dimension (B, S_i) sibling member indices
    sibling_member_indices: List[np.ndarray] = field(default_factory=list)
    #: per-dimension (B, S_i) sibling values at the target time (missing -> 0)
    sibling_values: List[np.ndarray] = field(default_factory=list)
    #: per-dimension (B, S_i) sibling availability
    sibling_avail: List[np.ndarray] = field(default_factory=list)
    #: (B,) ground-truth values (training only; zeros at inference)
    targets: np.ndarray = None
    #: (B,) flat series row of each target
    series_rows: np.ndarray = None
    #: (B,) target time index
    target_times: np.ndarray = None

    @property
    def size(self) -> int:
        """Number of target cells ``B``."""
        return self.cell_window.shape[0]


def concatenate_batches(batches: Sequence[Batch]) -> Batch:
    """Stack compatible batches along the sample axis into one fused batch.

    Batches are compatible when their non-batch shapes agree (same context
    width, window size and per-dimension sibling counts) — true whenever
    they come from contexts over same-shaped tensors with one model's
    configuration.  Used by the fused serving path to run many requests'
    missing cells through a single forward call.

    Each piece's ``cell_window`` is shifted past the windows of the pieces
    before it, so windows of different requests stay separate rows even
    when their (series, window) ids are equal: the ids name positions in
    each request's own tensor, not its values.
    """
    if not batches:
        raise ValueError("cannot concatenate zero batches")
    if len(batches) == 1:
        return batches[0]
    first = batches[0]
    n_dims = len(first.sibling_member_indices)
    window_offsets = np.cumsum(
        [0] + [b.window_values.shape[0] for b in batches[:-1]])
    return Batch(
        window_values=np.concatenate([b.window_values for b in batches]),
        window_avail=np.concatenate([b.window_avail for b in batches]),
        absolute_index=np.concatenate([b.absolute_index for b in batches]),
        target_window=np.concatenate([b.target_window for b in batches]),
        cell_window=np.concatenate(
            [b.cell_window + offset
             for b, offset in zip(batches, window_offsets)]),
        target_offset=np.concatenate([b.target_offset for b in batches]),
        member_indices=np.concatenate([b.member_indices for b in batches]),
        sibling_member_indices=[
            np.concatenate([b.sibling_member_indices[dim] for b in batches])
            for dim in range(n_dims)],
        sibling_values=[
            np.concatenate([b.sibling_values[dim] for b in batches])
            for dim in range(n_dims)],
        sibling_avail=[
            np.concatenate([b.sibling_avail[dim] for b in batches])
            for dim in range(n_dims)],
        targets=np.concatenate([b.targets for b in batches]),
        series_rows=np.concatenate([b.series_rows for b in batches]),
        target_times=np.concatenate([b.target_times for b in batches]),
    )


@dataclass
class ContextStructure:
    """The shareable, value-free structural tables of a :class:`DatasetContext`.

    What ``structure_from`` actually needs: the shape-derived tables plus
    the facts that decide compatibility.  Caching one of these instead of
    a whole context avoids pinning the template request's value buffers
    (four ``(n_series, padded_time)`` arrays) for the cache's lifetime.
    The tables describe one tensor (one block of a stacked context).
    """

    window: int
    flatten_dimensions: bool
    n_series: int
    dimension_sizes: List[int]
    n_dims: int
    index_table: np.ndarray
    sibling_rows: List[np.ndarray]


def _sibling_row_tables(index_table: np.ndarray,
                        dimension_sizes: List[int]) -> List[np.ndarray]:
    """For each dimension, an ``(n_series, K_i - 1)`` table of sibling rows.

    Row ``r``'s siblings along dimension ``i`` are the flat rows of all
    series that agree with ``r`` on every member index except the ``i``-th.
    """
    n_series, n_dims = index_table.shape[0], len(dimension_sizes)
    tables: List[np.ndarray] = []
    strides = np.ones(n_dims, dtype=np.int64)
    for i in range(n_dims - 2, -1, -1):
        strides[i] = strides[i + 1] * dimension_sizes[i + 1]
    for dim, size in enumerate(dimension_sizes):
        if size <= 1:
            tables.append(np.zeros((n_series, 0), dtype=np.int64))
            continue
        rows = np.arange(n_series, dtype=np.int64)
        own_member = index_table[:, dim]
        base = rows - own_member * strides[dim]
        others = np.arange(size, dtype=np.int64)
        all_rows = base[:, None] + others[None, :] * strides[dim]   # (n_series, K_i)
        keep = others[None, :] != own_member[:, None]
        tables.append(all_rows[keep].reshape(n_series, size - 1))
    return tables


class DatasetContext:
    """Precomputed flat views and index tables for one dataset or a stack.

    Parameters
    ----------
    tensor:
        The (possibly incomplete) dataset, or a sequence of same-shaped
        tensors to stack as consecutive blocks of ``n`` series rows each
        (the requests of one serving group).  Each block's values are
        normalised with that block's own ``(mean, std)``; missing cells
        are stored as zero and tracked by the availability matrix.
    window:
        DeepMVI window size ``w``; the time axis is zero-padded to a
        multiple of it.
    max_context_windows:
        Bound on the number of windows handed to the temporal transformer
        (centred on the target window).
    flatten_dimensions:
        Treat the member combination as a single flat dimension
        (the DeepMVI1D variant).
    structure_from:
        Optional :class:`ContextStructure` to share structural tables
        with.  The index table and sibling-row
        tables depend only on the tensor's *shape* (dimension sizes), not
        its values, yet they dominate context-construction cost — the
        serving hot path builds one context per group of same-shaped
        requests, so reusing a template's tables makes those contexts
        cheap.  An incompatible template (different shape/window/config)
        is silently ignored and the tables are rebuilt, so passing a stale
        template is always safe.  A stack tiles the one-block tables once
        per block, with sibling rows shifted into the block's own rows.
    normalisation:
        Optional ``(mean, std)`` override, applied to every block.  By
        default each block estimates normalisation from its own observed
        cells; a serving caller passes the *fitted* statistics instead so
        request tensors are normalised exactly like the training data —
        which is what lets the fast-path tables compare request windows to
        fitted windows bit-for-bit (:meth:`FastPathTables.match_windows`).
    """

    def __init__(self, tensor: Union[TimeSeriesTensor,
                                     Sequence[TimeSeriesTensor]],
                 window: int,
                 max_context_windows: int = 64,
                 flatten_dimensions: bool = False,
                 structure_from: Optional[ContextStructure] = None,
                 normalisation: Optional[Tuple[float, float]] = None):
        tensors = [tensor] if isinstance(tensor, TimeSeriesTensor) \
            else list(tensor)
        first = tensors[0]
        self.window = window
        self.max_context_windows = max_context_windows
        self.flatten_dimensions = flatten_dimensions
        #: number of stacked tensors, and the series rows of each
        self.n_blocks = len(tensors)
        self.block_series = first.n_series
        self.n_series = self.n_blocks * self.block_series
        self.n_time = first.n_time

        # Value plumbing, open-coded for the serving hot path but
        # bit-identical to the classic tensor.normalised().to_matrix()
        # pipeline per block (same elementwise operations in the same
        # order; each block's statistics broadcast over its own rows).
        # The statistics stay one observed_mean_std call per tensor: its
        # summation order sets their bits.
        if normalisation is not None:
            stats = [(float(normalisation[0]), float(normalisation[1]))] \
                * self.n_blocks
        else:
            stats = [t.observed_mean_std() for t in tensors]
        #: (n_blocks,) normalisation mean and std of each block
        self.block_mean = np.array([mean for mean, _ in stats])
        self.block_std = np.array([std for _, std in stats])
        if self.n_blocks == 1:
            values, mask = first.values, first.mask
        else:
            values = np.stack([t.values for t in tensors])
            mask = np.stack([t.mask for t in tensors])
        blocks = (self.n_blocks, self.block_series * self.n_time)
        matrix = ((values.reshape(blocks) - self.block_mean[:, None])
                  / self.block_std[:, None]).reshape(self.n_series,
                                                     self.n_time)
        mask = mask.reshape(self.n_series, self.n_time)
        matrix = np.where(mask == 1, matrix, 0.0)
        matrix = np.nan_to_num(matrix, nan=0.0)
        self.matrix = matrix
        self.avail = mask.copy()

        # Pad the time axis to a multiple of the window size.
        remainder = self.n_time % window
        pad = 0 if remainder == 0 else window - remainder
        self.padded_time = self.n_time + pad
        self.padded_matrix = np.zeros((self.n_series, self.padded_time))
        self.padded_matrix[:, :self.n_time] = matrix
        self.padded_avail = np.zeros((self.n_series, self.padded_time))
        self.padded_avail[:, :self.n_time] = self.avail
        self.n_windows = self.padded_time // window

        # Member-index table and per-dimension sibling rows of one block —
        # shared with the template when it matches, rebuilt otherwise.
        if flatten_dimensions or first.n_dims == 0:
            sizes = [self.block_series]
        else:
            sizes = [d.size for d in first.dimensions]
        structure = structure_from
        if structure is None \
                or not self._shares_structure(structure, sizes):
            if flatten_dimensions or first.n_dims == 0:
                index_table = np.arange(self.block_series,
                                        dtype=np.int64)[:, None]
            else:
                index_table = first.series_index_table()
            structure = ContextStructure(
                window=window, flatten_dimensions=flatten_dimensions,
                n_series=self.block_series, dimension_sizes=sizes,
                n_dims=len(sizes), index_table=index_table,
                sibling_rows=_sibling_row_tables(index_table, sizes))
        self._structure = structure
        self.dimension_sizes = structure.dimension_sizes
        self.n_dims = structure.n_dims
        if self.n_blocks == 1:
            self.index_table = structure.index_table
            self._sibling_rows = structure.sibling_rows
        else:
            # Tile the block tables; sibling rows point into their own block.
            offsets = (np.arange(self.n_blocks, dtype=np.int64)
                       * self.block_series)[:, None, None]
            self.index_table = np.tile(structure.index_table,
                                       (self.n_blocks, 1))
            self._sibling_rows = [
                (table[None] + offsets).reshape(self.n_series,
                                                table.shape[1])
                for table in structure.sibling_rows]

    def _shares_structure(self, other: ContextStructure,
                          sizes: List[int]) -> bool:
        """Whether ``other``'s structural tables apply to this context."""
        return (other.window == self.window
                and other.flatten_dimensions == self.flatten_dimensions
                and other.n_series == self.block_series
                and other.dimension_sizes == sizes)

    def structure(self) -> ContextStructure:
        """The shareable structural tables of one block (no value buffers)."""
        return self._structure

    @property
    def mean(self) -> float:
        """Normalisation mean of a one-block context."""
        (mean,) = self.block_mean
        return float(mean)

    @property
    def std(self) -> float:
        """Normalisation standard deviation of a one-block context."""
        (std,) = self.block_std
        return float(std)

    def block_rows(self, block: int) -> slice:
        """The series rows of stacked block ``block``."""
        return slice(block * self.block_series,
                     (block + 1) * self.block_series)

    def sibling_rows(self, dim: int) -> np.ndarray:
        """Sibling flat-row table for dimension ``dim``."""
        return self._sibling_rows[dim]

    # ------------------------------------------------------------------ #
    def context_span(self, target_time: np.ndarray) -> Tuple[np.ndarray, int]:
        """Start window of the bounded context for each target, plus its size."""
        context = min(self.max_context_windows, self.n_windows)
        target_window = target_time // self.window
        # minimum/maximum rather than np.clip, whose wrapper costs more than
        # the arithmetic on a request's few dozen cells.
        start = np.minimum(np.maximum(target_window - context // 2, 0),
                           self.n_windows - context)
        return start.astype(np.int64), context

    def build_batch(self, series_rows: np.ndarray, target_times: np.ndarray,
                    series_avail_override: Optional[np.ndarray] = None,
                    member_exclusion: Optional[List[np.ndarray]] = None,
                    targets: Optional[np.ndarray] = None) -> Batch:
        """Assemble a :class:`Batch` for the given target cells.

        The context windows are gathered once per distinct (series, target
        window) pair among the cells — the pair fixes the whole bounded
        context — and ``Batch.cell_window`` points each cell at its pair.
        With ``series_avail_override`` every cell keeps its own windows.

        Parameters
        ----------
        series_rows, target_times:
            ``(B,)`` flat series row and time index of each target.
        series_avail_override:
            Optional ``(B, padded_time)`` availability of the *target's own
            series* replacing the dataset availability — used during
            training to hide the synthetic missing block.  Two samples with
            equal (series, window) ids then see different inputs, so no
            windows are shared.
        member_exclusion:
            Optional per-dimension ``(B, S_i)`` boolean arrays marking
            siblings that fall inside the synthetic missing cuboid and must
            therefore be treated as missing.
        targets:
            ``(B,)`` ground-truth values (normalised scale) for training.
        """
        series_rows = np.asarray(series_rows, dtype=np.int64)
        target_times = np.asarray(target_times, dtype=np.int64)
        batch = series_rows.shape[0]
        w = self.window

        if series_avail_override is None:
            keys = series_rows * self.n_windows + target_times // w
            _, first, cell_window = np.unique(
                keys, return_index=True, return_inverse=True)
            window_rows = series_rows[first]
            window_times = target_times[first]
        else:
            cell_window = np.arange(batch)
            window_rows, window_times = series_rows, target_times

        start, context = self.context_span(window_times)
        offsets = start[:, None] + np.arange(context)[None, :]             # (K, C)
        # One fancy-indexing gather per array, straight from windowed views
        # of the padded arrays — no (K, T_pad) intermediate.  The views are
        # O(1) reshapes of contiguous data, recomputed per call so the
        # context never carries duplicate buffers (pickling a stored view
        # would serialise the full array twice).
        matrix_windows = self.padded_matrix.reshape(
            self.n_series, self.n_windows, w)
        window_values = matrix_windows[window_rows[:, None], offsets]
        if series_avail_override is not None:
            rows = np.arange(batch)[:, None]
            window_avail = series_avail_override.reshape(
                batch, self.n_windows, w)[rows, offsets]
        else:
            avail_windows = self.padded_avail.reshape(
                self.n_series, self.n_windows, w)
            window_avail = avail_windows[window_rows[:, None], offsets]
        target_window = (window_times // w) - start
        target_offset = target_times % w

        member_indices = self.index_table[series_rows]                      # (B, n_dims)

        sibling_member_indices: List[np.ndarray] = []
        sibling_values: List[np.ndarray] = []
        sibling_avail: List[np.ndarray] = []
        for dim in range(self.n_dims):
            sib_rows = self._sibling_rows[dim][series_rows]                  # (B, S)
            if sib_rows.shape[1] == 0:
                sibling_member_indices.append(np.zeros((batch, 0), dtype=np.int64))
                sibling_values.append(np.zeros((batch, 0)))
                sibling_avail.append(np.zeros((batch, 0)))
                continue
            values = self.matrix[sib_rows, target_times[:, None]]
            avail = self.avail[sib_rows, target_times[:, None]]
            if member_exclusion is not None and member_exclusion[dim].size:
                avail = avail * (1.0 - member_exclusion[dim])
            sibling_member_indices.append(self.index_table[sib_rows, dim])
            sibling_values.append(values * avail)
            sibling_avail.append(avail)

        return Batch(
            window_values=window_values,
            window_avail=window_avail,
            absolute_index=offsets,
            target_window=target_window,
            cell_window=cell_window,
            target_offset=target_offset,
            member_indices=member_indices,
            sibling_member_indices=sibling_member_indices,
            sibling_values=sibling_values,
            sibling_avail=sibling_avail,
            targets=targets if targets is not None else np.zeros(batch),
            series_rows=series_rows,
            target_times=target_times,
        )

    # ------------------------------------------------------------------ #
    def denormalise(self, values: np.ndarray) -> np.ndarray:
        """Map model outputs back to the original value scale.

        A stacked context takes an ``(n_series, ...)`` array whose rows
        follow the context's, and maps each block with its own statistics;
        a one-block context takes any shape.
        """
        if self.n_blocks == 1:
            return values * self.std + self.mean
        blocks = values.reshape(self.n_blocks, -1)
        return (blocks * self.block_std[:, None]
                + self.block_mean[:, None]).reshape(values.shape)

    def normalise_value(self, values: np.ndarray) -> np.ndarray:
        """Map original-scale values to a one-block context's scale."""
        return (values - self.mean) / self.std
