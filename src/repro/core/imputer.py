"""Public DeepMVI imputation API.

:class:`DeepMVIImputer` follows the same ``fit`` / ``impute`` /
``fit_impute`` protocol as the baseline imputers, so the evaluation harness
and downstream code can treat every method uniformly::

    from repro import DeepMVIImputer, load_dataset, mcar

    data = load_dataset("climate", size="small")
    missing = mcar(data, incomplete_fraction=0.5)
    incomplete = data.with_missing(missing)

    imputer = DeepMVIImputer()
    completed = imputer.fit_impute(incomplete)
"""

from __future__ import annotations

import threading
from dataclasses import asdict
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.base import BaseImputer
from repro.core.config import DeepMVIConfig
from repro.core.context import (
    ContextStructure,
    DatasetContext,
    concatenate_batches,
)
from repro.core.fast_path import FastPathTables, build_fast_path_tables
from repro.core.model import DeepMVIModel
from repro.core.sampling import MissingShapeSampler
from repro.core.training import DeepMVITrainer, TrainingHistory
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import NotFittedError
from repro.obs.trace import stage


class DeepMVIImputer(BaseImputer):
    """Deep missing-value imputation for multidimensional time series.

    Parameters
    ----------
    config:
        :class:`DeepMVIConfig`; defaults to the laptop-scale configuration.
        The window-size heuristic of the paper (use ``window=20`` when the
        average missing block is longer than 100 steps) is applied
        automatically at :meth:`fit` time unless ``auto_window=False``.
    auto_window:
        Whether to apply the paper's window-size rule based on the observed
        missing-block sizes.
    """

    name = "DeepMVI"
    _fitted_attributes = ("model", "context", "history", "_fitted_tensor",
                          "fast_path_tables")

    def __init__(self, config: Optional[DeepMVIConfig] = None,
                 auto_window: bool = True):
        self.config = config or DeepMVIConfig()
        self.auto_window = auto_window
        self.model: Optional[DeepMVIModel] = None
        self.context: Optional[DatasetContext] = None
        self.history: Optional[TrainingHistory] = None
        self._fitted_tensor: Optional[TimeSeriesTensor] = None
        #: precomputed serving tables (:mod:`repro.core.fast_path`);
        #: immutable once built, swapped atomically on (re)build
        self.fast_path_tables: Optional[FastPathTables] = None
        #: per-plan telemetry of the most recent :meth:`impute_many` call
        self.last_impute_info: Optional[List[Dict[str, object]]] = None

    # ------------------------------------------------------------------ #
    def fit(self, tensor: TimeSeriesTensor) -> "DeepMVIImputer":
        """Train the network on the observed part of ``tensor``."""
        config = self.config
        flat_mask = 1.0 - tensor.to_matrix()[1]
        if self.auto_window:
            index_table = tensor.series_index_table()
            shape_probe = MissingShapeSampler(
                missing_mask=flat_mask,
                index_table=index_table if index_table.shape[1] else
                np.arange(flat_mask.shape[0])[:, None],
                dimension_sizes=[d.size for d in tensor.dimensions] or
                [flat_mask.shape[0]],
            )
            config = config.with_window_for_block_size(
                shape_probe.average_time_extent())
        # The window must divide into a sensible number of windows.
        if config.window >= tensor.n_time:
            config = config.ablated()  # copy
            config.window = max(2, tensor.n_time // 4)

        self.config = config
        # A refit may have changed the window/config: every cached serving
        # template is structured for the old settings.
        self._structure_cache().clear()
        self.context = self._build_context(tensor)
        self.model = DeepMVIModel(
            config=config,
            dimension_sizes=self.context.dimension_sizes,
            max_position=self.context.n_windows + 1,
        )
        trainer = DeepMVITrainer(
            model=self.model,
            context=self.context,
            config=config,
            missing_mask=1.0 - self.context.avail,
        )
        self.history = trainer.fit()
        self._fitted_tensor = tensor
        self.fast_path_tables = None
        if config.fast_path == "fit":
            self.refresh_fast_path()
        elif config.fast_path == "background":
            self.refresh_fast_path(background=True)
        return self

    # ------------------------------------------------------------------ #
    def impute(self, tensor: Optional[TimeSeriesTensor] = None) -> TimeSeriesTensor:
        """Fill every missing cell of ``tensor`` (default: the fitted one)."""
        return self.impute_many([tensor])[0]

    def impute_many(self, tensors) -> list:
        """Fill the missing cells of many tensors with fused forward calls.

        The serving hot path: instead of running one forward pass per tensor
        (per request), the missing-cell batches of every tensor whose batch
        structure matches (same context width and sibling counts — always
        true for same-shaped tensors) are concatenated and pushed through
        the network together, so a micro-batched ``gather()`` sweep costs a
        handful of forward calls rather than one per request.  Each
        request's cells keep their own context windows inside the fused
        batch, and the forward works row by row, so every tensor's answer
        is bit-identical to imputing it alone.  Results come back in input
        order; each entry of ``tensors`` may be ``None`` for the fitted
        tensor.
        """
        if self.model is None or self.context is None:
            raise NotFittedError("call fit() before impute()")
        self.model.eval()

        # One plan per tensor: its context, missing cells, and the matrix
        # the predictions scatter into.
        plans = []
        for tensor in tensors:
            if tensor is None:
                tensor = self._fitted_tensor
            if tensor is self._fitted_tensor:
                context = self.context
            else:
                # Imputing a different tensor re-uses the trained parameters
                # with a dataset context built around the new data.  The
                # context is local: the fitted state must survive for later
                # no-arg calls.  Structural tables (index/sibling rows) are
                # shared via a per-shape template so window-shaped serving
                # traffic pays only the per-request value plumbing, and
                # same-shaped traffic normalises with the fitted statistics
                # so unchanged windows stay fast-path-compatible.
                with stage("serve.context_build"):
                    context = self._build_context(
                        tensor,
                        structure_from=self._structure_template(tensor),
                        normalisation=self._serving_normalisation(tensor))
                self._remember_structure(tensor, context)
            missing_cells = np.argwhere(context.avail == 0)
            # Ignore cells that fall outside the original (unpadded) range.
            missing_cells = missing_cells[missing_cells[:, 1] < context.n_time]
            plans.append((tensor, context, missing_cells,
                          context.matrix.copy()))

        # Serve what the precomputed tables cover (repeat traffic over the
        # fitted data) with gathers instead of forward passes; only the
        # leftover cells flow into the fused-forward sweep below.
        tables = self._fast_path_ready()
        info: list = []
        for plan_index, (tensor, context, missing_cells, matrix) in \
                enumerate(plans):
            total = int(missing_cells.shape[0])
            served = 0
            if tables is not None:
                match = tables.match_windows(context)
                if match is not None and total:
                    hits, predictions = tables.lookup(
                        context, missing_cells, match)
                    served = int(hits.sum())
                    if served:
                        hit_cells = missing_cells[hits]
                        matrix[hit_cells[:, 0], hit_cells[:, 1]] = \
                            predictions[hits]
                        plans[plan_index] = (tensor, context,
                                             missing_cells[~hits], matrix)
            info.append({
                "cells": total,
                "fast_path_hits": served,
                "fast_path": tables is not None and served == total,
            })
        self.last_impute_info = info

        # Fuse across tensors whose batches can be concatenated.
        groups: dict = {}
        for index, (tensor, context, missing_cells, _) in enumerate(plans):
            signature = (
                min(context.max_context_windows, context.n_windows),
                context.window,
                tuple(context.sibling_rows(dim).shape[1]
                      for dim in range(context.n_dims)),
            )
            groups.setdefault(signature, []).append(index)

        batch_size = self.config.impute_batch_size
        for indices in groups.values():
            # Flat (plan, row, t) work list over the whole group, chunked to
            # impute_batch_size; one forward call per chunk.
            stream = [(index, plans[index][2]) for index in indices
                      if plans[index][2].shape[0]]
            # Walk the concatenated cell stream in chunk-sized strides,
            # slicing per plan so each chunk knows where to scatter back.
            chunk: list = []
            chunk_fill = 0
            flushes = []
            for index, cells in stream:
                start = 0
                total = cells.shape[0]
                while start < total:
                    take = min(batch_size - chunk_fill, total - start)
                    chunk.append((index, start, start + take))
                    chunk_fill += take
                    start += take
                    if chunk_fill == batch_size:
                        flushes.append(chunk)
                        chunk, chunk_fill = [], 0
            if chunk:
                flushes.append(chunk)
            for chunk in flushes:
                pieces = []
                for index, start, stop in chunk:
                    _, context, cells, _ = plans[index]
                    pieces.append(context.build_batch(
                        series_rows=cells[start:stop, 0],
                        target_times=cells[start:stop, 1]))
                with stage("serve.forward", chunks=len(chunk)):
                    predictions = self.model.predict(
                        concatenate_batches(pieces))
                offset = 0
                for index, start, stop in chunk:
                    _, _, cells, matrix = plans[index]
                    taken = stop - start
                    matrix[cells[start:stop, 0], cells[start:stop, 1]] = \
                        predictions[offset:offset + taken]
                    offset += taken

        completed = []
        for tensor, context, _, matrix in plans:
            filled = context.denormalise(matrix)
            completed.append(tensor.fill(filled.reshape(tensor.values.shape)))
        return completed

    # ------------------------------------------------------------------ #
    def fit_impute(self, tensor: TimeSeriesTensor) -> TimeSeriesTensor:
        """Convenience: :meth:`fit` then :meth:`impute` on the same tensor."""
        return self.fit(tensor).impute(tensor)

    # ------------------------------------------------------------------ #
    # fast-path lifecycle (precompute-and-lookup serving)
    # ------------------------------------------------------------------ #
    def refresh_fast_path(self,
                          background: bool = False) -> Optional[FastPathTables]:
        """(Re)build the lookup tables for the current model + context.

        With ``background=True`` the build runs in a daemon thread and the
        finished tables are swapped in atomically — serving continues on
        the old tables (or the full forward) meanwhile.  The swap is
        skipped if a refit replaced the model while the build ran.
        """
        if self.model is None or self.context is None:
            raise NotFittedError("call fit() before refresh_fast_path()")
        if self.config.fast_path == "off":
            return None
        if not background:
            tables = build_fast_path_tables(
                self.model, self.context,
                batch_size=self.config.impute_batch_size)
            self.fast_path_tables = tables
            return tables
        model, context = self.model, self.context

        def _build() -> None:
            tables = build_fast_path_tables(
                model, context, batch_size=self.config.impute_batch_size)
            if self.model is model and self.context is context:
                self.fast_path_tables = tables

        thread = threading.Thread(target=_build, name="fast-path-build",
                                  daemon=True)
        self._fast_path_thread = thread
        thread.start()
        return None

    def wait_for_fast_path(self, timeout: Optional[float] = None) -> bool:
        """Block until a pending background table build lands (or times out)."""
        thread = getattr(self, "_fast_path_thread", None)
        if thread is not None:
            thread.join(timeout)
        return self.fast_path_tables is not None

    def _fast_path_ready(self) -> Optional[FastPathTables]:
        """Usable tables for serving, or None (off / not built / stale).

        ``"lazy"`` mode builds on first use; ``"background"`` mode never
        builds here — requests run the full forward until the build thread
        lands, which is what keeps streaming refits non-blocking.
        """
        mode = self.config.fast_path
        if mode == "off" or self.model is None:
            return None
        tables = self.fast_path_tables
        if tables is None:
            if mode != "lazy":
                return None
            tables = self.refresh_fast_path()
        if tables.stale(self.config.fast_path_staleness_seconds):
            return None
        return tables

    def try_fast_path(self, tensors) -> Optional[list]:
        """All-or-nothing table-only serving; None unless *every* cell hits.

        The gateway's no-lock fast lane: reads only immutable state (the
        table object, the frozen fitted context) and writes none of the
        caches, so concurrent calls need no model lock.  Never builds
        tables lazily — a miss must stay cheap.
        """
        if self.model is None or self.context is None:
            return None
        tables = self.fast_path_tables
        if self.config.fast_path == "off" or tables is None \
                or tables.stale(self.config.fast_path_staleness_seconds):
            return None
        completed = []
        for tensor in tensors:
            if tensor is None or tensor is self._fitted_tensor:
                tensor = self._fitted_tensor
                context = self.context
            else:
                context = self._build_context(
                    tensor, structure_from=self._structure_template(tensor),
                    normalisation=self._serving_normalisation(tensor))
            match = tables.match_windows(context)
            if match is None:
                return None
            missing_cells = np.argwhere(context.avail == 0)
            missing_cells = missing_cells[missing_cells[:, 1] < context.n_time]
            hits, predictions = tables.lookup(context, missing_cells, match)
            if not hits.all():
                return None
            matrix = context.matrix.copy()
            if missing_cells.shape[0]:
                matrix[missing_cells[:, 0], missing_cells[:, 1]] = predictions
            filled = context.denormalise(matrix)
            completed.append(tensor.fill(filled.reshape(tensor.values.shape)))
        return completed

    def fast_path_info(self) -> Dict[str, object]:
        """JSON-able fast-path telemetry (mode, build cost, staleness)."""
        tables = self.fast_path_tables
        info: Dict[str, object] = {
            "mode": self.config.fast_path,
            "built": tables is not None,
            "staleness_budget_seconds":
                self.config.fast_path_staleness_seconds,
        }
        if tables is not None:
            info.update(tables.describe())
            info["stale"] = tables.stale(
                self.config.fast_path_staleness_seconds)
        return info

    def memory_nbytes(self) -> int:
        """Resident bytes of the fitted state (for LRU byte accounting).

        Sums the live arrays without copying: parameters, the fitted
        tensor, the context's padded buffers and the fast-path tables.
        """
        total = 0
        if self.model is not None:
            total += sum(param.data.nbytes
                         for _, param in self.model.named_parameters())
        if self._fitted_tensor is not None:
            total += self._fitted_tensor.values.nbytes
            total += self._fitted_tensor.mask.nbytes
        if self.context is not None:
            total += self.context.padded_matrix.nbytes
            total += self.context.padded_avail.nbytes
        if self.fast_path_tables is not None:
            total += self.fast_path_tables.nbytes
        return total

    # ------------------------------------------------------------------ #
    # serialisation (engine artifacts / process boundaries)
    # ------------------------------------------------------------------ #
    def _build_context(self, tensor: TimeSeriesTensor,
                       structure_from: Optional[ContextStructure] = None,
                       normalisation: Optional[tuple] = None,
                       ) -> DatasetContext:
        return DatasetContext(
            tensor,
            window=self.config.window,
            max_context_windows=self.config.max_context_windows,
            flatten_dimensions=self.config.flatten_dimensions,
            structure_from=structure_from,
            normalisation=normalisation,
        )

    def _serving_normalisation(self, tensor: TimeSeriesTensor,
                               ) -> Optional[tuple]:
        """Fitted ``(mean, std)`` for same-shaped serving traffic.

        Serving contexts over tensors shaped like the fitted one adopt the
        *training* normalisation instead of re-estimating statistics from
        the request: that is the standard serve-with-training-stats
        contract, and it is what widens the fast path from "globally
        identical snapshot" to **per-window** compatibility — a sliding
        window whose raw content overlaps the fitted data normalises
        bit-identically on the unchanged windows, so
        :meth:`FastPathTables.match_windows` can serve those windows from
        the tables and only the genuinely new windows pay a forward pass.
        Differently-shaped tensors (a refit candidate, an unrelated
        dataset) keep estimating their own statistics.
        """
        if self.context is not None and self._fitted_tensor is not None \
                and tensor.values.shape == self._fitted_tensor.values.shape:
            return (self.context.mean, self.context.std)
        return None

    # -- serving structure cache ---------------------------------------- #
    # Contexts over same-shaped tensors share their structural tables
    # (index table, sibling rows); the serving hot path builds one context
    # per request, so value-free ContextStructure templates are remembered
    # per shape.  The cache is transient (never serialised — get_state
    # doesn't know about it) and lazily created so instances restored via
    # set_state/clone work too; fit() clears it because a refit may change
    # config.window, invalidating every template.
    _STRUCTURE_CACHE_LIMIT = 8

    def _structure_cache(self) -> dict:
        cache = getattr(self, "_serving_structures", None)
        if cache is None:
            cache = {}
            self._serving_structures = cache
        return cache

    def _structure_template(self, tensor: TimeSeriesTensor):
        if self.context is not None and self._fitted_tensor is not None \
                and tensor.values.shape == self._fitted_tensor.values.shape:
            return self.context.structure()
        return self._structure_cache().get(tensor.values.shape)

    def _remember_structure(self, tensor: TimeSeriesTensor,
                            context: DatasetContext) -> None:
        cache = self._structure_cache()
        if len(cache) >= self._STRUCTURE_CACHE_LIMIT \
                and tensor.values.shape not in cache:
            cache.clear()
        # Unconditional refresh: a template gone stale (e.g. the window
        # changed between refits) must be replaced, not shadow the cache
        # slot forever.  Only the value-free structural tables are kept.
        cache[tensor.values.shape] = context.structure()

    def get_state(self) -> Dict[str, object]:
        """Snapshot config + trained parameters as arrays and plain values.

        The network itself is not stored — only its ``state_dict`` plus the
        structural facts needed to rebuild it — so the snapshot is picklable
        and artifact-serialisable.
        """
        state: Dict[str, object] = {
            "name": self.name,
            "config": asdict(self.config),
            "auto_window": self.auto_window,
            "fitted_tensor": (self._fitted_tensor.copy()
                              if self._fitted_tensor is not None else None),
            "model": None,
            "history": None,
            # Tables travel with the model so cold-started stores serve
            # fast immediately (no rebuild on artifact load).
            "fast_path": (self.fast_path_tables.to_state()
                          if self.fast_path_tables is not None else None),
        }
        if self.model is not None:
            state["model"] = {
                "dimension_sizes": list(self.model.dimension_sizes),
                "max_position": int(self.model.max_position),
                "state_dict": self.model.state_dict(),
            }
        if self.history is not None:
            state["history"] = {
                "train_losses": list(self.history.train_losses),
                "validation_losses": list(self.history.validation_losses),
                "best_epoch": self.history.best_epoch,
                "best_validation_loss": self.history.best_validation_loss,
                "stopped_early": self.history.stopped_early,
                "wall_time_seconds": self.history.wall_time_seconds,
            }
        return state

    def set_state(self, state: Dict[str, object]) -> "DeepMVIImputer":
        """Rebuild the imputer — network, context and all — from a snapshot."""
        self.name = state.get("name", type(self).name)
        self.config = DeepMVIConfig(**state["config"])
        self.auto_window = bool(state["auto_window"])
        self._fitted_tensor = state.get("fitted_tensor")
        self.model = None
        self.context = None
        self.history = None
        self.fast_path_tables = None
        self.last_impute_info = None

        model_state = state.get("model")
        if model_state is not None:
            self.model = DeepMVIModel(
                config=self.config,
                dimension_sizes=list(model_state["dimension_sizes"]),
                max_position=int(model_state["max_position"]),
            )
            self.model.load_state_dict(model_state["state_dict"])
        if self._fitted_tensor is not None and self.model is not None:
            self.context = self._build_context(self._fitted_tensor)

        fast_state = state.get("fast_path")
        if fast_state is not None and self.context is not None:
            # Hit detection re-anchors on the rebuilt context's padded
            # arrays; the reference data itself is never stored twice.
            self.fast_path_tables = \
                FastPathTables.from_state(fast_state).attach(self.context)

        history_state = state.get("history")
        if history_state is not None:
            self.history = TrainingHistory(
                train_losses=list(history_state["train_losses"]),
                validation_losses=list(history_state["validation_losses"]),
                best_epoch=int(history_state["best_epoch"]),
                best_validation_loss=float(history_state["best_validation_loss"]),
                stopped_early=bool(history_state["stopped_early"]),
                wall_time_seconds=float(history_state["wall_time_seconds"]),
            )
        return self

