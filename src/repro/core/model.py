"""The DeepMVI network: combining temporal, local and cross-series signals.

Equation 6 of the paper: the mean of the predictive distribution for a
missing cell is a linear combination of

* ``htt`` — the temporal transformer's coarse-grained signal,
* ``hfg`` — the fine-grained local signal (window mean),
* ``hkr`` — the kernel-regression cross-series signal,

with a trainable scalar log-variance shared across cells for the Gaussian
likelihood.  The ablation flags of :class:`repro.core.config.DeepMVIConfig`
drop individual signals to reproduce Section 5.5.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import DeepMVIConfig
from repro.core.context import Batch
from repro.core.fine_grained import fine_grained_signal
from repro.core.kernel_regression import KernelRegression
from repro.core.temporal_transformer import TemporalTransformer
from repro.nn import functional as F
from repro.nn.layers import Linear, Module, Parameter
from repro.nn.tensor import Tensor


class DeepMVIModel(Module):
    """End-to-end DeepMVI network for a dataset with known dimension sizes.

    Parameters
    ----------
    config:
        Hyper-parameters and ablation flags.
    dimension_sizes:
        Member counts of the non-time dimensions (after optional
        flattening), used to size the kernel-regression embeddings.
    max_position:
        Upper bound on window indices (for positional encodings).
    """

    def __init__(self, config: DeepMVIConfig, dimension_sizes: Sequence[int],
                 max_position: int = 4096,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.dimension_sizes = list(dimension_sizes)
        self.max_position = max_position

        self.temporal_transformer: Optional[TemporalTransformer] = None
        if config.use_temporal_transformer:
            self.temporal_transformer = TemporalTransformer(
                window=config.window,
                n_filters=config.n_filters,
                n_heads=config.n_heads,
                max_position=max_position,
                use_context_window=config.use_context_window,
                rng=rng,
            )

        self.kernel_regression: Optional[KernelRegression] = None
        if config.use_kernel_regression and self.dimension_sizes:
            embedding_dim = config.embedding_dim
            if config.flatten_dimensions:
                # DeepMVI1D: a single flattened dimension with embeddings of
                # size 2k so the comparison with the structured variant is
                # parameter-fair (Section 5.5.4).
                embedding_dim = 2 * config.embedding_dim
            self.kernel_regression = KernelRegression(
                dimension_sizes=self.dimension_sizes,
                embedding_dim=embedding_dim,
                gamma=config.kernel_gamma,
                top_l=config.top_l_siblings,
                rng=rng,
            )

        input_dim = 0
        if self.temporal_transformer is not None:
            input_dim += self.temporal_transformer.output_dim
        if config.use_fine_grained:
            input_dim += 1
        if self.kernel_regression is not None:
            input_dim += self.kernel_regression.output_dim
        if input_dim == 0:
            raise ValueError(
                "all DeepMVI signal modules are disabled; enable at least one")
        self.output_dim = input_dim
        self.output_layer = Linear(input_dim, 1, rng=rng)
        # Zero-init the combiner so the initial prediction is the (normalised)
        # dataset mean; the signal modules then learn under a well-scaled loss.
        self.output_layer.weight.data[:] = 0.0
        #: shared log-variance of the Gaussian predictive distribution
        self.log_variance = Parameter(np.zeros((1,)))

    # ------------------------------------------------------------------ #
    def forward(self, batch: Batch) -> Tensor:
        """Predict the (normalised) value of every target cell in ``batch``.

        The window signals (``htt``'s attention, ``hfg``) are computed once
        per context window of the batch and gathered per cell; kernel
        regression and the output layer run per cell.  Every step is
        row-independent, so a cell's prediction does not depend on the
        other cells or requests fused into the batch.

        Returns a ``(B,)`` tensor of predictive means.
        """
        features: List[Tensor] = []

        if self.temporal_transformer is not None:
            htt = self.temporal_transformer(
                batch.window_values, batch.window_avail, batch.absolute_index,
                batch.target_window, batch.target_offset, batch.cell_window)
            features.append(htt)

        if self.config.use_fine_grained:
            hfg = fine_grained_signal(
                batch.window_values, batch.window_avail, batch.target_window)
            features.append(Tensor(hfg[batch.cell_window]))

        if self.kernel_regression is not None:
            hkr = self.kernel_regression(
                batch.member_indices, batch.sibling_member_indices,
                batch.sibling_values, batch.sibling_avail)
            features.append(hkr)

        combined = features[0] if len(features) == 1 else F.concatenate(features, axis=-1)
        prediction = self.output_layer(combined)                     # (B, 1)
        return prediction.reshape(batch.size)

    # ------------------------------------------------------------------ #
    def predict(self, batch: Batch) -> np.ndarray:
        """Numpy predictions without building a gradient tape."""
        from repro.nn.tensor import no_grad

        with no_grad():
            output = self.forward(batch)
        return output.data.copy()
