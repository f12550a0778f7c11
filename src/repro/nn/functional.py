"""Differentiable functional operations on :class:`repro.nn.tensor.Tensor`."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor, as_tensor


def relu(x: Tensor) -> Tensor:
    return as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return as_tensor(x).tanh()


def exp(x: Tensor) -> Tensor:
    return as_tensor(x).exp()


def log(x: Tensor) -> Tensor:
    return as_tensor(x).log()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1,
                   eps: float = 1e-12) -> Tensor:
    """Softmax restricted to positions where ``mask`` is non-zero.

    Positions with a zero mask receive exactly zero probability.  If every
    position along ``axis`` is masked out the result is a uniform zero
    vector (no attention), which callers should treat as "no signal".
    """
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=np.float64)
    neg = np.where(mask > 0, 0.0, -1e30)
    shifted = x + Tensor(neg)
    shifted = shifted - Tensor(shifted.data.max(axis=axis, keepdims=True))
    exps = shifted.exp() * Tensor(mask)
    denom = exps.sum(axis=axis, keepdims=True) + eps
    return exps / denom


def row_stable_matmul(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight`` for a 2-D ``weight``, with rows independent of batch size.

    OpenBLAS sends a one-row product and every one-column product through
    gemv, whose rounding differs from gemm's and, for one column, changes
    with the number of rows.  A row of ``x @ weight`` would then depend on
    which other rows share the call.  This keeps every row on a path that
    does not: one column becomes a multiply-then-sum along the last axis,
    and one row is padded to two rows so it takes the gemm path.  Used by
    :class:`~repro.nn.layers.Linear` and by the fast-path lookup, so the
    two compute bit-identical outputs.
    """
    if weight.shape[1] == 1:
        return (x * weight[:, 0]).sum(axis=-1, keepdims=True)
    if x.ndim == 2 and x.shape[0] == 1:
        return (np.concatenate([x, x]) @ weight)[:1]
    return x @ weight


def linear(x: Tensor, weight: Tensor) -> Tensor:
    """Differentiable ``x @ weight`` computed by :func:`row_stable_matmul`."""
    x = as_tensor(x)
    weight = as_tensor(weight)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(np.swapaxes(x.data, -1, -2) @ grad)

    return Tensor._make(row_stable_matmul(x.data, weight.data), (x, weight),
                        backward)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not tensor.requires_grad:
                continue
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` at integer ``indices``.

    ``indices`` may have any shape; the result has shape
    ``indices.shape + (embedding_dim,)``.
    """
    weight = as_tensor(weight)
    indices = np.asarray(indices, dtype=np.int64)
    data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        if not weight.requires_grad:
            return
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1),
                  grad.reshape(-1, weight.data.shape[-1]))
        weight._accumulate(full)

    return Tensor._make(data, (weight,), backward)


def dropout(x: Tensor, rate: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-rate)``."""
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    keep = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return x * Tensor(keep)


def where(condition: np.ndarray, x: Tensor, y: Tensor) -> Tensor:
    """Differentiable element selection: ``condition ? x : y``."""
    x = as_tensor(x)
    y = as_tensor(y)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, x.data, y.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.where(condition, grad, 0.0))
        if y.requires_grad:
            y._accumulate(np.where(condition, 0.0, grad))

    return Tensor._make(data, (x, y), backward)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Differentiable clipping (gradient is zero outside the interval)."""
    x = as_tensor(x)
    inside = (x.data >= low) & (x.data <= high)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * inside)

    return Tensor._make(np.clip(x.data, low, high), (x,), backward)


def nonoverlapping_conv1d(x: Tensor, weight: Tensor, bias: Tensor,
                          window: int) -> Tensor:
    """Non-overlapping 1-D convolution (Eqn. 7 of the paper).

    Parameters
    ----------
    x:
        ``(..., T)`` signal; ``T`` must be divisible by ``window``.
    weight:
        ``(p, window)`` filter matrix.
    bias:
        ``(p,)`` bias.

    Returns
    -------
    Tensor of shape ``(..., T // window, p)``: one feature vector per
    window.
    """
    x = as_tensor(x)
    length = x.shape[-1]
    if length % window != 0:
        raise ValueError(
            f"series length {length} is not divisible by window {window}")
    n_windows = length // window
    reshaped = x.reshape(*x.shape[:-1], n_windows, window)
    return reshaped @ as_tensor(weight).transpose() + as_tensor(bias)


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal positional encoding (Eqn. 2 of the paper).

    Returns a plain ``(length, dim)`` numpy array — positional encodings
    are constants, not parameters.
    """
    positions = np.arange(length, dtype=np.float64)[:, None]
    encoding = np.zeros((length, dim), dtype=np.float64)
    even = np.arange(0, dim, 2)
    div = np.power(10000.0, even / dim)
    encoding[:, 0::2] = np.sin(positions / div)
    odd = np.arange(1, dim, 2)
    div_odd = np.power(10000.0, (odd - 1) / dim)
    encoding[:, 1::2] = np.cos(positions / div_odd)
    return encoding


def batched_attention(query: Tensor, keys: Tensor, values: Tensor,
                      mask: np.ndarray, scale: Optional[float] = None) -> Tuple[Tensor, Tensor]:
    """Masked scaled dot-product attention.

    Parameters
    ----------
    query:
        ``(..., Lq, d)``.
    keys:
        ``(..., Lk, d)``.
    values:
        ``(..., Lk, dv)``.
    mask:
        ``(..., Lq, Lk)`` with non-zero entries for key positions that may
        be attended to.

    Returns
    -------
    (output, weights):
        output ``(..., Lq, dv)`` and attention weights ``(..., Lq, Lk)``.
    """
    query = as_tensor(query)
    keys = as_tensor(keys)
    values = as_tensor(values)
    d = query.shape[-1]
    scale = scale if scale is not None else 1.0 / np.sqrt(d)
    scores = (query @ keys.swapaxes(-1, -2)) * scale
    weights = masked_softmax(scores, mask, axis=-1)
    return weights @ values, weights
