"""Neural network layers: ``Module`` base class and common layers."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor, as_tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by a :class:`Module`."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` and :meth:`named_parameters` collect them
    recursively.  The :attr:`training` flag toggles train/eval behaviour
    (dropout).
    """

    def __init__(self) -> None:
        self.training = True

    # -- parameter collection ------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{full}.{key}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{key}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- train / eval mode --------------------------------------------- #
    def _submodules(self) -> Iterator["Module"]:
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        yield item

    def train(self) -> "Module":
        self.training = True
        for module in self._submodules():
            module.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for module in self._submodules():
            module.eval()
        return self

    # -- state dict ----------------------------------------------------- #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter value keyed by its dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values from a :meth:`state_dict` copy."""
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name not in params:
                raise KeyError(f"unknown parameter {name!r}")
            if params[name].data.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{params[name].data.shape} vs {value.shape}")
            params[name].data[...] = value

    # -- call protocol --------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine transform ``y = x W + b`` with W of shape (in, out)."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = F.linear(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Learnable lookup table of ``num_embeddings`` vectors of size ``dim``."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal((num_embeddings, dim), rng, std=0.1))

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, indices)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).sigmoid()


class Dropout(Module):
    """Inverted dropout layer; identity in eval mode."""

    def __init__(self, rate: float = 0.1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.rate = rate
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.training, self._rng)


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones((dim,)))
        self.beta = Parameter(np.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        var = (centred * centred).mean(axis=-1, keepdims=True)
        normalised = centred / ((var + self.eps) ** 0.5)
        return normalised * self.gamma + self.beta


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x
