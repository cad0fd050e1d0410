"""Base classes for trainable modules built on the NumPy autograd engine.

``Module`` mirrors the familiar PyTorch contract: parameters and submodules
registered as attributes are discovered automatically, ``parameters()`` walks
the tree, ``state_dict()`` / ``load_state_dict()`` provide (de)serialisation,
and ``train()`` / ``eval()`` toggle behaviour of layers such as dropout.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor, no_grad


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module.

    Created in the process-wide policy dtype unless ``dtype`` pins one (see
    :mod:`repro.nn.dtype`); gradients and optimizer state follow the
    parameter's dtype, not the policy at backward time.
    """

    def __init__(self, data, name: Optional[str] = None, dtype=None) -> None:
        super().__init__(data, requires_grad=True, name=name, dtype=dtype)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are picked up automatically by :meth:`parameters`,
    :meth:`named_parameters` and :meth:`state_dict`.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # Attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """Return a list of all parameters in the module tree."""
        return [param for _, param in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs including ``self``."""
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(param.size for param in self.parameters())

    def parameter_nbytes(self) -> int:
        """Total bytes held by the parameters (halves under float32)."""
        return sum(param.data.nbytes for param in self.parameters())

    @property
    def dtype(self):
        """The parameters' dtype (``None`` for a parameter-less module).

        Mixed-precision module trees are not supported by the engine, so the
        first parameter's dtype is authoritative.
        """
        for _, param in self.named_parameters():
            return param.data.dtype
        return None

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter (and its gradient) in place; returns self.

        The in-place analogue of constructing the module under
        :class:`repro.nn.using_dtype`; optimizer state created *before* the
        cast keeps its old dtype, so cast before building the optimizer.
        """
        from .dtype import resolve_dtype

        target = resolve_dtype(dtype)
        for _, param in self.named_parameters():
            param.data = param.data.astype(target, copy=False)
            if param.grad is not None:
                param.grad = param.grad.astype(target, copy=False)
        return self

    # ------------------------------------------------------------------ #
    # Training state
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    @contextmanager
    def inference(self):
        """Evaluation mode + :class:`~repro.nn.tensor.no_grad`, restored on exit.

        The wrapper for graphed evaluation forwards (the scoring oracles,
        mid-training evaluation; the served path runs graph-free array
        forwards instead): dropout is disabled and no computation graph is
        built on the calling thread, and the module's previous training mode
        is reinstated afterwards so a trainer can interleave evaluation
        callbacks without bookkeeping.

        Example
        -------
        >>> model.train()                      # mid-training evaluation
        >>> with model.inference():
        ...     score = model.forward(chart_input, table_input).item()
        >>> model.training                     # training mode restored
        True

        The root's ``training`` flag is trusted to speak for the whole tree
        (``train()`` / ``eval()`` always set it recursively): a root already
        in evaluation mode is not walked at all, so entering costs nothing
        on a serving model — and a submodule switched to training mode by
        hand under an evaluating root stays that way.
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            with no_grad():
                yield self
        finally:
            if was_training:
                self.train(True)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of qualified parameter names to arrays."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from ``state`` in place.

        Parameters
        ----------
        state:
            Mapping produced by :meth:`state_dict`.
        strict:
            When true (default), missing or unexpected keys raise ``KeyError``
            and shape mismatches raise ``ValueError``.

        Values are cast to each parameter's own dtype (load-and-cast): a
        float64 checkpoint loads cleanly into a float32 module and vice
        versa — precision follows the *module*, not the file.
        """
        own = dict(self.named_parameters())
        if strict:
            missing = sorted(set(own) - set(state))
            unexpected = sorted(set(state) - set(own))
            if missing or unexpected:
                raise KeyError(
                    f"state dict mismatch: missing={missing}, unexpected={unexpected}"
                )
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data[...] = value

    # ------------------------------------------------------------------ #
    # Calling convention
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        child_lines = [f"  ({name}): {module!r}" for name, module in self._modules.items()]
        body = "\n".join(child_lines)
        if body:
            return f"{type(self).__name__}(\n{body}\n)"
        return f"{type(self).__name__}()"


class ParameterVersion:
    """A number that moves whenever a parameter of ``module`` no longer
    equals the copy taken when it last moved (in-place optimiser steps,
    ``load_state_dict``, ``.data`` edits and dtype casts included): one
    comparison tells an owner of state computed from the weights whether to
    look closer.  Thread-safe: the copy and its number are one tuple."""

    def __init__(self, module: Module) -> None:
        self._module = module
        self._parameters: Optional[List[Parameter]] = None  # read once, kept
        self._state: Tuple[np.ndarray, int] = (np.empty(0), 0)

    def __call__(self) -> int:
        if self._parameters is None:
            self._parameters = self._module.parameters()
        snapshot, version = self._state
        live = np.concatenate([p.data.ravel() for p in self._parameters])
        if live.dtype != snapshot.dtype or not np.array_equal(live, snapshot):
            version += 1
            self._state = (live, version)
        return version


class Sequential(Module):
    """Apply child modules in order, feeding each output into the next."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for i, module in enumerate(modules):
            name = f"layer{i}"
            self.add_module(name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]


class ModuleList(Module):
    """A list of child modules, registered so their parameters are tracked."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called directly")

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]
