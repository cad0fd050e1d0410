"""A minimal reverse-mode automatic differentiation engine on NumPy arrays.

The paper's FCM model is trained with PyTorch.  PyTorch is not available in
this environment, so this module provides the substrate it depends on: a
``Tensor`` class wrapping a ``numpy.ndarray`` together with a dynamically
built computation graph and reverse-mode differentiation.

The design follows the classic "define-by-run" tape approach:

* every differentiable operation creates a new ``Tensor`` whose ``_parents``
  point at its inputs and whose ``_backward`` closure knows how to propagate
  an upstream gradient to those inputs;
* :meth:`Tensor.backward` topologically sorts the graph reachable from the
  output and runs the closures in reverse order, accumulating gradients in
  ``Tensor.grad``.

Only the operations needed by the FCM reproduction (linear layers, layer
normalisation, multi-head attention, MLPs, the losses in the paper) are
implemented, but they are implemented with full broadcasting support so the
modules built on top read like their PyTorch counterparts.

Inference mode
--------------
Query-time scoring never calls :meth:`Tensor.backward`, so building the tape
is pure overhead.  Inside a :class:`no_grad` block every operation returns a
plain ``Tensor`` *before* allocating its backward closure or parent tuple:

* no computation graph is constructed (outputs have no ``_parents`` and no
  ``_backward``), so intermediate activations become garbage immediately;
* outputs have ``requires_grad=False`` even when an input is a trainable
  :class:`~repro.nn.module.Parameter`;
* the forward *values* are bitwise identical to grad mode — the same NumPy
  expressions run either way, only the bookkeeping is skipped.

The contract is therefore: it is safe to wrap any forward computation whose
output will never be differentiated.  Calling ``backward()`` on a tensor
produced under ``no_grad`` raises, exactly like any ``requires_grad=False``
tensor.  :class:`enable_grad` restores tracking inside a ``no_grad`` region
(used, e.g., by evaluation callbacks that fine-tune mid-inference).  The
switch is per thread: a block entered on one thread leaves every other
thread's tracking as it was, and a new thread starts with tracking on.

The served query and the index build construct no ``Tensor`` at all: they
run the encoders' graph-free ``array_forward`` methods, whose softmax and
GELU are :func:`array_softmax` / :func:`array_gelu`, the formulas the
``Tensor`` methods call.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .dtype import default_dtype, resolve_dtype

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _GradSwitch(threading.local):
    """The switch every op consults before it records the tape, one per
    thread (each starts enabled), so a block on one thread never changes
    what another records.  Mutated only by the context managers below."""

    enabled: bool = True


_GRAD = _GradSwitch()


def is_grad_enabled() -> bool:
    """Whether operations on this thread currently record the computation graph."""
    return _GRAD.enabled


class _GradMode:
    """Context manager / decorator flipping this thread's grad-tracking switch.

    Instances are reentrant: each ``__enter__`` pushes the outer state onto a
    per-instance stack, so one instance may be reused (even nested within
    itself) without clobbering the state it has to restore.
    """

    _enabled: bool = True

    def __init__(self) -> None:
        self._outer: list[bool] = []

    def __enter__(self) -> "_GradMode":
        self._outer.append(_GRAD.enabled)
        _GRAD.enabled = self._enabled
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        _GRAD.enabled = self._outer.pop()
        return False

    def __call__(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with type(self)():
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper


class no_grad(_GradMode):
    """Disable graph construction inside the block (or decorated function).

    Every op run inside the block returns a plain tensor with no parents and
    no backward closure; forward *values* are unchanged.  Wrap any forward
    pass whose output will never be differentiated (the graphed scoring
    oracles; the served path runs the graph-free array forwards instead).

    Example
    -------
    >>> w = Tensor(np.ones((4, 4)), requires_grad=True)
    >>> with no_grad():
    ...     y = (w @ w).sum()      # no tape: y.requires_grad is False
    >>> y.requires_grad
    False
    """

    _enabled = False


class enable_grad(_GradMode):
    """Re-enable graph construction inside a ``no_grad`` region.

    Example
    -------
    >>> with no_grad():
    ...     with enable_grad():
    ...         assert is_grad_enabled()   # tracking restored inside
    """

    _enabled = True


def array_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of an array along ``axis``: :meth:`Tensor.softmax`'s values,
    and the graph-free forwards' softmax."""
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    # float64 denominator (an accumulation exception, see repro.nn.dtype);
    # bit-identical in float64 mode.  The quotient is formed in float64
    # and rounded once into the buffer the exponentials were in.
    denom = out.sum(axis=axis, keepdims=True, dtype=np.float64)
    np.divide(out, denom, out=out, casting="same_kind")
    return out


def array_gelu(x: np.ndarray) -> np.ndarray:
    """GELU (tanh approximation) of an array: :meth:`Tensor.gelu`'s values,
    and the graph-free forwards' GELU."""
    return _gelu_parts(x)[0]


def _gelu_parts(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(gelu(x), tanh of its inner term)``; the backward reuses the tanh."""
    # A Python float, not np.float64: a NumPy scalar is "strong" under
    # NEP 50 and would silently promote float32 activations to float64.
    c = float(np.sqrt(2.0 / np.pi))
    # The cube is two multiplies: NumPy fast-paths ``x ** 2`` but sends
    # ``x ** 3`` to ``pow``, ~80x the cost per element.  Two buffers, each
    # updated in place: c * (x + 0.044715 x^3), then 0.5 x (1 + tanh).
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= c
    tanh_inner = np.tanh(inner, out=inner)
    out = tanh_inner + 1.0
    out *= x
    out *= 0.5
    return out, tanh_inner


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a float ndarray without copying when possible.

    ``dtype=None`` uses the process-wide policy dtype
    (:func:`repro.nn.dtype.default_dtype`); passing an explicit dtype pins
    it — ops use this to lift scalars/arrays to their operand's dtype so a
    float32 graph never silently promotes to float64.
    """
    if dtype is None:
        dtype = default_dtype()
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting can add leading axes and expand length-1 axes; the gradient
    of a broadcast input is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were expanded from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        The underlying array (copied only if a dtype conversion is required).
    dtype:
        Target dtype; ``None`` (default) uses the process-wide policy dtype
        (see :mod:`repro.nn.dtype`).
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    parents:
        Tensors this tensor was computed from (internal use).
    backward_fn:
        Closure propagating the upstream gradient to the parents
        (internal use).
    name:
        Optional human-readable name used in ``repr`` for debugging.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
        dtype=None,
    ) -> None:
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = parents
        self._backward = backward_fn
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        return Tensor(
            self.data.copy(), requires_grad=self.requires_grad, dtype=self.data.dtype
        )

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast (float32 ↔ float64).

        The backward pass casts the upstream gradient back to this tensor's
        dtype, so a float64-sensitive sub-graph can be spliced into a float32
        model (or vice versa) without breaking training.  A no-op (returning
        ``self``) when the dtype already matches.
        """
        target = resolve_dtype(dtype)
        if self.data.dtype == target:
            return self
        out_data = self.data.astype(target)
        if not self._tracked():
            return Tensor(out_data, dtype=target)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)

        return self._graph(out_data, (self,), backward)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"
        )

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike], dtype=None) -> "Tensor":
        """Lift ``value`` to a Tensor.

        ``dtype`` pins the dtype of lifted scalars/arrays (ops pass their own
        operand's dtype so e.g. ``x * 0.5`` stays in ``x``'s precision);
        already-Tensor values are returned untouched.
        """
        if isinstance(value, Tensor):
            return value
        return Tensor(value, dtype=dtype)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad`` (creating it on demand).

        Gradients are kept in the tensor's own dtype (not the policy
        default), so optimizer state built from them follows the parameter
        precision even if the policy changes mid-process.
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(_as_array(grad, self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def _tracked(self, *others: "Tensor") -> bool:
        """Whether an op on ``(self, *others)`` must join the autodiff graph.

        Checked *before* the backward closure is allocated, so inference under
        :class:`no_grad` (or on plain ``requires_grad=False`` inputs) skips
        graph construction entirely rather than building and discarding it.
        """
        if not _GRAD.enabled:
            return False
        if self.requires_grad:
            return True
        for other in others:
            if other.requires_grad:
                return True
        return False

    def _graph(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Wrap ``data`` as a graph node (callers must have checked _tracked)."""
        return Tensor(
            data,
            requires_grad=True,
            parents=parents,
            backward_fn=backward_fn,
            dtype=data.dtype,
        )

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1 for scalar outputs; required
            for non-scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "grad must be supplied for non-scalar outputs "
                    f"(output shape {self.shape})"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        order: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    order.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        visit(self)

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other, self.data.dtype)
        out_data = self.data + other.data
        if not self._tracked(other):
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._graph(out_data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._graph(out_data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other, self.data.dtype)
        out_data = self.data - other.data
        if not self._tracked(other):
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return self._graph(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other, dtype=self.data.dtype).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other, self.data.dtype)
        out_data = self.data * other.data
        if not self._tracked(other):
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return self._graph(out_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other, self.data.dtype)
        out_data = self.data / other.data
        if not self._tracked(other):
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return self._graph(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other, dtype=self.data.dtype).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._graph(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Batched matrix multiplication with broadcasting over batch dims."""
        other = self._ensure(other, self.data.dtype)
        out_data = self.data @ other.data
        if not self._tracked(other):
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            if a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                grad_a = (grad[..., None, :] * b).sum(axis=-1)
                grad_b = a[:, None] * grad[..., None, :]
                self._accumulate(grad_a)
                other._accumulate(grad_b)
                return
            if b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                grad_a = grad[..., :, None] * b
                grad_b = (a * grad[..., :, None]).sum(axis=tuple(range(a.ndim - 1)))
                self._accumulate(grad_a)
                other._accumulate(grad_b)
                return
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(grad_a)
            other._accumulate(grad_b)

        return self._graph(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._graph(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._graph(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        # Guard against division by an exactly-zero sqrt; the historical
        # float64 guard (1e-300) underflows to 0 in float32, so use the
        # dtype's own smallest normal there instead.
        guard = 1e-300 if out_data.dtype == np.float64 else np.finfo(out_data.dtype).tiny

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(out_data, guard))

        return self._graph(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return self._graph(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._graph(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (out_data > 0))

        return self._graph(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        out_data = negative_slope * self.data
        if 0.0 <= negative_slope <= 1.0:
            # max(x, slope * x) picks what the mask picks, in one pass.
            np.maximum(self.data, out_data, out=out_data)
        else:
            np.copyto(out_data, self.data, where=self.data > 0)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(self.data > 0, 1.0, negative_slope))

        return self._graph(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, :func:`array_gelu`)."""
        out_data, tanh_inner = _gelu_parts(self.data)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)
        x = self.data
        c = float(np.sqrt(2.0 / np.pi))

        def backward(grad: np.ndarray) -> None:
            sech2 = 1.0 - tanh_inner ** 2
            d_inner = c * (1.0 + 3 * 0.044715 * x ** 2)
            local = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
            self._accumulate(grad * local)

        return self._graph(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return self._graph(out_data, (self,), backward)

    def clip(self, min_value: float, max_value: float) -> "Tensor":
        out_data = np.clip(self.data, min_value, max_value)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)
        mask = (self.data >= min_value) & (self.data <= max_value)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._graph(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        # Accumulate in float64 regardless of the policy dtype (see
        # repro.nn.dtype): long reductions are where float32 loses digits
        # fastest.  In float64 mode both arguments are no-ops, so the result
        # is bit-for-bit what the historical engine produced.
        out_data = self.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64)
        out_data = np.asarray(out_data).astype(self.data.dtype, copy=False)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            grad_arr = _as_array(grad)
            if axis is None:
                expanded = np.broadcast_to(grad_arr, self.data.shape)
            else:
                if not keepdims:
                    grad_arr = np.expand_dims(grad_arr, axis=axis)
                expanded = np.broadcast_to(grad_arr, self.data.shape)
            self._accumulate(expanded)

        return self._graph(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            grad_arr = _as_array(grad)
            if axis is None:
                mask = self.data == self.data.max()
                count = mask.sum()
                self._accumulate(np.broadcast_to(grad_arr, self.data.shape) * mask / count)
                return
            expanded_out = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            mask = self.data == expanded_out
            count = mask.sum(axis=axis, keepdims=True)
            grad_expanded = grad_arr if keepdims else np.expand_dims(grad_arr, axis=axis)
            self._accumulate(np.broadcast_to(grad_expanded, self.data.shape) * mask / count)

        return self._graph(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_as_array(grad).reshape(original_shape))

        return self._graph(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_as_array(grad).transpose(inverse))

        return self._graph(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        out_data = np.swapaxes(self.data, axis1, axis2)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(_as_array(grad), axis1, axis2))

        return self._graph(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, _as_array(grad))
            self._accumulate(full)

        return self._graph(out_data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(_as_array(grad), axis=axis))

        return self._graph(out_data, (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_as_array(grad).reshape(original_shape))

        return self._graph(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Softmax and normalisation
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        out_data = array_softmax(self.data, axis=axis)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)

        def backward(grad: np.ndarray) -> None:
            grad_arr = _as_array(grad)
            dot = (grad_arr * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad_arr - dot))

        return self._graph(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        # float64 denominator (an accumulation exception, see repro.nn.dtype);
        # bit-identical in float64 mode.
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True, dtype=np.float64))
        out_data = (shifted - log_sum).astype(self.data.dtype, copy=False)
        if not self._tracked():
            return Tensor(out_data, dtype=out_data.dtype)
        softmax_vals = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            grad_arr = _as_array(grad)
            total = grad_arr.sum(axis=axis, keepdims=True)
            self._accumulate(grad_arr - softmax_vals * total)

        return self._graph(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Factory helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=resolve_dtype(dtype)), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(np.ones(shape, dtype=resolve_dtype(dtype)), requires_grad=requires_grad)

    @staticmethod
    def randn(
        shape,
        rng: Optional[np.random.Generator] = None,
        requires_grad: bool = False,
        dtype=None,
    ) -> "Tensor":
        # Always draw in float64 and cast: the stream of random values is
        # identical across policy dtypes (float32 parameters are the rounded
        # float64 ones), which is what the cross-precision parity tests rely on.
        rng = rng or np.random.default_rng()
        draw = rng.standard_normal(shape)
        return Tensor(draw, requires_grad=requires_grad, dtype=resolve_dtype(dtype))


def _any_tracked(tensors: Sequence[Tensor]) -> bool:
    """Whether an op over ``tensors`` must join the autodiff graph."""
    return _GRAD.enabled and any(t.requires_grad for t in tensors)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _any_tracked(tensors):
        return Tensor(out_data, dtype=out_data.dtype)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        grad_arr = _as_array(grad)
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad_arr.ndim
            slicer[axis] = slice(start, end)
            tensor._accumulate(grad_arr[tuple(slicer)])

    return Tensor(out_data, requires_grad=True, parents=tuple(tensors), backward_fn=backward, dtype=out_data.dtype)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    if not _any_tracked(tensors):
        return Tensor(out_data, dtype=out_data.dtype)

    def backward(grad: np.ndarray) -> None:
        grad_arr = _as_array(grad)
        for i, tensor in enumerate(tensors):
            tensor._accumulate(np.take(grad_arr, i, axis=axis))

    return Tensor(out_data, requires_grad=True, parents=tuple(tensors), backward_fn=backward, dtype=out_data.dtype)


def pad(tensor: Tensor, pad_width: Sequence[Tuple[int, int]]) -> Tensor:
    """Zero-pad ``tensor`` with ``(before, after)`` widths per axis.

    The differentiable counterpart of :func:`numpy.pad` (constant/zero mode):
    the backward pass slices the upstream gradient back to the unpadded
    region, so padding cells contribute nothing to any parameter gradient.
    This is the building block that lets ragged encoder outputs be stacked
    into one batch *inside* the autodiff graph — the batched training path
    pads each example's ``(NC_i, N2_i, K)`` table representation to the batch
    maximum before one stacked matcher forward.

    Example
    -------
    >>> t = Tensor(np.ones((2, 3)), requires_grad=True)
    >>> pad(t, [(0, 1), (0, 2)]).shape   # zero row below, two zero cols right
    (3, 5)
    """
    tensor = Tensor._ensure(tensor)
    widths = tuple((int(before), int(after)) for before, after in pad_width)
    if len(widths) != tensor.ndim:
        raise ValueError(
            f"pad_width has {len(widths)} entries for a {tensor.ndim}-D tensor"
        )
    if any(before < 0 or after < 0 for before, after in widths):
        raise ValueError("pad widths must be non-negative")
    if all(before == 0 and after == 0 for before, after in widths):
        return tensor
    out_data = np.pad(tensor.data, widths)
    if not _any_tracked((tensor,)):
        return Tensor(out_data, dtype=out_data.dtype)
    region = tuple(
        slice(before, before + size)
        for (before, _), size in zip(widths, tensor.data.shape)
    )

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(_as_array(grad)[region])

    return Tensor(out_data, requires_grad=True, parents=(tensor,), backward_fn=backward, dtype=out_data.dtype)


def pad_stack(tensors: Sequence[Tensor]) -> Tuple[Tensor, np.ndarray]:
    """Zero-pad same-rank tensors to a common shape and stack along a new axis 0.

    Returns ``(batch, mask)`` where ``batch`` has shape
    ``(B, *max_shape)`` and ``mask`` is a boolean array of the same shape
    marking the real (unpadded) cells of every element.  Fully differentiable:
    gradients of ``batch`` flow back into each input tensor's unpadded region
    (and accumulate when the same tensor object appears several times, which
    is how a chart representation shared by a positive and its negatives
    receives the sum of its pairs' gradients).

    Example
    -------
    >>> a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((1, 5)))
    >>> batch, mask = pad_stack([a, b])
    >>> batch.shape, mask[1, 0].tolist()
    ((2, 2, 5), [True, True, True, True, True])
    """
    tensors = [Tensor._ensure(t) for t in tensors]
    if not tensors:
        raise ValueError("cannot pad-stack zero tensors")
    ndim = tensors[0].ndim
    if any(t.ndim != ndim for t in tensors):
        raise ValueError("pad_stack requires tensors of equal rank")
    max_shape = tuple(
        max(t.shape[axis] for t in tensors) for axis in range(ndim)
    )
    padded = [
        pad(t, [(0, high - size) for size, high in zip(t.shape, max_shape)])
        for t in tensors
    ]
    mask = np.zeros((len(tensors), *max_shape), dtype=bool)
    for i, t in enumerate(tensors):
        mask[i][tuple(slice(0, size) for size in t.shape)] = True
    return stack(padded, axis=0), mask


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable element selection: ``condition ? a : b``.

    A non-Tensor ``b`` (typically a scalar fill value, see
    :func:`repro.nn.masked_keep`) is lifted to ``a``'s dtype so masking never
    promotes a float32 graph to float64.
    """
    a = Tensor._ensure(a)
    b = Tensor._ensure(b, a.data.dtype)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)
    if not _any_tracked((a, b)):
        return Tensor(out_data, dtype=out_data.dtype)

    def backward(grad: np.ndarray) -> None:
        grad_arr = _as_array(grad)
        a._accumulate(np.where(cond, grad_arr, 0.0))
        b._accumulate(np.where(cond, 0.0, grad_arr))

    return Tensor(out_data, requires_grad=True, parents=(a, b), backward_fn=backward, dtype=out_data.dtype)
