"""Reverse-mode automatic differentiation over dense float64 arrays.

A small dynamic tape in the micrograd style: every operation records a
backward closure on its output node, and ``Tensor.backward()`` replays the
closures in reverse topological (creation) order.  Everything is float64 so
gradients can be checked against central finite differences at tight
tolerances.  Broadcasting is supported for elementwise ops and the batch
dimensions of matmul; nothing fancier is needed by the models built on top.

``gelu``, ``layernorm``, ``softmax`` and ``scaled_softmax`` are also plain
array functions: the ``Tensor`` ops and ``nn.ArrayOps``, the op set the
models' tape-free ``infer`` runs their one body on, both call them, so each
formula has one implementation.

Owned buffers: these formulas, and the backward formulas the tape shares
(GELU's, ``_softmax_grad``, ``_layernorm_grad``), allocate the array they
return and do the rest of their arithmetic in place in it (LayerNorm and its
gradient take one scratch array more), with the operands of the composed
numpy expression in its order, so the bits are that expression's.  In-place
writes touch only buffers the function allocated itself, never a received
gradient or an operand's ``.data``.  A mean is ``np.add.reduce(x, axis) /
n``, which is what ``ndarray.mean`` computes.

A 2-D weight's gradient under a 3-D input is the batch-axis sum of a
(B, D, O) stack of per-item products.  ``_weight_grad`` builds that stack in
runs of batch items of at most ``_WGRAD_CHUNK_BYTES`` and adds the sum so far
into each run's first item: numpy sums axis 0 item after item, so these are
the whole stack's additions in their order, and the sum's bits are the
same.  Flattening the batch into one 2-D product would add in another order.

The layers' composite ops are single tape nodes: ``linear`` (``x @ w + b``),
``affine_layernorm`` (``layernorm(x) * gain + shift``) and
``masked_softmax`` (``softmax(x * scale + mask)``).  Each computes the bits
of the composed ``Tensor`` ops and its backward does their arithmetic in
the same operand order, but the tape keeps no intermediate array that no
backward reads.

Tape lifecycle: the forward pass records one node per op, holding its
output ``.data`` and what its closure reads.  ``backward()`` runs each
interior node's closure once and then drops that node's ``.grad``, which
nothing reads again; only leaves (``Parameter``s and ``Tensor(...,
requires_grad=True)``) keep a ``.grad``.  The nodes and their closures stay,
so a second ``backward()`` on the same loss adds one more gradient into the
leaves.

The training loops rebind ``loss`` (and the outputs) to the next step's
forward, so the previous step's graph stays alive until that forward
returns, and their resident peak is about two tapes.  For 16 iterations of
the default-arch ``unrest`` policy at batch 64 (2-vCPU machine, BLAS at 1
thread) that peak read 120 MB over a 69 MB base.  Freeing the old graph first
(``del pred, loss`` at the end of each step) read 71 MB over the base, but
the 16 iterations took 2.47 s instead of 2.17 s and 315k minor page faults
instead of 43k, so the loops keep the two tapes.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeError",
    "no_grad",
    "concat",
    "stack",
    "linear",
    "affine_layernorm",
    "masked_softmax",
    "gelu",
    "layernorm",
    "softmax",
    "scaled_softmax",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables tape recording (inference fast path)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


_SQRT1_2 = 1.0 / np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)

# the batch items a 3-D input's weight gradient stacks at a time
# (``_weight_grad``): (step, D, O) float64 parts of at most this many bytes
_WGRAD_CHUNK_BYTES = 1 << 19


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``: the same reduce and divide,
    without ``ndarray.mean``'s Python wrapper."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def gelu(x: np.ndarray, with_cdf: bool = False):
    """Exact (erf-based) GELU, ``x * cdf`` with ``cdf`` the standard normal
    cdf at ``x``; ``with_cdf`` returns ``(x * cdf, cdf)``, as the backward
    pass reuses ``cdf``."""
    cdf = x * _SQRT1_2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if with_cdf:
        return x * cdf, cdf
    cdf *= x
    return cdf


def layernorm(x: np.ndarray, eps: float = 1e-5) -> tuple:
    """Last axis to zero mean, unit variance (no affine): returns
    ``(normalized, 1 / sqrt(var + eps))``."""
    xc = x - _mean_last(x)
    inv = _mean_last(np.square(xc))
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xc *= inv
    return xc, inv


def _exp_normalize(z: np.ndarray, axis: int) -> np.ndarray:
    """The softmax of ``z`` along ``axis``, in place, for ``z`` already
    shifted by its maximum."""
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=axis, keepdims=True)
    return z


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    return _exp_normalize(x - np.maximum.reduce(x, axis=axis, keepdims=True), axis)


def scaled_softmax(x: np.ndarray, scale: float, mask: np.ndarray) -> np.ndarray:
    """``softmax(x * scale + mask)`` over the last axis, for an additive
    ``mask`` that broadcasts to ``x``'s shape."""
    z = x * scale
    z += mask
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    return _exp_normalize(z, -1)


def _matmul_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return a @ b
    except ValueError as exc:
        raise ShapeError(f"matmul: operands {a.shape} @ {b.shape}: {exc}") from None


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a 2-D weight under a (B, T, D) input: the batch-axis
    sum of the (B, D, O) stack ``swapaxes(x) @ g``.  numpy sums axis 0 item
    after item, so the stack is built and summed in runs of batch items that
    fit ``_WGRAD_CHUNK_BYTES``, each run's first item carrying the sum so far:
    the same additions in the same order, without the whole stack."""
    B, D, O = x.shape[0], x.shape[-1], g.shape[-1]
    step = max(1, _WGRAD_CHUNK_BYTES // (8 * D * O))
    xt = np.swapaxes(x, -1, -2)
    part, acc = np.empty((min(step, B), D, O)), None
    for lo in range(0, B, step):
        run = np.matmul(xt[lo:lo + step], g[lo:lo + step], out=part[:min(step, B - lo)])
        if acc is not None:
            run[0] += acc
        acc = np.add.reduce(run, axis=0, out=acc)
    return acc


def _matmul_backward(g: np.ndarray, a: "Tensor", b: "Tensor", rows: tuple | None):
    """Accumulate the gradients of ``a @ b`` into ``a``, then ``b``; ``rows``
    is ``Tensor.matmul``'s."""
    if a.requires_grad:
        if rows is None:
            ga = g @ np.swapaxes(b.data, -1, -2)
        else:
            T, index = rows
            full = np.zeros(g.shape[:-2] + (T, g.shape[-1]))
            full[..., index, :] = g
            ga = (full @ np.swapaxes(b.data, -1, -2))[..., index, :]
            del full    # not held while ``b``'s gradient is computed
        a._accum(_unbroadcast(ga, a.shape), owned=True)
    if b.requires_grad:
        if a.ndim == 3 and b.ndim == 2:
            gb = _weight_grad(a.data, g)
        else:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        b._accum(gb, owned=True)


def _add_backward(g: np.ndarray, t: "Tensor"):
    """One operand's share of ``+``'s backward."""
    if t.requires_grad:
        gt = _unbroadcast(g, t.shape)
        t._accum(gt, owned=gt is not g)


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """``out * (g - (g * out).sum(axis))`` in one new buffer."""
    d = g * out
    dot = np.add.reduce(d, axis=axis, keepdims=True)
    np.subtract(g, dot, out=d)
    d *= out
    return d


def _layernorm_grad(g: np.ndarray, out: np.ndarray, inv: np.ndarray,
                    owned: bool = False) -> np.ndarray:
    """``inv * (g - mean(g) - out * mean(g * out))`` over the last axis.  It
    works in ``g`` itself when the caller ``owned`` it, else in one new
    buffer; either way with one scratch array."""
    gm = _mean_last(g)
    t = g * out
    gy = _mean_last(t)
    np.multiply(out, gy, out=t)
    d = np.subtract(g, gm, out=g if owned else None)
    d -= t
    d *= inv
    return d


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(idx) -> bool:
    """True for numpy basic indexes (ints, slices, None, ...): they select
    each element at most once, so their gradient can be added in place."""
    for part in idx if isinstance(idx, tuple) else (idx,):
        if part is None or part is Ellipsis or isinstance(part, slice):
            continue
        if isinstance(part, (int, np.integer)) and not isinstance(part, (bool, np.bool_)):
            continue
        return False
    return True


class Tensor:
    """A float64 array plus optional gradient buffer and tape record."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = np.zeros_like(self.data) if requires_grad else None
        self._backward = None
        self._parents: tuple = ()

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _result(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents):
            out.requires_grad = True
            out.grad = None  # allocated lazily during backward
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self):
        """Populate ``grad`` on every reachable tensor; ``self`` must be scalar."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        if self._backward is None and not self.requires_grad:
            raise ValueError("backward() called on a tensor with no recorded operations")

        topo: list[Tensor] = []
        seen = set()

        def visit(node: Tensor):
            stack = [(node, iter(node._parents))]
            seen.add(id(node))
            while stack:
                cur, it = stack[-1]
                advanced = False
                for p in it:
                    if id(p) not in seen:
                        seen.add(id(p))
                        stack.append((p, iter(p._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(cur)
                    stack.pop()

        visit(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None    # consumed: only leaves keep a gradient

    def _accum(self, g, owned: bool):
        """Add ``g`` into ``grad``.  The first write allocates: it keeps ``g``
        itself when the closure just computed it (``owned``) and copies views
        and arrays another operand may also receive."""
        if self.grad is None:
            self.grad = np.asarray(g) if owned else np.array(g)
        else:
            self.grad += g

    # -- elementwise arithmetic -------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data + other.data

        def backward(g):
            _add_backward(g, self)
            _add_backward(g, other)

        return Tensor._result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accum(-g, owned=True)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other):
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.shape), owned=True)

        return Tensor._result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.shape), owned=True)
            if other.requires_grad:
                other._accum(_unbroadcast(-g * self.data / other.data**2, other.shape),
                             owned=True)

        return Tensor._result(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return Tensor._coerce(other) / self

    def __pow__(self, exponent: float):
        out_data = self.data**exponent

        def backward(g):
            if self.requires_grad:
                self._accum(g * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._result(out_data, (self,), backward)

    # -- unary math --------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            if self.requires_grad:
                self._accum(g * out_data, owned=True)

        return Tensor._result(out_data, (self,), backward)

    def log(self):
        def backward(g):
            if self.requires_grad:
                self._accum(g / self.data, owned=True)

        return Tensor._result(np.log(self.data), (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            if self.requires_grad:
                self._accum(g * (1.0 - out_data**2), owned=True)

        return Tensor._result(out_data, (self,), backward)

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def backward(g):
            if self.requires_grad:
                self._accum(g * (self.data > 0), owned=True)

        return Tensor._result(out_data, (self,), backward)

    def gelu(self):
        """Exact (erf-based) GELU."""
        x = self.data
        out_data, cdf = gelu(x, with_cdf=True)

        def backward(g):
            if self.requires_grad:    # g * (cdf + x * pdf), in one buffer
                d = x * -0.5
                d *= x
                np.exp(d, out=d)
                d /= _SQRT_2PI
                d *= x
                d += cdf
                d *= g
                self._accum(d, owned=True)

        return Tensor._result(out_data, (self,), backward)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            self._accum(np.broadcast_to(gg, self.shape), owned=False)

        return Tensor._result(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            n = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape manipulation ------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            if self.requires_grad:
                self._accum(g.reshape(old_shape), owned=False)

        return Tensor._result(out_data, (self,), backward)

    def transpose(self, axes):
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def backward(g):
            if self.requires_grad:
                self._accum(g.transpose(inv), owned=False)

        return Tensor._result(out_data, (self,), backward)

    def __getitem__(self, idx):
        out_data = self.data[idx]

        def backward(g):
            if not self.requires_grad:
                return
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            if _is_basic_index(idx):
                self.grad[idx] += g
            else:  # integer arrays may repeat an index: accumulate each
                np.add.at(self.grad, idx, g)

        return Tensor._result(out_data, (self,), backward)

    # -- linear algebra ----------------------------------------------------

    def matmul(self, other, rows: tuple | None = None):
        """``self @ other``.  ``rows = (T, index)`` says that ``self`` holds
        the rows ``index`` (axis -2) of a T-row operand: ``self``'s gradient
        is then computed on the output gradient zero-padded back to T rows,
        and those rows are kept.  The bits of a row of ``g @ W.T`` can depend
        on the product's row count, and the padding gives each row the bits
        of the T-row product's."""
        other = Tensor._coerce(other)
        out_data = _matmul_data(self.data, other.data)

        def backward(g):
            _matmul_backward(g, self, other, rows)

        return Tensor._result(out_data, (self, other), backward)

    __matmul__ = matmul

    # -- softmax / normalization -------------------------------------------

    def softmax(self, axis: int = -1):
        out_data = softmax(self.data, axis)

        def backward(g):
            if self.requires_grad:
                self._accum(_softmax_grad(g, out_data, axis), owned=True)

        return Tensor._result(out_data, (self,), backward)

    def layernorm(self, eps: float = 1e-5):
        """Normalize the last axis to zero mean, unit variance (no affine)."""
        out_data, inv = layernorm(self.data, eps)

        def backward(g):
            if self.requires_grad:
                self._accum(_layernorm_grad(g, out_data, inv), owned=True)

        return Tensor._result(out_data, (self,), backward)


def concat(tensors: list, axis: int = -1) -> Tensor:
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)], owned=False)

    return Tensor._result(out_data, tuple(tensors), backward)


def stack(tensors: list, axis: int = 0) -> Tensor:
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        parts = np.split(g, len(tensors), axis=axis)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t._accum(np.squeeze(part, axis=axis), owned=False)

    return Tensor._result(out_data, tuple(tensors), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None,
           rows: tuple | None = None) -> Tensor:
    """``x @ w + b`` (``x @ w`` without ``b``) as one tape node, with the bits
    and gradients of ``x.matmul(w, rows) + b``; the tape keeps no ``x @ w``
    array.  ``rows`` is ``Tensor.matmul``'s."""
    out_data = _matmul_data(x.data, w.data)
    if b is not None:
        out_data += b.data

    def backward(g):
        if b is not None:
            _add_backward(g, b)
        _matmul_backward(g, x, w, rows)

    return Tensor._result(out_data, (x, w) if b is None else (x, w, b), backward)


def affine_layernorm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """``x.layernorm(eps) * gain + shift`` as one tape node, with its bits
    and gradients; the tape keeps no ``normalized * gain`` array."""
    normed, inv = layernorm(x.data, eps)
    out_data = normed * gain.data
    out_data += shift.data

    def backward(g):
        _add_backward(g, shift)
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * normed, gain.shape), owned=True)
        if x.requires_grad:
            gn = _unbroadcast(g * gain.data, normed.shape)
            x._accum(_layernorm_grad(gn, normed, inv, owned=True), owned=True)

    return Tensor._result(out_data, (x, gain, shift), backward)


def masked_softmax(x: Tensor, scale: float, mask: np.ndarray) -> Tensor:
    """``(x * scale + mask).softmax(-1)`` as one tape node, with its bits and
    gradients, for a constant ``scale`` and additive ``mask`` that broadcasts
    to ``x``'s shape; the tape keeps neither the scaled nor the masked scores."""
    out_data = scaled_softmax(x.data, scale, mask)

    def backward(g):
        if x.requires_grad:
            d = _softmax_grad(g, out_data, -1)
            d *= scale
            x._accum(d, owned=True)

    return Tensor._result(out_data, (x,), backward)
