"""Reverse-mode automatic differentiation over dense floating-point arrays.

A small dynamic tape in the micrograd style: every operation records a
backward closure on its output node, and ``Tensor.backward()`` replays the
closures in reverse topological (creation) order.  A ``Tensor`` keeps a
floating input's dtype and makes float64 of anything else; a Python scalar
operand takes the dtype of the tensor it meets, and every buffer a backward
allocates takes its gradient's dtype.  So the models train in ``nn``'s
float32 while the gradient checks run in float64, against central finite
differences at tight tolerances.  Broadcasting is supported for elementwise
ops and the batch dimensions of matmul; nothing fancier is needed by the
models built on top.

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
The input gradient ``g @ w.T`` under a 2-D weight is one 2-D product over
the rows of ``g`` flattened (``_input_grad``).

The layers' composite ops are single tape nodes: ``linear`` (``x @ w + b``),
``affine_layernorm`` (``layernorm(x) * gain + shift``) and
``masked_softmax`` (``softmax(x * scale + mask)``).  Each computes the bits
of the composed ``Tensor`` ops and its backward does their arithmetic in
the same operand order, but the tape keeps no intermediate array that no
backward reads.

Tape lifecycle: a ``Tensor`` is a handle that owns ``.data``; the op that
made it records a ``Node``, which owns the gradient, the backward closure
and the parent nodes.  A closure keeps the nodes it adds gradients into and
only the arrays its backward reads: the operands of ``linear``, ``matmul``,
``*`` and ``/`` (each only where the other operand takes a gradient),
GELU's input and cdf, the outputs of ``exp``, ``tanh`` and softmax, the
fused ops' normalized arrays and masks, and shapes.  So a forward output
that no backward reads dies with its last handle.  An op that records
nothing keeps nothing that only backward reads: an unrecorded GELU makes
no cdf.  ``backward()`` runs each interior node's closure once and then
drops that node's ``.grad``, which nothing reads again; only leaves
(``Parameter``s and ``Tensor(..., requires_grad=True)``) keep a ``.grad``.
A closure that kept an array of ``_SPEND_BYTES`` or more is dropped once
it has run, so its arrays go as backward proceeds; a graph of smaller
arrays keeps its closures, and a second ``backward()`` on the same loss
adds one more gradient into the leaves.  A second ``backward()`` through a
dropped closure raises.

Rebuild, don't keep: the recorded outputs of ``Tensor.gelu``,
``affine_layernorm`` and ``dropout`` carry a rebuild (``Tensor._rebuild``),
a ``functools.partial`` of the forward's own elementwise op (``x * cdf``,
``normalized * gain + shift``, ``(x * keep) * scale``) over arrays that a
closure keeps anyway, so it remakes the output's bits.  The matmul closure
that reads such an output keeps its rebuild instead of its array: it
remakes the input for the weight gradient one run of batch items at a time
(``_weight_grad``; a 4-D operand whole), dropping each before the input
gradient exists, and ``_spend`` counts the arrays a kept rebuild captures
as the closure's own.

Memory between steps: each ``nn.fit`` step runs in its own function scope
(``nn.train_step``), so one graph is alive at a time and the whole graph is
freed when the step returns.  glibc serves an allocation of 128 KiB or more
with a fresh ``mmap`` and unmaps it on free, so every step would fault its
pages in again.  Importing this module raises glibc's mmap threshold to
32 MiB and its trim threshold to 1 GiB (``_keep_freed_memory``), so the
heap keeps what a step frees and malloc's free lists hand it to the next
step; forked ``nn.map_members`` workers inherit the setting.  A
default-arch ``unrest`` policy step at batch 64 in float32 (BLAS at 1
thread, ``scripts/step_memory.py``) holds a 12.8 MB forward tape (24.7 MB
in float64), backward peaks at 15.5 MB, and three steps peak at 15.5 MB
too, under the tape plus the arrays its rebuilds remake that
``tests/test_autodiff.py`` states its bounds against.  A steady step takes
a few minor page faults, against 7.7k-10.2k (in float64) under glibc's
default thresholds.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeError",
    "no_grad",
    "concat",
    "linear",
    "affine_layernorm",
    "masked_softmax",
    "dropout",
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


# Python floats, which take the dtype of the array they meet
_SQRT1_2 = float(1.0 / np.sqrt(2.0))
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# the batch items a 3-D input's weight gradient stacks at a time
# (``_weight_grad``): (step, D, O) parts of at most this many bytes
_WGRAD_CHUNK_BYTES = 1 << 19


# a closure that kept an array of this many bytes or more (32k float32
# elements) is dropped once it has run (``_spend``), so its arrays go as
# backward proceeds
_SPEND_BYTES = 1 << 17

# glibc's ``mallopt`` parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory():
    """Let malloc keep what a training step frees for the next step: serve
    arrays up to 32 MiB from the heap rather than from fresh ``mmap``s, and
    trim the heap only when 1 GiB lies free at its top.  Skipped where libc
    has no ``mallopt``; allocation never changes the arithmetic."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_memory()


def _spend(node: "Node"):
    """Once ``node``'s closure has run (its children's ran before): drop the
    closure if it keeps an array of ``_SPEND_BYTES`` or more, so that its
    arrays go.  The arrays a kept rebuild captures count as the closure's
    own.  A closure that keeps only smaller arrays stays, so a graph of
    small arrays can be run backward again."""
    saved = [cell.cell_contents for cell in node._backward.__closure__ or ()]
    if any(a.nbytes >= _SPEND_BYTES for kept in saved
           for a in (kept.args if isinstance(kept, functools.partial) else (kept,))
           if isinstance(a, np.ndarray)):
        node._backward = None


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``: the same reduce and divide,
    without ``ndarray.mean``'s Python wrapper."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal cdf at ``x``, in one new buffer."""
    cdf = x * _SQRT1_2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) GELU, ``x * cdf`` with ``cdf`` the standard normal
    cdf at ``x``, in the cdf's buffer."""
    cdf = _normal_cdf(x)
    cdf *= x
    return cdf


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x * y`` in one new buffer: a recorded GELU's output and rebuild."""
    return x * y


def _affine(normed: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``normed * gain + shift`` in one new buffer: ``affine_layernorm``'s
    output and rebuild."""
    out = normed * gain
    out += shift
    return out


def _dropped(x: np.ndarray, keep: np.ndarray, scale: float) -> np.ndarray:
    """``(x * keep) * scale`` in one new buffer: ``dropout``'s output and
    rebuild."""
    out = x * keep
    out *= scale
    return out


def layernorm(x: np.ndarray, eps: float = 1e-5) -> tuple:
    """Last axis to zero mean, unit variance (no affine): returns
    ``(normalized, 1 / sqrt(var + eps))``."""
    m = _mean_last(x)
    xc = x - m
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
    top = np.maximum.reduce(x, axis=axis, keepdims=True)
    return _exp_normalize(x - top, axis)


def scaled_softmax(x: np.ndarray, scale: float, mask: np.ndarray) -> np.ndarray:
    """``softmax(x * scale + mask)`` over the last axis, for an additive
    ``mask`` that broadcasts to ``x``'s shape."""
    z = x * scale
    z += mask
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    return _exp_normalize(z, -1)


def _matmul_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.matmul(a, b)
    except ValueError as exc:
        raise ShapeError(f"matmul: operands {a.shape} @ {b.shape}: {exc}") from None


def _weight_grad(x, g: np.ndarray, D: int) -> np.ndarray:
    """The gradient of a (D, O) weight under a (B, T, D) input: the
    batch-axis sum of the (B, D, O) stack ``swapaxes(x) @ g``.  numpy sums
    axis 0 item after item, so the stack is built and summed in runs of
    batch items that fit ``_WGRAD_CHUNK_BYTES``, each run's first item
    carrying the sum so far: the same additions in the same order, without
    the whole stack.  ``x`` is the input array or its rebuild, which then
    remakes one run's items at a time (``_items``), so the whole input is
    never rebuilt."""
    B, O = g.shape[0], g.shape[-1]
    step = max(1, _WGRAD_CHUNK_BYTES // (g.itemsize * D * O))
    part, acc = np.empty((min(step, B), D, O), dtype=g.dtype), None
    for lo in range(0, B, step):
        xs = _items(x, lo, lo + step)
        run = np.matmul(np.swapaxes(xs, -1, -2), g[lo:lo + step], out=part[:min(step, B - lo)])
        del xs    # rebuilt items go before the sum
        if acc is not None:
            run[0] += acc
        acc = np.add.reduce(run, axis=0, out=acc)
    return acc


def _items(x, lo: int, hi: int) -> np.ndarray:
    """Batch items ``lo:hi`` (axis 0) of an array ``x``, or of the array a
    rebuild ``x`` remakes: its op run on those items of each argument that
    has the batch axis (more than one item on axis 0 at the output's rank;
    the other arguments broadcast), which gives those items' bits."""
    if not isinstance(x, functools.partial):
        return x[lo:hi]
    rank = max(a.ndim for a in x.args if isinstance(a, np.ndarray))
    return x.func(*(a[lo:hi] if isinstance(a, np.ndarray) and a.ndim == rank and len(a) > 1
                    else a for a in x.args))


def _input_grad(g: np.ndarray, w: np.ndarray, rows: tuple | None) -> np.ndarray:
    """``g @ w.T``, the gradient of ``a`` in ``a @ w``; ``rows`` is
    ``Tensor.matmul``'s.  For a 2-D ``w`` it is one 2-D GEMM over ``g``'s
    rows flattened, in place of numpy's per-item stack.  Each row's bits
    match the stack's at the default arch's row counts, but can differ for
    items of a dozen rows or fewer, whose small products BLAS computes with
    another kernel."""
    wt = np.swapaxes(w, -1, -2)
    if rows is not None:
        T, index = rows
        full = np.zeros(g.shape[:-2] + (T, g.shape[-1]), dtype=g.dtype)
        full[..., index, :] = g
        g = full
    if w.ndim == 2 and g.ndim > 2:
        out = _matmul_data(g.reshape(-1, g.shape[-1]), wt).reshape(g.shape[:-1] + wt.shape[-1:])
    else:
        out = _matmul_data(g, wt)
    return out if rows is None else out[..., rows[1], :]


def _matmul_backward(x: "Tensor", w: "Tensor", rows: tuple | None, b: "Tensor | None" = None):
    """The backward closure of ``x @ w`` (``+ b`` with ``b``): it adds ``b``'s
    gradient, then ``w``'s, whose run buffer is gone before ``x``'s gradient
    is made, then ``x``'s.  It keeps ``w``'s array only when ``x`` takes a
    gradient, and ``x``'s only when ``w`` does: ``x``'s rebuild where ``x``
    has one, whose remade array it drops before ``x``'s gradient exists.
    ``rows`` is ``Tensor.matmul``'s."""
    a, c, bias = x._node, w._node, None if b is None else b._node
    xd = (x.data if x._rebuild is None else x._rebuild) if c is not None else None
    wd = w.data if a is not None else None

    def backward(g):
        if bias is not None:
            _add_backward(g, bias)
        if c is not None:
            if g.ndim == 3 and len(c.shape) == 2:    # a (B, T, D) input
                c._accum(_weight_grad(xd, g, c.shape[0]), owned=True)
            else:
                xa = xd() if isinstance(xd, functools.partial) else xd
                c._accum(_unbroadcast(_matmul_data(np.swapaxes(xa, -1, -2), g), c.shape),
                         owned=True)
                del xa    # a rebuilt array goes before ``x``'s gradient exists
        if a is not None:
            a._accum(_unbroadcast(_input_grad(g, wd, rows), a.shape), owned=True)

    return backward


def _add_backward(g: np.ndarray, t: "Node | None"):
    """One operand's share of ``+``'s backward."""
    if t is not None:
        gt = _unbroadcast(g, t.shape)
        t._accum(gt, owned=gt is not g)


def _scaled(d: np.ndarray, scale: float) -> np.ndarray:
    d *= scale
    return d


def _tanh_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``g * (1.0 - out**2)`` in one new buffer."""
    d = np.square(out)
    np.subtract(1.0, d, out=d)
    return np.multiply(g, d, out=d)


def _gelu_grad(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """``g * (cdf + x * pdf)`` at ``x``, in one new buffer."""
    d = x * -0.5
    d *= x
    np.exp(d, out=d)
    d /= _SQRT_2PI
    d *= x
    d += cdf
    d *= g
    return d


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
    out = grad.sum(axis=tuple(range(extra))) if extra > 0 else grad
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and out.shape[i] != 1)
    if axes:
        out = out.sum(axis=axes, keepdims=True)
    return out.reshape(shape)


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


class Node:
    """A tape record: the gradient, the output's shape, the backward closure
    and the parent nodes it adds gradients into.  A leaf (a ``Parameter`` or
    ``Tensor(..., requires_grad=True)``) has no closure and keeps its grad."""

    __slots__ = ("grad", "shape", "_backward", "_parents")

    def __init__(self, shape: tuple, grad=None, backward=None, parents: tuple = ()):
        self.grad = grad
        self.shape = shape
        self._backward = backward
        self._parents = parents

    def _accum(self, g, owned: bool):
        """Add ``g`` into ``grad``.  The first write allocates: it keeps ``g``
        itself when the closure just computed it (``owned``) and copies views
        and arrays another operand may also receive."""
        if self.grad is None:
            self.grad = np.asarray(g) if owned else np.array(g)
        else:
            self.grad += g


class Tensor:
    """A handle on a floating-point array, with the tape ``Node`` it was
    recorded as, if any, and the rebuild that remakes the array, if it has
    one.  A floating input keeps its dtype; anything else becomes float64."""

    __slots__ = ("data", "_node", "_rebuild")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self._node = Node(self.data.shape, np.zeros_like(self.data)) if requires_grad else None
        self._rebuild = None

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _result(data, parents, backward, rebuild=None) -> "Tensor":
        """A handle on ``data``, recorded with ``backward`` (and carrying
        ``rebuild``, a ``functools.partial`` that remakes ``data``) when
        grad is enabled and one of the ``parents`` nodes exists."""
        out = Tensor(data)
        parents = tuple(p for p in parents if p is not None)
        if _GRAD_ENABLED and parents:
            out._node = Node(out.data.shape, None, backward, parents)
            out._rebuild = rebuild
        return out

    def backward(self):
        """Populate ``grad`` on every reachable node; ``self`` must be scalar."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        root = self._node
        if root is None:
            raise ValueError("backward() called on a tensor with no recorded operations")

        topo: list[Node] = []
        seen = set()

        def visit(node: Node):
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

        visit(root)
        if any(node._backward is None and node._parents for node in topo):
            raise ValueError("backward() through a graph an earlier backward() spent")
        root.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                g, node.grad = node.grad, None    # consumed: only leaves keep a gradient
                node._backward(g)
                if node is not root:
                    _spend(node)

    # -- elementwise arithmetic -------------------------------------------

    def _coerce(self, other) -> "Tensor":
        """``other`` as a ``Tensor``: a Python scalar at ``self``'s dtype."""
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data
        a, b = self._node, other._node

        def backward(g):
            _add_backward(g, a)
            _add_backward(g, b)

        return Tensor._result(out_data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self._node

        def backward(g):
            a._accum(-g, owned=True)

        return Tensor._result(-self.data, (a,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        x, y = self.data, other.data
        out_data = x * y
        a, b = self._node, other._node
        x, y = (x if b is not None else None), (y if a is not None else None)

        def backward(g):
            for t, o in ((a, y), (b, x)):
                if t is not None:
                    t._accum(_unbroadcast(g * o, t.shape), owned=True)

        return Tensor._result(out_data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        x, y = self.data, other.data
        out_data = x / y
        a, b = self._node, other._node
        x = x if b is not None else None

        def backward(g):
            if a is not None:
                a._accum(_unbroadcast(g / y, a.shape), owned=True)
            if b is not None:
                b._accum(_unbroadcast(-g * x / y**2, b.shape), owned=True)

        return Tensor._result(out_data, (a, b), backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: float):
        x, a = self.data, self._node

        def backward(g):
            a._accum(g * exponent * x ** (exponent - 1), owned=True)

        return Tensor._result(x**exponent, (a,), backward)

    # -- unary math --------------------------------------------------------

    def exp(self):
        out_data, a = np.exp(self.data), self._node

        def backward(g):
            a._accum(g * out_data, owned=True)

        return Tensor._result(out_data, (a,), backward)

    def log(self):
        x, a = self.data, self._node

        def backward(g):
            a._accum(g / x, owned=True)

        return Tensor._result(np.log(x), (a,), backward)

    def tanh(self):
        out_data, a = np.tanh(self.data), self._node

        def backward(g):
            a._accum(_tanh_grad(g, out_data), owned=True)

        return Tensor._result(out_data, (a,), backward)

    def relu(self):
        x, a = self.data, self._node

        def backward(g):
            a._accum(g * (x > 0), owned=True)

        return Tensor._result(np.maximum(x, 0.0), (a,), backward)

    def gelu(self):
        """Exact (erf-based) GELU.  Recorded, it keeps its input and the
        normal cdf, and its output's rebuild is their product; unrecorded,
        it makes no cdf beside its output."""
        x, a = self.data, self._node
        if not (_GRAD_ENABLED and a is not None):
            return Tensor(gelu(x))
        cdf = _normal_cdf(x)
        rebuild = functools.partial(_product, x, cdf)

        def backward(g):
            a._accum(_gelu_grad(g, x, cdf), owned=True)

        return Tensor._result(rebuild(), (a,), backward, rebuild)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self._node

        def backward(g):
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            a._accum(np.broadcast_to(gg, a.shape), owned=False)

        return Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

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
        a = self._node

        def backward(g):    # a copy of ``g`` is owned
            r = g.reshape(a.shape)
            a._accum(r, owned=not np.may_share_memory(r, g))

        return Tensor._result(self.data.reshape(shape), (a,), backward)

    def transpose(self, axes):
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        a = self._node

        def backward(g):
            a._accum(g.transpose(inv), owned=False)

        return Tensor._result(self.data.transpose(axes), (a,), backward)

    def __getitem__(self, idx):
        a = self._node

        def backward(g):
            if a.grad is None:
                a.grad = np.zeros(a.shape, dtype=g.dtype)
            if _is_basic_index(idx):
                a.grad[idx] += g
            else:  # integer arrays may repeat an index: accumulate each
                np.add.at(a.grad, idx, g)

        return Tensor._result(self.data[idx], (a,), backward)

    # -- linear algebra ----------------------------------------------------

    def matmul(self, other, rows: tuple | None = None):
        """``self @ other``.  ``rows = (T, index)`` says that ``self`` holds
        the rows ``index`` (axis -2) of a T-row operand: ``self``'s gradient
        is then computed on the output gradient zero-padded back to T rows,
        and those rows are kept.  The bits of a row of ``g @ W.T`` can depend
        on the product's row count, and the padding gives each row the bits
        of the T-row product's."""
        other = self._coerce(other)
        return Tensor._result(_matmul_data(self.data, other.data),
                              (self._node, other._node), _matmul_backward(self, other, rows))

    __matmul__ = matmul

    # -- softmax / normalization -------------------------------------------

    def softmax(self, axis: int = -1):
        out_data, a = softmax(self.data, axis), self._node

        def backward(g):
            a._accum(_softmax_grad(g, out_data, axis), owned=True)

        return Tensor._result(out_data, (a,), backward)

    def layernorm(self, eps: float = 1e-5):
        """Normalize the last axis to zero mean, unit variance (no affine)."""
        (out_data, inv), a = layernorm(self.data, eps), self._node

        def backward(g):
            a._accum(_layernorm_grad(g, out_data, inv), owned=True)

        return Tensor._result(out_data, (a,), backward)


def concat(tensors: list, axis: int = -1) -> Tensor:
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])
    nodes = [t._node for t in tensors]

    def backward(g):
        for t, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if t is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)], owned=False)

    return Tensor._result(out_data, nodes, backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None,
           rows: tuple | None = None) -> Tensor:
    """``x @ w + b`` (``x @ w`` without ``b``) as one tape node, with the bits
    and gradients of ``x.matmul(w, rows) + b``; the tape keeps no ``x @ w``
    array.  ``rows`` is ``Tensor.matmul``'s."""
    out_data = _matmul_data(x.data, w.data)
    if b is not None:
        out_data += b.data
    parents = (x._node, w._node) if b is None else (x._node, w._node, b._node)
    return Tensor._result(out_data, parents, _matmul_backward(x, w, rows, b))


def affine_layernorm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """``x.layernorm(eps) * gain + shift`` as one tape node, with its bits
    and gradients; the tape keeps no ``normalized * gain`` array, and keeps
    the normalized array, ``1 / sqrt(var + eps)`` and the gain only where a
    gradient reads them.  Where the normalized array is kept, the output's
    rebuild is ``normalized * gain + shift`` again."""
    normed, inv = layernorm(x.data, eps)
    rebuild = functools.partial(_affine, normed, gain.data, shift.data)
    out_data = rebuild()
    a, gn, sn = x._node, gain._node, shift._node
    gd, inv = (gain.data, inv) if a is not None else (None, None)
    if a is None and gn is None:    # no gradient reads the normalized array
        normed = rebuild = None

    def backward(g):
        _add_backward(g, sn)
        if gn is not None:
            gn._accum(_unbroadcast(g * normed, gn.shape), owned=True)
        if a is not None:
            a._accum(_layernorm_grad(_unbroadcast(g * gd, normed.shape), normed, inv,
                                     owned=True), owned=True)

    return Tensor._result(out_data, (a, gn, sn), backward, rebuild)


def masked_softmax(x: Tensor, scale: float, mask: np.ndarray) -> Tensor:
    """``(x * scale + mask).softmax(-1)`` as one tape node, with its bits and
    gradients, for a constant ``scale`` and additive ``mask`` that broadcasts
    to ``x``'s shape; the tape keeps neither the scaled nor the masked scores."""
    out_data, a = scaled_softmax(x.data, scale, mask), x._node

    def backward(g):
        a._accum(_scaled(_softmax_grad(g, out_data, -1), scale), owned=True)

    return Tensor._result(out_data, (a,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            rows: tuple | None = None) -> Tensor:
    """Inverted dropout as one tape node that keeps a bool mask: ``(x *
    keep) * scale`` forward and ``(g * keep) * scale`` backward, for ``keep =
    draw >= p`` and ``scale = 1 / (1 - p)``, the bits of ``x`` times the
    float mask ``keep / (1 - p)``.  ``rows = (T, index)`` says that ``x``
    holds the rows ``index`` (axis -2) of a T-row activation: the draw is made
    at the full T-row shape and those rows are kept, so the rng stream and
    each row's mask are the ones an unpruned call draws.  The output's
    rebuild is ``(x * keep) * scale`` again: a matmul that reads the output
    (attention's) keeps the bool mask and ``x``'s array, a softmax's output
    that its own closure keeps anyway, instead of a floating output.  The
    draws are float64 whatever ``x``'s dtype, so each mask is the same."""
    shape = x.shape if rows is None else x.shape[:-2] + (rows[0], x.shape[-1])
    draw = rng.random(shape)
    keep = np.greater_equal(draw if rows is None else draw[..., rows[1], :], p)
    del draw    # before the output exists
    scale = 1.0 / (1.0 - p)
    rebuild = functools.partial(_dropped, x.data, keep, scale)
    a = x._node

    def backward(g):
        a._accum(_scaled(g * keep, scale), owned=True)

    return Tensor._result(rebuild(), (a,), backward, rebuild)
