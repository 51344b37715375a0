"""Neural network building blocks on top of the autodiff tape.

Contains the module system, the causal transformer trunk shared by all three
model roles, the AdamW optimizer, the Gaussian negative log-likelihood used
by variance heads, ``Standardizer``, which z-scores every raw input and
target the networks see, ``fit``, the training loop of all three trainers
(AdamW steps, one graph at a time, whose freed memory malloc keeps for the
next step: see ``autodiff``), ``map_members``, which trains independent
ensemble members in parallel worker processes, ``map_chunks``, which spreads
the data path's per-episode and per-trajectory loops (collect, segment,
calibrate) over the same pool, and checkpoint IO.
Every model computes in one dtype, ``DTYPE`` (float32): a ``Parameter``
casts its initial draws to it, and so do both op sets' ``const``, the
attention masks and the losses' targets and masks, so no float64 array
enters a training tape.
Each layer is written once, as ``run(ops, ...)`` over one of two op sets:
``TAPE`` runs it on ``Tensor``s and records the tape for training (the
layer's ``__call__``), and ``ARRAY`` runs it on plain ``DTYPE`` ndarrays
with no tape (its ``infer``).  Each array op computes what its taped twin's
``.data`` holds, so ``infer`` returns the taped call's bits by
construction.  The
taped ``linear``, ``layernorm``, ``softmax`` and ``dropout`` entries are
the fused single-node ops of ``autodiff`` (``x @ w + b``, ``layernorm(x) *
gain + shift``, ``softmax(x * scale + mask)`` and ``x`` times a bool mask
and a scale); the array twins of the first three compose the same
arithmetic, and ``ARRAY.dropout`` is the identity.  A trunk can compute
only the rows its caller reads (``rows=``): the last block, its dropout and
``ln_f`` then run on those rows, with the bits, gradients and rng draws of
the every-row call.  ``autodiff.dropout`` draws its mask at the full shape
and ``CausalTransformer._last_rows`` sends a single-row read through every
row.  The pruned ``Linear`` layers need no rule: their input gradient is one
GEMM over the batch's rows flattened (``autodiff._input_grad``), which the
read-rows tests of ``tests/test_infer.py`` check at the default arch.
A checkpoint is one ``archive`` container: each parameter an array entry
at its dtype, and the config and normalizers in one JSON ``meta`` entry, so
a save/load round trip is bitwise exact.  A checkpoint whose parameters are
stored at another dtype is refused, never cast.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import archive
from .autodiff import (Tensor, ShapeError, affine_layernorm, concat, dropout, gelu,
                       layernorm, linear, masked_softmax, scaled_softmax)

NEG_INF = -1e9  # finite mask constant; keeps softmax NaN-free on padded rows
DTYPE = np.float32  # every model's parameters, activations and gradients


class TrainingDiverged(RuntimeError):
    """Raised when a training loop observes a non-finite loss."""


# ---------------------------------------------------------------------------
# Module system
# ---------------------------------------------------------------------------


class Parameter(Tensor):
    """A trainable leaf: its initial values cast to ``DTYPE``."""

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=DTYPE), requires_grad=True)


def _const(x) -> Tensor:
    """A raw input or constant operand as a ``DTYPE`` ``Tensor``."""
    return Tensor(np.asarray(x, dtype=DTYPE))


class TapeOps:
    """The taped op set: ``Tensor``s in and out, every op recorded for backward."""

    const = staticmethod(_const)            # a raw input or constant operand
    concat = staticmethod(concat)
    linear = staticmethod(linear)           # (x, w, b=None)
    tanh = staticmethod(Tensor.tanh)
    gelu = staticmethod(Tensor.gelu)
    softmax = staticmethod(masked_softmax)  # (x, scale, mask)
    layernorm = staticmethod(affine_layernorm)  # (x, gain, shift)
    dropout = staticmethod(dropout)         # (x, p, rng, rows=None)

    @staticmethod
    def param(p: Parameter) -> Tensor:
        return p

    @staticmethod
    def call(module: "Module", *args, **kwargs):
        """Enter ``module`` through its taped ``__call__``."""
        return module(*args, **kwargs)


class ArrayOps:
    """The tape-free op set: plain ``DTYPE`` ndarrays in and out, no
    ``Tensor`` built.  Each op computes what its ``TapeOps`` twin's ``.data``
    holds."""

    concat = staticmethod(np.concatenate)
    tanh = np.tanh
    param = operator.attrgetter("data")     # a Parameter's array

    @staticmethod
    def const(x) -> np.ndarray:
        return np.asarray(x, dtype=DTYPE)

    @staticmethod
    def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
        out = x @ w
        if b is not None:
            out += b
        return out

    gelu = staticmethod(gelu)
    softmax = staticmethod(scaled_softmax)  # (x, scale, mask)

    @staticmethod
    def layernorm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
        out = layernorm(x)[0]
        out *= gain
        out += shift
        return out

    @staticmethod
    def dropout(x: np.ndarray, p: float, rng, rows=None) -> np.ndarray:
        return x          # inference draws no dropout

    @staticmethod
    def call(module: "Module", *args, rng=None, **kwargs):
        """Enter ``module`` through its ``infer``, which draws no dropout and
        so takes no ``rng``."""
        return module.infer(*args, **kwargs)


TAPE, ARRAY = TapeOps(), ArrayOps()


class Module:
    """Minimal module container with recursive parameter discovery.

    A layer writes its computation once, as ``run(ops, ...)`` over an op set,
    with any dropout ``rng`` last; it runs its sub-layers' ``run`` directly.
    The taped ``__call__`` runs that body with ``TAPE``, and ``infer`` runs it
    with ``ARRAY``, so ``infer(...)`` is ``__call__(...).data`` bit for bit.
    Models enter their layers through ``ops.call``, that is through these two
    entry points.
    """

    def __init__(self):
        self.training = True

    def __call__(self, *args, **kwargs):
        return self.run(TAPE, *args, **kwargs)

    def infer(self, *args, **kwargs):
        return self.run(ARRAY, *args, **kwargs)

    def train(self, mode: bool = True):
        self.training = mode
        for child in self._children():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def _children(self):
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def named_parameters(self, prefix: str = ""):
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield key, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{key}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{key}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{key}.{i}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> dict:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict):
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, p in own.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape or arr.dtype != p.data.dtype:
                raise ShapeError(f"{name}: state {arr.shape} {arr.dtype} != model "
                                 f"{p.data.shape} {p.data.dtype}")
            p.data[...] = arr


def uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True, zero_init: bool = False):
        super().__init__()
        if zero_init:
            w = np.zeros((in_dim, out_dim))
        else:
            w = uniform_init(rng, (in_dim, out_dim), in_dim)
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    def run(self, ops, x):
        bias = None if self.bias is None else ops.param(self.bias)
        return ops.linear(x, ops.param(self.weight), bias)


class Embedding(Module):
    def __init__(self, num: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num, dim)))

    def run(self, ops, idx: np.ndarray):
        return ops.param(self.weight)[np.asarray(idx, dtype=np.intp)]


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gain = Parameter(np.ones(dim))
        self.shift = Parameter(np.zeros(dim))

    def run(self, ops, x):
        return ops.layernorm(x, ops.param(self.gain), ops.param(self.shift))


class Dropout(Module):
    """Inverted dropout (``autodiff.dropout``, whose ``rows`` keep a pruned
    call's mask); identity in eval mode, without an ``rng`` and in ``infer``."""

    def __init__(self, p: float):
        super().__init__()
        self.p = p

    def run(self, ops, x, rows: tuple | None = None,
            rng: np.random.Generator | None = None):
        if not self.training or self.p <= 0.0 or rng is None:
            return x
        return ops.dropout(x, self.p, rng, rows)


@functools.lru_cache(maxsize=None)   # T never exceeds a trunk's max_tokens
def causal_mask(T: int) -> np.ndarray:
    """Read-only (T, T) ``DTYPE`` additive mask: NEG_INF above the
    diagonal, else 0; built once per length and shared by every caller."""
    mask = np.triu(np.full((T, T), NEG_INF, dtype=DTYPE), k=1)
    mask.flags.writeable = False
    return mask


def _attention_mask(T: int, key_mask: np.ndarray | None,
                    rows: slice = slice(None)) -> np.ndarray:
    """The causal mask's query ``rows``, plus NEG_INF on padded keys:
    (R, T) or (B, 1, R, T)."""
    mask = causal_mask(T)[rows]
    if key_mask is None:
        return mask
    pad = np.where(key_mask, DTYPE(0.0), DTYPE(NEG_INF))[:, None, None, :]  # (B,1,1,T)
    return mask[None, None, :, :] + pad


class CausalSelfAttention(Module):
    """Multi-head self-attention with a strict lower-triangular mask.

    Position t can only attend to positions <= t.  An optional key validity
    mask (True = real token) removes left padding from the attention.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        if dim % heads != 0:
            raise ShapeError(f"embedding dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)
        self.drop = Dropout(dropout)

    def run(self, ops, x, key_mask: np.ndarray | None = None,
            rows: slice = slice(None), rng: np.random.Generator | None = None):
        """The attention output at the query positions ``rows`` only; keys and
        values still come from every position.  The scores and the dropped
        attention, which no backward keeps, go once read."""
        B, T, D = x.shape
        H, hd = self.heads, self.head_dim
        pad = None if rows == slice(None) else (T, rows)   # for Dropout
        qkv = self.qkv.run(ops, x)  # (B, T, 3D)
        q = qkv[:, rows, 0 * D:1 * D]
        R = q.shape[1]
        q = q.reshape(B, R, H, hd).transpose((0, 2, 1, 3))
        k = qkv[:, :, 1 * D:2 * D].reshape(B, T, H, hd).transpose((0, 2, 1, 3))
        v = qkv[:, :, 2 * D:3 * D].reshape(B, T, H, hd).transpose((0, 2, 1, 3))

        scores = q @ k.transpose((0, 1, 3, 2))  # (B,H,R,T)
        att = ops.softmax(scores, 1.0 / math.sqrt(hd), _attention_mask(T, key_mask, rows))
        del scores
        att = self.drop.run(ops, att, pad, rng)
        out = att @ v
        del att
        out = out.transpose((0, 2, 1, 3)).reshape(B, R, D)
        return self.drop.run(ops, self.proj.run(ops, out), pad, rng)


class TransformerBlock(Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = CausalSelfAttention(dim, heads, rng, dropout)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, 4 * dim, rng)
        self.fc2 = Linear(4 * dim, dim, rng)
        self.drop = Dropout(dropout)

    def run(self, ops, x, key_mask=None, rows: slice = slice(None), rng=None):
        """The block's output at positions ``rows`` (every position attends as
        usual), with the gradients and dropout draws of the every-row call.
        The MLP hidden goes once ``fc2`` has read it, and ``fc2``'s output
        once dropped."""
        pad = None if rows == slice(None) else (x.shape[1], rows)
        res = x if pad is None else x[:, rows]
        x = res + self.attn.run(ops, self.ln1.run(ops, x), key_mask, rows, rng)
        h = ops.gelu(self.fc1.run(ops, self.ln2.run(ops, x)))
        h = self.fc2.run(ops, h)
        h = self.drop.run(ops, h, pad, rng)
        return x + h


class CausalTransformer(Module):
    """GPT-style trunk over pre-embedded token sequences."""

    def __init__(self, dim: int, heads: int, layers: int, max_tokens: int,
                 rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.max_tokens = max_tokens
        self.pos_emb = Parameter(rng.normal(0.0, 0.02, size=(max_tokens, dim)))
        self.blocks = [TransformerBlock(dim, heads, rng, dropout) for _ in range(layers)]
        self.ln_f = LayerNorm(dim)
        self.drop = Dropout(dropout)

    @staticmethod
    def _last_rows(T: int, rows: slice) -> tuple:
        """(the rows the last block computes, the rows kept after ``ln_f``)
        for a call that reads ``rows``.  A selection of fewer than two
        positions computes every row and is kept afterwards: a one-row
        product goes to GEMV, whose bits can differ from the GEMM row's."""
        if len(range(T)[rows]) < 2:
            return slice(None), rows
        return rows, slice(None)

    def run(self, ops, tokens, key_mask: np.ndarray | None = None,
            rows: slice = slice(None), rng: np.random.Generator | None = None):
        """The trunk's output at positions ``rows``, bit for bit those rows of
        the every-row output, with that call's gradients and rng draws.  Every
        block but the last runs on all positions, as the last one attends to
        them; the last block and ``ln_f`` run on ``rows`` only (see
        ``_last_rows`` for a single row)."""
        T = tokens.shape[1]
        if T > self.max_tokens:
            raise ShapeError(f"sequence of {T} tokens exceeds trunk capacity {self.max_tokens}")
        last, keep = self._last_rows(T, rows)
        x = tokens + ops.param(self.pos_emb)[np.arange(T)]
        x = self.drop.run(ops, x, rng=rng)
        for block in self.blocks[:-1]:
            x = block.run(ops, x, key_mask, rng=rng)
        x = self.blocks[-1].run(ops, x, key_mask, last, rng) if self.blocks else x[:, last]
        x = self.ln_f.run(ops, x)
        return x if keep == slice(None) else x[:, keep]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _nll_terms(mu, log_var, target):
    """(mu - y)^2 / sigma^2 + ln sigma^2 per element, constants dropped, on
    ``Tensor``s or on plain arrays."""
    diff = mu - target
    inv_var = (-log_var).exp() if isinstance(log_var, Tensor) else np.exp(-log_var)
    return diff * diff * inv_var + log_var


def masked_nll_sum(mu, log_var, target, mask) -> tuple:
    """(the sum of the per-element Gaussian NLL over ``mask``, the mask's
    count): ``Tensor`` and float for ``Tensor`` forecasts, two floats for
    arrays."""
    m = np.asarray(mask, dtype=DTYPE)
    per = _nll_terms(mu, log_var, target)
    return (per * m).sum(), m.sum()


def gaussian_nll(mu: Tensor, log_var: Tensor, target: Tensor | np.ndarray,
                 mask: np.ndarray | None = None) -> Tensor:
    """Variance-network loss: mean of (mu - y)^2 / sigma^2 + ln sigma^2.

    Constants are dropped; the variance is parameterized through its log so
    positivity never needs clipping.  ``mask`` (True = count this element)
    averages over valid elements only.
    """
    if not isinstance(target, Tensor):
        target = _const(target)
    if mu.shape != log_var.shape or mu.shape != target.shape:
        raise ShapeError(f"gaussian_nll: shapes {mu.shape}/{log_var.shape}/{target.shape} differ")
    if mask is None:
        return _nll_terms(mu, log_var, target).mean()
    total, count = masked_nll_sum(mu, log_var, target, mask)
    return total / max(count, 1.0)


def mse_loss(pred: Tensor, target: Tensor | np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    if not isinstance(target, Tensor):
        target = _const(target)
    diff = pred - target
    per = diff * diff
    if mask is None:
        return per.mean()
    m = np.asarray(mask, dtype=DTYPE)
    if m.ndim == per.ndim - 1:  # broadcast step mask over the action dim
        m = m[..., None] * np.ones(per.shape[-1], dtype=DTYPE)
    return (per * Tensor(m)).sum() / max(m.sum(), 1.0)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------


class Standardizer:
    """z-scoring fitted on data: ``(x - mean) / std``, std floored at 1e-6.

    Fitted on an (N, D) array it keeps per-column arrays; fitted on a 1-D
    array it keeps Python floats, so callers' ``std**2`` stays Python's pow.
    ``to_dict(prefix)`` writes ``<prefix>_mean`` and ``<prefix>_std``.
    """

    def __init__(self, mean, std):
        self.mean = mean
        self.std = std

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        mean, std = x.mean(axis=0), np.maximum(x.std(axis=0), 1e-6)
        if x.ndim == 1:
            return cls(float(mean), float(std))
        return cls(mean, std)

    def __call__(self, x):
        return (x - self.mean) / self.std

    def inverse(self, z):
        return z * self.std + self.mean

    def inverse_var(self, var):
        """A variance in z units back in raw units: ``var * std**2``.

        ``std**2`` keeps Python's pow for a float ``std``; where that square
        overflows, the ValueError names it, as for any invalid forecast.
        """
        try:
            scale = self.std**2
        except OverflowError:
            raise ValueError(f"variance scale std**2 overflows at std={self.std}") from None
        return var * scale

    def to_dict(self, prefix: str) -> dict:
        return {f"{prefix}_mean": np.asarray(self.mean).tolist(),
                f"{prefix}_std": np.asarray(self.std).tolist()}

    @classmethod
    def from_dict(cls, d: dict, prefix: str) -> "Standardizer":
        mean, std = d[f"{prefix}_mean"], d[f"{prefix}_std"]
        if isinstance(mean, list):
            return cls(np.array(mean, dtype=np.float64), np.array(std, dtype=np.float64))
        return cls(float(mean), float(std))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay (decay defaults to off)."""

    def __init__(self, params: list, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * update

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def train_step(opt: AdamW, loss_fn, who: str, when: str) -> float:
    """One training step: ``loss_fn()`` builds the taped loss, then backward
    and one ``opt`` update; returns the loss value.

    The step's graph lives in this frame only, so it is freed when the step
    returns and the next step's arrays reuse its memory.  A non-finite loss
    raises TrainingDiverged, naming ``who`` and ``when``, before any update.
    """
    loss = loss_fn()
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingDiverged(f"{who}: non-finite loss {value} at {when}")
    opt.zero_grad()
    loss.backward()
    opt.step()
    return value


def fit(model: Module, batch, loss, after_epoch, *, epochs: int, iters: int, lr: float,
        who: str, weight_decay: float = 0.0) -> list:
    """Train ``model`` with AdamW, ``epochs`` x ``iters`` steps; returns each
    epoch's ``after_epoch`` value.

    A step draws ``b = batch()``, then runs ``train_step`` on ``loss(b)`` in
    train mode.  ``after_epoch(epoch, step_losses)`` runs in eval mode, and
    the model returns in eval mode.  A count below 1 raises ValueError
    before the first step.
    """
    if epochs < 1 or iters < 1:
        raise ValueError(f"{who}: training needs epochs >= 1 and iters >= 1, "
                         f"got epochs={epochs}, iters={iters}")
    opt = AdamW(model.parameters(), lr=lr, weight_decay=weight_decay)
    results = []
    for epoch in range(epochs):
        model.train()
        losses = []
        for it in range(iters):
            b = batch()
            losses.append(train_step(opt, lambda: loss(b), who, f"epoch {epoch}, iter {it}"))
        model.eval()
        results.append(after_epoch(epoch, losses))
    return results


# ---------------------------------------------------------------------------
# Ensemble members in parallel
# ---------------------------------------------------------------------------

_task_fn = None  # set in each worker process, never in the caller


def _install_task_fn(fn):
    global _task_fn
    _task_fn = fn


def _call_member(k: int):
    return _task_fn(k)


def pool_workers(n: int) -> int:
    """How many worker processes ``map_members`` forks for ``n`` tasks: one
    per usable CPU, and never more than there are tasks."""
    return min(n, len(os.sched_getaffinity(0)))


def map_members(fn, n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, one forked worker process per usable CPU.

    The one process pool of the library: it trains ensemble members, and
    through ``map_chunks`` it also runs the per-episode and per-trajectory
    loops of the data path.  Each task owns its seeds and data, so each call
    runs exactly the code a serial loop would and the results are bitwise
    the same.  With one worker this is a plain loop.  Workers are forked, so
    they inherit ``fn`` (it may be a closure over a whole dataset) and only
    task indices and results are pickled.  Results come back in task order;
    a failure re-raises the exception of the lowest-index failing task, as
    the serial loop would, once every worker has exited.
    """
    workers = pool_workers(n)
    if workers <= 1:
        return [fn(k) for k in range(n)]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_install_task_fn, initargs=(fn,))
    try:
        futures = [pool.submit(_call_member, k) for k in range(n)]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def map_chunks(fn, n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]`` over ``map_members``' pool, one contiguous
    run of indices per worker.

    Each worker loops over its own run in order, so the first failing run
    holds the lowest failing index, and ``map_members`` re-raises exactly the
    error the serial loop would.  One task per worker pays the pool's
    round trip once per worker instead of once per index.
    """
    workers = pool_workers(n)

    def run(k: int) -> list:
        return [fn(i) for i in range(k * n // workers, (k + 1) * n // workers)]

    return [result for results in map_members(run, workers) for result in results]


# ---------------------------------------------------------------------------
# Checkpoint IO
# ---------------------------------------------------------------------------


def _prefixed(modules: dict):
    return ((prefix + name, p) for prefix, module in modules.items()
            for name, p in module.named_parameters())


def save_checkpoint(path, tag: str, meta: dict, modules: dict) -> None:
    """Write the JSON ``meta`` and the parameters of ``modules``, which maps a
    prefix to a module, as one ``archive`` at ``path``, creating its
    directory: parameter ``name`` is the entry ``prefix + name``, at its
    dtype."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    archive.write(path, tag, meta=meta, **{name: p.data for name, p in _prefixed(modules)})


def load_checkpoint(path, tag: str, build):
    """The object ``build(meta)`` makes from a ``save_checkpoint`` archive.

    ``build`` returns ``(obj, modules)``: the object, made from the meta
    alone, and its modules keyed by prefix as saved, which receive the
    stored parameters; these must be exactly theirs, each at its shape and
    dtype, or the archive's ValueError names ``path``.
    """
    built = {}

    def layout(entries: dict) -> dict:
        built["obj"], built["modules"] = build(entries["meta"])
        return {name: (p.data.shape, p.data.dtype) for name, p in _prefixed(built["modules"])}

    entries = archive.read(path, tag, layout, json_entries=("meta",))
    for name, p in _prefixed(built["modules"]):
        p.data[...] = entries[name]
    return built["obj"]


def checkpoint_in(directory, name: str) -> Path:
    """The archive ``name`` in a model ``directory``; a directory without it
    holds an earlier format (one file per member)."""
    path = Path(directory) / name
    if Path(directory).is_dir() and not path.exists():
        raise ValueError(f"{directory}: holds no {name}; {archive.REMAKE}")
    return path
