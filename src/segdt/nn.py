"""Neural network building blocks on top of the autodiff tape.

Contains the module system, the causal transformer trunk shared by all three
model roles, the AdamW optimizer, the Gaussian negative log-likelihood used
by variance heads, ``Standardizer``, which z-scores every raw input and
target the networks see, ``map_members``, which trains independent ensemble
members in parallel worker processes, and checkpoint (de)serialization.
Checkpoints are JSON with raw little-endian float64 parameter bytes in
base64, so a save/load round trip is bitwise exact.
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .autodiff import Tensor, ShapeError, concat

NEG_INF = -1e9  # finite mask constant; keeps softmax NaN-free on padded rows


class TrainingDiverged(RuntimeError):
    """Raised when a training loop observes a non-finite loss."""


# ---------------------------------------------------------------------------
# Module system
# ---------------------------------------------------------------------------


class Parameter(Tensor):
    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Minimal module container with recursive parameter discovery."""

    def __init__(self):
        self.training = True

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
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ShapeError(f"{name}: checkpoint shape {arr.shape} != model shape {p.data.shape}")
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

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    def __init__(self, num: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num, dim)))

    def __call__(self, idx: np.ndarray) -> Tensor:
        return self.weight[np.asarray(idx, dtype=np.intp)]


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gain = Parameter(np.ones(dim))
        self.shift = Parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return x.layernorm() * self.gain + self.shift


class Dropout(Module):
    """Inverted dropout; identity in eval mode.  Uses the rng passed at call."""

    def __init__(self, p: float):
        super().__init__()
        self.p = p

    def __call__(self, x: Tensor, rng: np.random.Generator | None) -> Tensor:
        if not self.training or self.p <= 0.0 or rng is None:
            return x
        keep = (rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(keep)


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

    def __call__(self, x: Tensor, key_mask: np.ndarray | None = None,
                 rng: np.random.Generator | None = None) -> Tensor:
        B, T, D = x.shape
        H, hd = self.heads, self.head_dim
        qkv = self.qkv(x)  # (B, T, 3D)
        q = qkv[:, :, 0 * D:1 * D].reshape(B, T, H, hd).transpose((0, 2, 1, 3))
        k = qkv[:, :, 1 * D:2 * D].reshape(B, T, H, hd).transpose((0, 2, 1, 3))
        v = qkv[:, :, 2 * D:3 * D].reshape(B, T, H, hd).transpose((0, 2, 1, 3))

        scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(hd))  # (B,H,T,T)
        mask = np.triu(np.full((T, T), NEG_INF), k=1)
        if key_mask is not None:
            pad = np.where(key_mask, 0.0, NEG_INF)[:, None, None, :]  # (B,1,1,T)
            mask = mask[None, None, :, :] + pad  # (B,1,T,T)
        scores = scores + Tensor(mask)
        att = scores.softmax(axis=-1)
        att = self.drop(att, rng)
        out = (att @ v).transpose((0, 2, 1, 3)).reshape(B, T, D)
        return self.drop(self.proj(out), rng)


class TransformerBlock(Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = CausalSelfAttention(dim, heads, rng, dropout)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, 4 * dim, rng)
        self.fc2 = Linear(4 * dim, dim, rng)
        self.drop = Dropout(dropout)

    def __call__(self, x: Tensor, key_mask=None, rng=None) -> Tensor:
        x = x + self.attn(self.ln1(x), key_mask, rng)
        h = self.drop(self.fc2(self.fc1(self.ln2(x)).gelu()), rng)
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

    def __call__(self, tokens: Tensor, key_mask: np.ndarray | None = None,
                 rng: np.random.Generator | None = None) -> Tensor:
        B, T, D = tokens.shape
        if T > self.max_tokens:
            raise ShapeError(f"sequence of {T} tokens exceeds trunk capacity {self.max_tokens}")
        x = tokens + self.pos_emb[np.arange(T)]
        x = self.drop(x, rng)
        for block in self.blocks:
            x = block(x, key_mask, rng)
        return self.ln_f(x)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def gaussian_nll(mu: Tensor, log_var: Tensor, target: Tensor | np.ndarray,
                 mask: np.ndarray | None = None) -> Tensor:
    """Variance-network loss: mean of (mu - y)^2 / sigma^2 + ln sigma^2.

    Constants are dropped; the variance is parameterized through its log so
    positivity never needs clipping.  ``mask`` (True = count this element)
    averages over valid elements only.
    """
    if not isinstance(target, Tensor):
        target = Tensor(target)
    if mu.shape != log_var.shape or mu.shape != target.shape:
        raise ShapeError(f"gaussian_nll: shapes {mu.shape}/{log_var.shape}/{target.shape} differ")
    diff = mu - target
    per = diff * diff * (-log_var).exp() + log_var
    if mask is None:
        return per.mean()
    m = np.asarray(mask, dtype=np.float64)
    return (per * Tensor(m)).sum() / max(m.sum(), 1.0)


def mse_loss(pred: Tensor, target: Tensor | np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    if not isinstance(target, Tensor):
        target = Tensor(target)
    diff = pred - target
    per = diff * diff
    if mask is None:
        return per.mean()
    m = np.asarray(mask, dtype=np.float64)
    if m.ndim == per.ndim - 1:  # broadcast step mask over the action dim
        m = m[..., None] * np.ones(per.shape[-1])
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


# ---------------------------------------------------------------------------
# Ensemble members in parallel
# ---------------------------------------------------------------------------

_member_fn = None  # set in each worker process, never in the caller


def _install_member_fn(fn):
    global _member_fn
    _member_fn = fn


def _call_member(k: int):
    return _member_fn(k)


def map_members(fn, n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, one forked worker process per usable CPU.

    Ensemble members own their seeds and data, so each call runs exactly the
    code a serial loop would and the results are bitwise the same.  With one
    worker this is a plain loop.  Workers are forked, so they inherit ``fn``
    (it may be a closure over a whole dataset) and only member indices and
    results are pickled.  Results come back in member order; a failure
    re-raises the exception of the lowest-index failing member, as the
    serial loop would, once every worker has exited.
    """
    workers = min(n, len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(k) for k in range(n)]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_install_member_fn, initargs=(fn,))
    try:
        futures = [pool.submit(_call_member, k) for k in range(n)]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Checkpoint IO
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "segdt-ckpt-1"


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype=np.float64)
    return {
        "shape": list(data.shape),
        "dtype": "float64",
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_array(entry: dict) -> np.ndarray:
    raw = base64.b64decode(entry["data"])
    arr = np.frombuffer(raw, dtype=np.float64).copy()
    return arr.reshape(entry["shape"])


def save_checkpoint(path, module: Module, arch: dict, config: dict | None = None,
                    extras: dict | None = None):
    """Write a self-describing checkpoint: architecture, params, config."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "arch": arch,
        "config": config or {},
        "extras": extras or {},  # JSON-serializable metadata (floats stay exact)
        "params": {name: _encode_array(p.data) for name, p in module.named_parameters()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def load_checkpoint(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"checkpoint format mismatch: expected {CHECKPOINT_FORMAT!r}, "
            f"found {payload.get('format')!r}"
        )
    payload["params"] = {k: _decode_array(v) for k, v in payload["params"].items()}
    payload.setdefault("extras", {})
    return payload
