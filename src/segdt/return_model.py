"""Twin return-distribution transformers trained as variance-network ensembles.

Each ensemble member owns a pair of causal trunks over the interleaved
(state, action) token stream: the state-conditioned trunk predicts the
return distribution reading at the current state token, the action-
conditioned trunk reading at the previous action token (a learned start
token for the first step).  Members share token embedders within the pair,
differ in initialization and in which trajectories they train on
(Bernoulli data masks), and are combined by exact mixture moments.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import nn, trajlog
from .autodiff import Tensor, no_grad, concat
from .env import STATE_DIM, ACTION_DIM, norm_actions

log = logging.getLogger(__name__)


from .nn import TrainingDiverged  # noqa: F401  (re-exported for callers)


@dataclass(frozen=True)
class ReturnDistribution:
    mu: float
    var: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.var) and self.var > 0):
            raise ValueError(f"invalid return distribution: mu={self.mu}, var={self.var}")


def _require_gaussians(mu: np.ndarray, var: np.ndarray) -> None:
    """ValueError naming the first entry that is not a valid Gaussian."""
    bad = ~(np.isfinite(mu) & np.isfinite(var) & (var > 0))
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"invalid return distribution at {tuple(map(int, at))}: "
                         f"mu={mu[at]}, var={var[at]}")


def mixture_moments(mu: np.ndarray, var: np.ndarray, floor=None) -> tuple:
    """Collapse K equal-weight Gaussian members to their mixture mean/variance
    at every step: ``mu`` and ``var`` are (K, T), the results are (T,).

    mu = mean_k mu_k; var = mean_k (var_k + mu_k^2) - mu^2, floored at
    ``floor``, by default min_k var_k * 1e-12 + 1e-300 against float
    cancellation when all members coincide.  Each step's K members are
    summed in the order a 1-D mean over them uses, and the squared mixture
    mean goes through pow() as a scalar ``**2`` does, so every step equals
    the scalar formula bit for bit.
    """
    mu = np.asarray(mu, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if mu.ndim != 2 or mu.shape != var.shape or mu.shape[0] == 0:
        raise ValueError(f"mixture_moments needs matching (K, T) arrays with K >= 1, "
                         f"got {mu.shape} and {var.shape}")
    _require_gaussians(mu, var)
    # (T, K) rows reduce like a 1-D mean; axis 0 of (K, T) does not for K >= 8
    mix_mu = np.ascontiguousarray(mu.T).mean(axis=1)
    mix_var = np.ascontiguousarray((var + mu**2).T).mean(axis=1) - np.float_power(mix_mu, 2)
    if floor is None:
        floor = var.min(axis=0) * 1e-12 + 1e-300
    mix_var = np.maximum(mix_var, floor)
    _require_gaussians(mix_mu, mix_var)
    return mix_mu, mix_var


def ensemble_moments(members: list) -> ReturnDistribution:
    """``mixture_moments`` of one step's member distributions."""
    if not members:
        raise ValueError("ensemble_moments requires at least one member")
    mu, var = mixture_moments([[m.mu] for m in members], [[m.var] for m in members])
    return ReturnDistribution(float(mu[0]), float(var[0]))


# ---------------------------------------------------------------------------
# Member model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnModelConfig:
    n_layers: int = 2
    n_heads: int = 4
    embed_dim: int = 64
    seq_length: int = 10      # steps per sampled window
    dropout: float = 0.1
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 64
    ensemble_size: int = 5
    data_mask_prob: float = 0.6
    discount: float = 0.95
    epochs: int = 6
    iters_per_epoch: int = 60
    val_fraction: float = 0.1
    seed: int = 0

    # paper-scale reference values: n_layers=4, n_heads=8, embed_dim=128,
    # batch_size=256, learning_rate=1e-4, ensemble_size=5

    def to_dict(self) -> dict:
        return asdict(self)


class ReturnMemberModel(nn.Module):
    """One ensemble member: shared embedders, twin trunks, variance heads."""

    def __init__(self, config: ReturnModelConfig, rng: np.random.Generator):
        super().__init__()
        d = config.embed_dim
        self.config = config
        self.max_tokens = 2 * config.seq_length + 1
        self.embed_state = nn.Linear(STATE_DIM, d, rng)
        self.embed_action = nn.Linear(ACTION_DIM, d, rng)
        self.start_token = nn.Parameter(rng.normal(0.0, 0.02, size=d))
        self.trunk_state = nn.CausalTransformer(d, config.n_heads, config.n_layers,
                                                self.max_tokens, rng, config.dropout)
        self.trunk_action = nn.CausalTransformer(d, config.n_heads, config.n_layers,
                                                 self.max_tokens, rng, config.dropout)
        self.head_state = nn.Linear(d, 2, rng, zero_init=True)
        self.head_action = nn.Linear(d, 2, rng, zero_init=True)

    def _tokens(self, states: np.ndarray, actions: np.ndarray, mask: np.ndarray):
        """Interleave [start, s_1, a_1, ..., s_L, a_L]; returns tokens + key mask."""
        B, L, _ = states.shape
        d = self.config.embed_dim
        xs = self.embed_state(Tensor(states))       # (B, L, d)
        xa = self.embed_action(Tensor(actions))     # (B, L, d)
        bos = (self.start_token * Tensor(np.ones((B, 1, 1)))).reshape(B, 1, d)
        stacked = concat([xs.reshape(B, L, 1, d), xa.reshape(B, L, 1, d)], axis=2)
        inter = stacked.reshape(B, 2 * L, d)
        tokens = concat([bos, inter], axis=1)       # (B, 2L+1, d)
        key_mask = np.ones((B, 2 * L + 1), dtype=bool)
        key_mask[:, 1::2] = mask                    # s tokens
        key_mask[:, 2::2] = mask                    # a tokens
        return tokens, key_mask

    def forward(self, states, actions, mask, rng=None):
        """Both heads over a window batch.

        Returns (mu_s, logvar_s, mu_a, logvar_a), each (B, L): the state head
        reads at token 2i+1 (s_i visible), the action head at token 2i (only
        tokens strictly before s_i visible).
        """
        B, L, _ = states.shape
        tokens, key_mask = self._tokens(states, actions, mask)
        hs = self.trunk_state(tokens, key_mask, rng)
        ha = self.trunk_action(tokens, key_mask, rng)
        s_idx = 1 + 2 * np.arange(L)
        a_idx = 2 * np.arange(L)
        out_s = self.head_state(hs[:, s_idx])   # (B, L, 2)
        out_a = self.head_action(ha[:, a_idx])  # (B, L, 2)
        # log-variance is soft-bounded to [-5, 5]; zero-init heads still give
        # exactly mu=0, log-var=0 at initialization
        return (out_s[:, :, 0], out_s[:, :, 1].tanh() * 5.0,
                out_a[:, :, 0], out_a[:, :, 1].tanh() * 5.0)


# ---------------------------------------------------------------------------
# Ensemble
# ---------------------------------------------------------------------------


class ReturnEnsemble:
    """K member pairs plus their state and return standardizers; immutable
    after training."""

    def __init__(self, config: ReturnModelConfig, members: list,
                 states: nn.Standardizer, returns: nn.Standardizer, mask_seeds: list):
        self.config = config
        self.members = members
        self.states = states
        self.returns = returns
        self.mask_seeds = mask_seeds
        for m in members:
            m.eval()

    @property
    def size(self) -> int:
        return len(self.members)

    # -- inference ---------------------------------------------------------

    def _windows(self, states: np.ndarray, actions: np.ndarray):
        """One left-padded window per step t, ending at t."""
        T = states.shape[0]
        pad = self.config.seq_length - 1
        # row t of the zero-padded arrays is step t - pad
        rows = np.arange(T)[:, None] + np.arange(pad + 1)
        ws = np.concatenate([np.zeros((pad, STATE_DIM)), self.states(states)])[rows]
        wa = np.concatenate([np.zeros((pad, ACTION_DIM)), norm_actions(actions)])[rows]
        mask = rows >= pad
        return ws, wa, mask

    def predict_trajectory(self, states: np.ndarray, actions: np.ndarray) -> dict:
        """Per-member, per-step distributions for a whole trajectory.

        Returns arrays of shape (K, T): mu_s, var_s, mu_a, var_a
        (denormalized).
        """
        if states.shape[0] == 0:
            raise ValueError("empty trajectory")
        ws, wa, mask = self._windows(states, actions)
        T = states.shape[0]
        K = self.size
        out = {k: np.empty((K, T)) for k in ("mu_s", "var_s", "mu_a", "var_a")}
        ret = self.returns
        with no_grad():
            for k, member in enumerate(self.members):
                mu_s, lv_s, mu_a, lv_a = member.forward(ws, wa, mask)
                last = -1  # each window's final slot is step t
                out["mu_s"][k] = ret.inverse(mu_s.data[:, last])
                out["var_s"][k] = np.exp(lv_s.data[:, last]) * ret.std**2
                out["mu_a"][k] = ret.inverse(mu_a.data[:, last])
                out["var_a"][k] = np.exp(lv_a.data[:, last]) * ret.std**2
        return out

    # -- persistence -------------------------------------------------------

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        cfg = self.config.to_dict()
        manifest = {
            "kind": "return-ensemble",
            "ensemble_size": self.size,
            "mask_seeds": self.mask_seeds,
            "config": cfg,
            "config_hash": hashlib.sha256(
                json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
            "normalizer": {**self.states.to_dict("state"), **self.returns.to_dict("ret")},
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
        for k, member in enumerate(self.members):
            nn.save_checkpoint(directory / f"member_{k}.json", member,
                               arch={"role": "return-pair", "index": k}, config=cfg)

    @classmethod
    def load(cls, directory) -> "ReturnEnsemble":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        if manifest.get("kind") != "return-ensemble":
            raise ValueError(f"{directory}: not a return-ensemble checkpoint")
        config = ReturnModelConfig(**manifest["config"])
        members = []
        for k in range(manifest["ensemble_size"]):
            payload = nn.load_checkpoint(directory / f"member_{k}.json")
            member = ReturnMemberModel(config, np.random.default_rng(0))
            member.load_state_dict(payload["params"])
            members.append(member)
        nrm = manifest["normalizer"]
        return cls(config, members, nn.Standardizer.from_dict(nrm, "state"),
                   nn.Standardizer.from_dict(nrm, "ret"), manifest["mask_seeds"])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _window_batch(trajs, returns_norm, config, rng):
    batch = trajlog.sample_window(
        trajs, config.seq_length, config.batch_size, rng,
        columns={"returns": returns_norm},
    )
    return batch


def split_train_val(trajs: list, val_fraction: float, seed: int):
    idx = np.random.default_rng(seed).permutation(len(trajs))
    n_val = max(1, int(round(val_fraction * len(trajs)))) if val_fraction > 0 else 0
    val_idx = set(idx[:n_val].tolist())
    train = [t for i, t in enumerate(trajs) if i not in val_idx]
    val = [t for i, t in enumerate(trajs) if i in val_idx]
    return train, val


def _heldout_nll(member: ReturnMemberModel, batches: list) -> float:
    """Masked mean Gaussian NLL (constants dropped) over fixed val batches."""
    total, count = 0.0, 0.0
    with no_grad():
        for b in batches:
            mu_s, lv_s, mu_a, lv_a = member.forward(b["states"], b["actions"], b["mask"])
            m = b["mask"].astype(float)
            for mu, lv in ((mu_s, lv_s), (mu_a, lv_a)):
                per = (mu.data - b["returns"]) ** 2 * np.exp(-lv.data) + lv.data
                total += (per * m).sum()
                count += m.sum()
    return total / max(count, 1.0)


def train_return_models(trajs: list, config: ReturnModelConfig,
                        progress: bool = False) -> tuple:
    """Train the K-member twin ensemble; returns (ensemble, history).

    ``trajs`` must carry return annotations for ``config.discount``.
    ``history`` holds per-member, per-epoch held-out NLL curves.
    """
    train, val = split_train_val(trajs, config.val_fraction, config.seed)
    states = nn.Standardizer.fit(np.concatenate([t.states for t in train]))
    returns = nn.Standardizer.fit(
        np.concatenate([t.returns_for(config.discount) for t in train]))

    def norm_cols(ts):
        return [returns(t.returns_for(config.discount)) for t in ts]

    master = np.random.default_rng(config.seed)
    mask_seeds = [int(master.integers(2**31)) for _ in range(config.ensemble_size)]
    val_rng = np.random.default_rng(config.seed + 999)
    val_returns = norm_cols(val) if val else norm_cols(train)
    val_source = val if val else train

    def prep(ts, rets, rng):
        b = _window_batch(ts, rets, config, rng)
        b["states"] = states(b["states"]) * b["mask"][..., None]
        b["actions"] = norm_actions(b["actions"]) * b["mask"][..., None]
        return b

    val_batches = [prep(val_source, val_returns, val_rng) for _ in range(4)]

    def train_member(k: int) -> tuple:
        mseed = mask_seeds[k]
        mrng = np.random.default_rng(mseed)
        include = mrng.random(len(train)) < config.data_mask_prob
        if not include.any():
            include[int(mrng.integers(len(train)))] = True
        subset = [t for t, inc in zip(train, include) if inc]
        subset_returns = norm_cols(subset)

        member = ReturnMemberModel(config, np.random.default_rng(mseed + 1))
        opt = nn.AdamW(member.parameters(), lr=config.learning_rate,
                       weight_decay=config.weight_decay)
        drop_rng = np.random.default_rng(mseed + 2)
        batch_rng = np.random.default_rng(mseed + 3)
        curve = [_heldout_nll(member.eval(), val_batches)]  # epoch 0 = untrained
        member.train()
        for epoch in range(config.epochs):
            for it in range(config.iters_per_epoch):
                b = prep(subset, subset_returns, batch_rng)
                mu_s, lv_s, mu_a, lv_a = member.forward(
                    b["states"], b["actions"], b["mask"], drop_rng)
                loss = (nn.gaussian_nll(mu_s, lv_s, b["returns"], b["mask"])
                        + nn.gaussian_nll(mu_a, lv_a, b["returns"], b["mask"]))
                if not np.isfinite(loss.item()):
                    raise TrainingDiverged(
                        f"member {k}: non-finite loss {loss.item()} at "
                        f"epoch {epoch}, iter {it}")
                opt.zero_grad()
                loss.backward()
                opt.step()
            member.eval()
            curve.append(_heldout_nll(member, val_batches))
            member.train()
            if progress:
                log.info("member %d epoch %d held-out nll %.4f", k, epoch, curve[-1])
        return member.state_dict(), curve

    members, history = [], []
    for state, curve in nn.map_members(train_member, config.ensemble_size):
        member = ReturnMemberModel(config, np.random.default_rng(0))
        member.load_state_dict(state)
        members.append(member)
        history.append(curve)

    ensemble = ReturnEnsemble(config, members, states, returns, mask_seeds)
    return ensemble, history
