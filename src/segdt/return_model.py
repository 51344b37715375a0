"""Twin return-distribution transformers trained as variance-network ensembles.

Each ensemble member owns a pair of causal trunks over the interleaved
(state, action) token stream: the state-conditioned trunk predicts the
return distribution reading at the current state token, the action-
conditioned trunk reading at the previous action token (a learned start
token for the first step).  Members share token embedders within the pair,
differ in initialization and in which trajectories they train on
(Bernoulli data masks), and are combined by exact mixture moments.

``ReturnMemberModel.run`` is a member's one body: the taped ``forward``
(training) and the tape-free ``infer`` run it over ``nn.TAPE`` and
``nn.ARRAY``.  It runs each trunk's last block on the rows its head reads
only (s_1..s_L for the state trunk, start..a_{L-1} for the action trunk),
with the bits, gradients and dropout draws of the every-row call (see
``nn.CausalTransformer`` for the rules that keep them).  Forecasts read one
slot per window, so ``predict_trajectory`` calls ``infer_last``, which skips
the last block's rows no head reads and returns the same bits as
``infer``'s final slot.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import nn, trajlog
from .config import require_steps, require_trainer
from .env import STATE_DIM, ACTION_DIM, norm_actions

log = logging.getLogger(__name__)


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


def predict_trajectories(ensemble, trajs: list) -> list:
    """``ensemble.predict_trajectory`` of each of ``trajs``, in order, over
    ``nn.map_chunks``' workers."""
    return nn.map_chunks(lambda i: ensemble.predict_trajectory(trajs[i].states, trajs[i].actions),
                         len(trajs))


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

    def __post_init__(self):
        require_steps(self, "epochs", "iters_per_epoch")
        require_trainer(self)

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

    @staticmethod
    def _key_mask(mask: np.ndarray) -> np.ndarray:
        """Key mask of [start, s_1, a_1, ..., s_L, a_L] from the step mask."""
        B, L = mask.shape
        key_mask = np.ones((B, 2 * L + 1), dtype=bool)
        key_mask[:, 1::2] = mask                    # s tokens
        key_mask[:, 2::2] = mask                    # a tokens
        return key_mask

    def _tokens(self, ops, states, actions):
        """Interleave [start, s_1, a_1, ..., s_L, a_L] as (B, 2L+1, d) tokens."""
        B, L, _ = np.shape(states)
        d = self.config.embed_dim
        xs = ops.call(self.embed_state, ops.const(states))       # (B, L, d)
        xa = ops.call(self.embed_action, ops.const(actions))     # (B, L, d)
        bos = (ops.param(self.start_token) * ops.const(np.ones((B, 1, 1)))).reshape(B, 1, d)
        stacked = ops.concat([xs.reshape(B, L, 1, d), xa.reshape(B, L, 1, d)], axis=2)
        return ops.concat([bos, stacked.reshape(B, 2 * L, d)], axis=1)

    @staticmethod
    def _heads(ops, out_s, out_a) -> tuple:
        """(mu_s, logvar_s, mu_a, logvar_a) from the heads' (..., 2) outputs.
        The log-variance is soft-bounded to [-5, 5]; zero-init heads still
        give exactly mu=0, log-var=0 at initialization."""
        return (out_s[..., 0], ops.tanh(out_s[..., 1]) * 5.0,
                out_a[..., 0], ops.tanh(out_a[..., 1]) * 5.0)

    def forward(self, states, actions, mask, rng=None):
        """The taped ``run``."""
        return self.run(nn.TAPE, states, actions, mask, rng)

    def run(self, ops, states, actions, mask, rng=None):
        """Both heads over a window batch.

        Returns (mu_s, logvar_s, mu_a, logvar_a), each (B, L): the state head
        reads at token 2i+1 (s_i visible), the action head at token 2i (only
        tokens strictly before s_i visible).
        """
        tokens, key_mask = self._tokens(ops, states, actions), self._key_mask(mask)
        s_rows, a_rows = self._read_rows(np.shape(states)[1])
        hs = ops.call(self.trunk_state, tokens, key_mask, rows=s_rows, rng=rng)   # (B, L, d)
        ha = ops.call(self.trunk_action, tokens, key_mask, rows=a_rows, rng=rng)
        return self._heads(ops, ops.call(self.head_state, hs), ops.call(self.head_action, ha))

    @staticmethod
    def _read_rows(L: int) -> tuple:
        """The token rows the heads read: s_1..s_L for the state head and
        start, a_1..a_{L-1} for the action head."""
        return slice(1, 2 * L, 2), slice(0, 2 * L, 2)

    def infer_last(self, states, actions, mask) -> tuple:
        """``infer``'s four arrays at each window's final slot, as (B,) arrays
        with the same bits, computing only what those slots read.

        Both trunks run their last block on tokens 2L-2 (a_{L-1}, read by the
        action head) and 2L-1 (s_L, read by the state head) only.  Each
        2-wide head then runs on a zero (B, L, d) buffer whose final slot holds
        that row: the bits of a product this narrow depend on its row count
        and on where the row sits, so the heads keep ``infer``'s shape.
        """
        B, L, _ = np.shape(states)
        tokens, key_mask = self._tokens(nn.ARRAY, states, actions), self._key_mask(mask)
        rows = slice(2 * L - 2, 2 * L)
        buf_s = np.zeros((B, L, self.config.embed_dim), dtype=nn.DTYPE)
        buf_a = np.zeros_like(buf_s)
        buf_s[:, -1] = self.trunk_state.infer(tokens, key_mask, rows)[:, 1]
        buf_a[:, -1] = self.trunk_action.infer(tokens, key_mask, rows)[:, 0]
        out = self._heads(nn.ARRAY, self.head_state.infer(buf_s), self.head_action.infer(buf_a))
        return tuple(x[:, -1] for x in out)


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

        Returns float64 arrays of shape (K, T): mu_s, var_s, mu_a, var_a
        (denormalized from the members' float64-cast outputs).
        """
        if states.shape[0] == 0:
            raise ValueError("empty trajectory")
        ws, wa, mask = self._windows(states, actions)
        T = states.shape[0]
        K = self.size
        out = {k: np.empty((K, T)) for k in ("mu_s", "var_s", "mu_a", "var_a")}
        ret = self.returns
        for k, member in enumerate(self.members):
            # each window's final slot is step t
            mu_s, lv_s, mu_a, lv_a = (x.astype(np.float64)
                                      for x in member.infer_last(ws, wa, mask))
            out["mu_s"][k] = ret.inverse(mu_s)
            out["var_s"][k] = ret.inverse_var(np.exp(lv_s))
            out["mu_a"][k] = ret.inverse(mu_a)
            out["var_a"][k] = ret.inverse_var(np.exp(lv_a))
        return out

    # -- persistence -------------------------------------------------------

    SCHEMA_VERSION = "return-ensemble-v2"   # v2: tanh-form GELU
    FILE = "ensemble.npz"

    def save(self, directory) -> None:
        """``FILE`` in ``directory``: member k's parameters prefixed ``k.``."""
        nn.save_checkpoint(
            Path(directory) / self.FILE, self.SCHEMA_VERSION,
            {"config": self.config.to_dict(), "mask_seeds": self.mask_seeds,
             "normalizer": {**self.states.to_dict("state"), **self.returns.to_dict("ret")}},
            {f"{k}.": member for k, member in enumerate(self.members)})

    @classmethod
    def load(cls, directory) -> "ReturnEnsemble":
        def build(meta: dict) -> tuple:
            config, nrm = ReturnModelConfig(**meta["config"]), meta["normalizer"]
            ensemble = cls(config, [ReturnMemberModel(config, np.random.default_rng(0))
                                    for _ in meta["mask_seeds"]],
                           nn.Standardizer.from_dict(nrm, "state"),
                           nn.Standardizer.from_dict(nrm, "ret"), meta["mask_seeds"])
            return ensemble, {f"{k}.": m for k, m in enumerate(ensemble.members)}

        return nn.load_checkpoint(nn.checkpoint_in(directory, cls.FILE), cls.SCHEMA_VERSION,
                                  build)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def split_train_val(trajs: list, val_fraction: float, seed: int):
    idx = np.random.default_rng(seed).permutation(len(trajs))
    n_val = max(1, int(round(val_fraction * len(trajs)))) if val_fraction > 0 else 0
    val_idx = set(idx[:n_val].tolist())
    train = [t for i, t in enumerate(trajs) if i not in val_idx]
    val = [t for i, t in enumerate(trajs) if i in val_idx]
    return train, val


def _heldout_nll(member: ReturnMemberModel | None, batches: list) -> float:
    """Masked mean Gaussian NLL (constants dropped) over fixed val batches.
    ``member=None`` scores an untrained member: its zero-initialised heads
    forecast exactly mu = 0 and log-var = 0 at every slot."""
    total, count = 0.0, 0.0
    for b in batches:
        if member is None:
            zero = np.zeros(b["mask"].shape)
            heads = (zero, zero, zero, zero)
        else:
            heads = member.infer(b["states"], b["actions"], b["mask"])
        for mu, lv in (heads[:2], heads[2:]):
            head_total, head_count = nn.masked_nll_sum(mu, lv, b["returns"], b["mask"])
            total += head_total
            count += head_count
    return total / max(count, 1.0)


def train_return_models(trajs: list, config: ReturnModelConfig,
                        progress: bool = False) -> tuple:
    """Train the K-member twin ensemble; returns (ensemble, history).

    ``trajs`` must carry return annotations for ``config.discount``.
    ``history`` holds per-member, per-epoch held-out NLL curves.  Their
    leading (untrained) entry is one value, computed once before the members
    train: zero-initialised heads forecast mu = 0 and log-var = 0 whatever
    the trunks compute, so every member's untrained NLL is that of zero
    forecasts on the same validation batches, bit for bit.
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
        b = trajlog.sample_window(ts, config.seq_length, config.batch_size, rng,
                                  columns={"returns": rets})
        b["states"] = states(b["states"]) * b["mask"][..., None]
        b["actions"] = norm_actions(b["actions"]) * b["mask"][..., None]
        return b

    val_batches = [prep(val_source, val_returns, val_rng) for _ in range(4)]
    untrained = _heldout_nll(None, val_batches)

    def train_member(k: int) -> tuple:
        mseed = mask_seeds[k]
        mrng = np.random.default_rng(mseed)
        include = mrng.random(len(train)) < config.data_mask_prob
        if not include.any():
            include[int(mrng.integers(len(train)))] = True
        subset = [t for t, inc in zip(train, include) if inc]
        subset_returns = norm_cols(subset)

        member = ReturnMemberModel(config, np.random.default_rng(mseed + 1))
        drop_rng = np.random.default_rng(mseed + 2)
        batch_rng = np.random.default_rng(mseed + 3)

        def loss_of(b):
            mu_s, lv_s, mu_a, lv_a = member.forward(
                b["states"], b["actions"], b["mask"], drop_rng)
            return (nn.gaussian_nll(mu_s, lv_s, b["returns"], b["mask"])
                    + nn.gaussian_nll(mu_a, lv_a, b["returns"], b["mask"]))

        def heldout(epoch: int, _) -> float:
            nll = _heldout_nll(member, val_batches)
            if progress:
                log.info("member %d epoch %d held-out nll %.4f", k, epoch, nll)
            return nll

        curve = nn.fit(member, lambda: prep(subset, subset_returns, batch_rng), loss_of,
                       heldout, epochs=config.epochs, iters=config.iters_per_epoch,
                       lr=config.learning_rate, who=f"member {k}",
                       weight_decay=config.weight_decay)
        return member.state_dict(), [untrained, *curve]

    members, history = [], []
    for state, curve in nn.map_members(train_member, config.ensemble_size):
        member = ReturnMemberModel(config, np.random.default_rng(0))
        member.load_state_dict(state)
        members.append(member)
        history.append(curve)

    ensemble = ReturnEnsemble(config, members, states, returns, mask_seeds)
    return ensemble, history
