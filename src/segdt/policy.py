"""Truncated-return-conditioned sequence policy and its DT / BC baselines.

All three policy kinds share one causal trunk over per-step token groups:

* ``unrest`` — (return, state, action) tokens where the return token is a
  truncated-return embedding plus a learned return-span embedding; uncertain
  steps route to a dedicated dummy embedding.  Optionally the trunk output is
  concatenated with a coarse one-hot encoding of the global return before the
  action head.
* ``dt``     — (return, state, action) tokens conditioned on the global
  return-to-go only.
* ``bc``     — (state, action) tokens; no return conditioning at all.

Actions are regressed with MSE in a normalized action space and bounded
through tanh.  ``SequencePolicyModel.run`` is the model's one body: the taped
``forward`` (training) and the tape-free ``infer`` (``Policy.act``) run it
over ``nn.TAPE`` and ``nn.ARRAY``.  Both read only each step's state token, so
the trunk's last block runs on those rows alone, with the bits, gradients
and dropout draws of the every-row call (see ``nn.CausalTransformer``).

At inference a ``Context`` holds an episode's last steps as one window's
arrays, and ``Policy.act`` decides its final step.  The planner and both
baselines keep their window in one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict

import numpy as np

from . import nn, trajlog
from .autodiff import Tensor
from .config import require_steps, require_trainer
from .env import ACTION_DIM, STATE_DIM, denorm_action, norm_actions

log = logging.getLogger(__name__)

KINDS = ("unrest", "dt", "bc")


def discretize_global_return(R: float, bounds: tuple, bins: int = 50) -> np.ndarray:
    """Coarse uniform one-hot binning; out-of-range values clamp to edge bins."""
    lo, hi = bounds
    if not np.isfinite(R):
        raise ValueError(f"global return must be finite, got {R}")
    if not lo < hi:
        raise ValueError(f"degenerate bounds ({lo}, {hi})")
    idx = int(np.clip((R - lo) / (hi - lo) * bins, 0, bins - 1))
    out = np.zeros(bins)
    out[idx] = 1.0
    return out


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "unrest"
    n_layers: int = 2
    n_heads: int = 4
    embed_dim: int = 64
    seq_length: int = 10      # steps per sampled window
    dropout: float = 0.1
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 64
    epochs: int = 6
    iters_per_epoch: int = 60
    use_return_span: bool = True     # ablation: False drops the span embedding
    use_global_return: bool = False  # concat one-hot global return before head
    global_bins: int = 50
    h_max: int = 130                 # span-embedding table covers [0, h_max]
    seed: int = 0

    # paper-scale reference values: n_layers=4, n_heads=8, embed_dim=128,
    # batch_size=256, learning_rate=1e-4, global_bins=50

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        require_steps(self, "epochs", "iters_per_epoch")
        require_trainer(self)

    @property
    def tokens_per_step(self) -> int:
        return 2 if self.kind == "bc" else 3

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PolicyNormalizer:
    states: nn.Standardizer
    rh: nn.Standardizer
    R: nn.Standardizer
    R_bounds: tuple   # empirical global-return range for discretization

    @classmethod
    def fit(cls, segs: list) -> "PolicyNormalizer":
        states = np.concatenate([s.traj.states for s in segs])
        rh = np.concatenate([s.r_h[s.h > 0] for s in segs])
        if rh.size == 0:
            rh = np.zeros(1)
        R = np.concatenate([s.global_returns for s in segs])
        return cls(nn.Standardizer.fit(states), nn.Standardizer.fit(rh),
                   nn.Standardizer.fit(R),
                   R_bounds=(float(R.min()), float(max(R.max(), R.min() + 1e-6))))

    def norm_states(self, s):
        return self.states(s)

    norm_actions = staticmethod(norm_actions)   # the one action scaling, in env
    denorm_action = staticmethod(denorm_action)

    def norm_rh(self, r):
        return self.rh(r)

    def norm_R(self, r):
        return self.R(r)

    def to_dict(self) -> dict:
        return {**self.states.to_dict("state"), **self.rh.to_dict("rh"),
                **self.R.to_dict("R"), "R_bounds": list(self.R_bounds)}

    @classmethod
    def from_dict(cls, d: dict) -> "PolicyNormalizer":
        return cls(nn.Standardizer.from_dict(d, "state"), nn.Standardizer.from_dict(d, "rh"),
                   nn.Standardizer.from_dict(d, "R"), tuple(d["R_bounds"]))


class Context:
    """The last ``length`` inference steps as one window's arrays: ``states``,
    ``actions`` (zero for the step being decided), ``h`` (0 = dummy
    condition), ``r_h`` and ``R``."""

    def __init__(self, length: int):
        if length < 1:
            raise ValueError(f"history_length must be >= 1, got {length}")
        self.length = length
        self.states = np.zeros((0, STATE_DIM))
        self.actions = np.zeros((0, ACTION_DIM))
        self.h = np.zeros(0, dtype=np.int64)
        self.r_h = np.zeros(0)
        self.R = np.zeros(0)
        self.deciding = False

    def __len__(self) -> int:
        return len(self.h)

    def push(self, state, h: int = 0, r_h: float = 0.0, R: float = 0.0) -> None:
        """Add the step being decided; the oldest step past ``length`` goes."""
        if self.deciding:
            raise ValueError("only the final context step may lack an action")
        keep = slice(-self.length, None)
        self.states = np.concatenate([self.states, [state]])[keep]
        self.actions = np.concatenate([self.actions, np.zeros((1, ACTION_DIM))])[keep]
        self.h = np.append(self.h, h)[keep]
        self.r_h = np.append(self.r_h, r_h)[keep]
        self.R = np.append(self.R, R)[keep]
        self.deciding = True

    def record(self, action) -> None:
        """Set the action taken at the step being decided."""
        self.actions[-1] = action
        self.deciding = False


class SequencePolicyModel(nn.Module):
    def __init__(self, config: PolicyConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        d = config.embed_dim
        self.max_tokens = config.tokens_per_step * config.seq_length
        self.embed_state = nn.Linear(STATE_DIM, d, rng)
        self.embed_action = nn.Linear(ACTION_DIM, d, rng)
        if config.kind == "unrest":
            self.embed_rh = nn.Linear(1, d, rng)
            self.embed_h = nn.Embedding(config.h_max + 1, d, rng)
            self.dummy_emb = nn.Parameter(rng.normal(0.0, 0.02, size=d))
        elif config.kind == "dt":
            self.embed_R = nn.Linear(1, d, rng)
        self.trunk = nn.CausalTransformer(d, config.n_heads, config.n_layers,
                                          self.max_tokens, rng, config.dropout)
        head_in = d + (config.global_bins
                       if config.kind == "unrest" and config.use_global_return else 0)
        self.head = nn.Linear(head_in, ACTION_DIM, rng)

    def _return_tokens(self, ops, batch):
        """(B, L, d) return tokens for kinds that carry them."""
        cfg = self.config
        B, L = batch["h"].shape
        if cfg.kind == "dt":
            return ops.call(self.embed_R, ops.const(batch["R"][..., None]))
        tok = ops.call(self.embed_rh, ops.const(batch["r_h"][..., None]))
        if cfg.use_return_span:
            tok = tok + ops.call(self.embed_h, np.clip(batch["h"], 0, cfg.h_max))
        dummy = (batch["h"] == 0).astype(nn.DTYPE)[..., None]   # (B, L, 1)
        dummy_tok = ops.param(self.dummy_emb) * ops.const(np.ones((B, L, 1)))
        return tok * ops.const(1.0 - dummy) + dummy_tok * ops.const(dummy)

    def _layout(self, batch) -> tuple:
        """Token key mask (B, per * L) and the state-token positions, a slice:
        token per-2 of each step's group."""
        per = self.config.tokens_per_step
        return np.repeat(batch["mask"], per, axis=1), slice(per - 2, None, per)

    def _global_onehots(self, batch) -> np.ndarray | None:
        """(B, L, global_bins) one-hot global returns, or None when unused."""
        cfg = self.config
        if not (cfg.kind == "unrest" and cfg.use_global_return):
            return None
        B, L = batch["R_raw"].shape
        return np.stack([
            np.stack([discretize_global_return(batch["R_raw"][b, t],
                                               batch["R_bounds"], cfg.global_bins)
                      for t in range(L)])
            for b in range(B)])

    def forward(self, batch, rng=None) -> Tensor:
        """The taped ``run``."""
        return self.run(nn.TAPE, batch, rng)

    def run(self, ops, batch, rng=None):
        """Predicted actions (B, L, 2) in normalized space, tanh-bounded.

        ``batch`` carries normalized states/actions/r_h/R, integer h, raw
        global returns (``R_raw``) for the one-hot path, and a boolean mask.
        """
        cfg = self.config
        states, actions = batch["states"], batch["actions"]
        B, L, _ = states.shape
        d = cfg.embed_dim
        per = cfg.tokens_per_step
        xs = ops.call(self.embed_state, ops.const(states)).reshape(B, L, 1, d)
        xa = ops.call(self.embed_action, ops.const(actions)).reshape(B, L, 1, d)
        if per == 3:
            xr = self._return_tokens(ops, batch).reshape(B, L, 1, d)
            tokens = ops.concat([xr, xs, xa], axis=2).reshape(B, per * L, d)
        else:
            tokens = ops.concat([xs, xa], axis=2).reshape(B, per * L, d)
        key_mask, s_rows = self._layout(batch)
        feat = ops.call(self.trunk, tokens, key_mask, rows=s_rows, rng=rng)   # (B, L, d)
        onehots = self._global_onehots(batch)
        if onehots is not None:
            feat = ops.concat([feat, ops.const(onehots)], axis=2)
        return ops.tanh(ops.call(self.head, feat))


class Policy:
    """Trained policy bundle: model + config + normalization, ready to act."""

    SCHEMA_VERSION = "policy-v2"   # v2: tanh-form GELU

    def __init__(self, model: SequencePolicyModel, config: PolicyConfig,
                 normalizer: PolicyNormalizer):
        self.model = model
        self.config = config
        self.normalizer = normalizer
        model.eval()

    @property
    def kind(self) -> str:
        return self.config.kind

    def act(self, context: Context) -> np.ndarray:
        """Deterministic action for the context's final step, in raw units,
        as float64."""
        cfg, nrm = self.config, self.normalizer
        L = len(context)
        if not 1 <= L <= cfg.seq_length:
            raise ValueError(f"context of {L} steps outside [1, {cfg.seq_length}]")
        pred = self.model.infer({
            "states": nrm.norm_states(context.states)[None],
            "actions": nrm.norm_actions(context.actions)[None],
            "h": context.h[None],
            "r_h": nrm.norm_rh(context.r_h[None]),
            "R": nrm.norm_R(context.R[None]),
            "R_raw": context.R[None],
            "R_bounds": nrm.R_bounds,
            "mask": np.ones((1, L), dtype=bool),
        })
        return nrm.denorm_action(pred[0, -1].astype(np.float64))

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        nn.save_checkpoint(path, self.SCHEMA_VERSION,
                           {"config": self.config.to_dict(),
                            "normalizer": self.normalizer.to_dict()},
                           {"": self.model})

    @classmethod
    def load(cls, path) -> "Policy":
        def build(meta: dict) -> tuple:
            config = PolicyConfig(**meta["config"])
            policy = cls(SequencePolicyModel(config, np.random.default_rng(0)), config,
                         PolicyNormalizer.from_dict(meta["normalizer"]))
            return policy, {"": policy.model}

        return nn.load_checkpoint(path, cls.SCHEMA_VERSION, build)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train_policy(segs: list, config: PolicyConfig, progress: bool = False):
    """Train one policy on a segmented dataset; returns (Policy, loss curve).

    The loss curve is the per-epoch mean masked action MSE; non-finite loss
    aborts with diagnostics.
    """
    if not segs:
        raise ValueError("empty segmented dataset")
    normalizer = PolicyNormalizer.fit(segs)
    trajs = [s.traj for s in segs]
    columns = {
        "h": [s.h for s in segs],
        "r_h": [s.r_h for s in segs],
        "R_raw": [s.global_returns for s in segs],
    }
    model = SequencePolicyModel(config, np.random.default_rng(config.seed))
    batch_rng = np.random.default_rng(config.seed + 1)
    drop_rng = np.random.default_rng(config.seed + 2)

    def batch():
        b = trajlog.sample_window(trajs, config.seq_length, config.batch_size,
                                  batch_rng, columns=columns)
        b["actions"] = normalizer.norm_actions(b["actions"]) * b["mask"][..., None]
        b["states"] = normalizer.norm_states(b["states"]) * b["mask"][..., None]
        b["r_h"] = normalizer.norm_rh(b["r_h"])
        b["R"] = normalizer.norm_R(b["R_raw"])
        b["R_bounds"] = normalizer.R_bounds
        return b

    def mean_mse(epoch: int, losses: list) -> float:
        mse = float(np.mean(losses))
        if progress:
            log.info("policy %s epoch %d train mse %.5f", config.kind, epoch, mse)
        return mse

    curve = nn.fit(model, batch,
                   lambda b: nn.mse_loss(model.forward(b, drop_rng), b["actions"], b["mask"]),
                   mean_mse, epochs=config.epochs, iters=config.iters_per_epoch,
                   lr=config.learning_rate, who=f"policy {config.kind}",
                   weight_decay=config.weight_decay)
    return Policy(model, config, normalizer), curve
