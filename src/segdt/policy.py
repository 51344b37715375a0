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
through tanh.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict

import numpy as np

from . import nn, trajlog
from .autodiff import Tensor, no_grad, concat
from .env import ACTION_DIM, STATE_DIM, denorm_action, norm_actions
from .nn import TrainingDiverged

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


@dataclass
class PolicyStep:
    """One inference-time context step; ``action`` is None for the current step."""
    state: np.ndarray
    action: np.ndarray | None = None
    h: int = 0               # 0 = dummy condition
    r_h: float = 0.0
    R: float = 0.0


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

    def _return_tokens(self, batch) -> Tensor:
        """(B, L, d) return tokens for kinds that carry them."""
        cfg = self.config
        B, L = batch["h"].shape
        d = cfg.embed_dim
        if cfg.kind == "dt":
            return self.embed_R(Tensor(batch["R"][..., None]))
        tok = self.embed_rh(Tensor(batch["r_h"][..., None]))
        if cfg.use_return_span:
            tok = tok + self.embed_h(np.clip(batch["h"], 0, cfg.h_max))
        dummy = (batch["h"] == 0).astype(np.float64)[..., None]   # (B, L, 1)
        dummy_tok = self.dummy_emb * Tensor(np.ones((B, L, 1)))
        return tok * Tensor(1.0 - dummy) + dummy_tok * Tensor(dummy)

    def forward(self, batch, rng=None) -> Tensor:
        """Predicted actions (B, L, 2) in normalized space, tanh-bounded.

        ``batch`` carries normalized states/actions/r_h/R, integer h, raw
        global returns (``R_raw``) for the one-hot path, and a boolean mask.
        """
        cfg = self.config
        states, actions, mask = batch["states"], batch["actions"], batch["mask"]
        B, L, _ = states.shape
        d = cfg.embed_dim
        per = cfg.tokens_per_step
        xs = self.embed_state(Tensor(states)).reshape(B, L, 1, d)
        xa = self.embed_action(Tensor(actions)).reshape(B, L, 1, d)
        if per == 3:
            xr = self._return_tokens(batch).reshape(B, L, 1, d)
            tokens = concat([xr, xs, xa], axis=2).reshape(B, per * L, d)
        else:
            tokens = concat([xs, xa], axis=2).reshape(B, per * L, d)
        key_mask = np.repeat(mask, per, axis=1)
        hidden = self.trunk(tokens, key_mask, rng)
        s_idx = per * np.arange(L) + (per - 2)   # state-token positions
        feat = hidden[:, s_idx]                  # (B, L, d)
        if cfg.kind == "unrest" and cfg.use_global_return:
            onehots = np.stack([
                np.stack([discretize_global_return(batch["R_raw"][b, t],
                                                   batch["R_bounds"], cfg.global_bins)
                          for t in range(L)])
                for b in range(B)])
            feat = concat([feat, Tensor(onehots)], axis=2)
        return self.head(feat).tanh()


class Policy:
    """Trained policy bundle: model + config + normalization, ready to act."""

    CHECKPOINT_ARCH = "sequence-policy"

    def __init__(self, model: SequencePolicyModel, config: PolicyConfig,
                 normalizer: PolicyNormalizer):
        self.model = model
        self.config = config
        self.normalizer = normalizer
        model.eval()

    @property
    def kind(self) -> str:
        return self.config.kind

    def _batch_from_steps(self, steps: list) -> dict:
        cfg, nrm = self.config, self.normalizer
        L = len(steps)
        if not 1 <= L <= cfg.seq_length:
            raise ValueError(f"context of {L} steps outside [1, {cfg.seq_length}]")
        states = np.stack([s.state for s in steps])
        actions = np.stack([
            s.action if s.action is not None else np.zeros(ACTION_DIM)
            for s in steps])
        if any(s.action is None for s in steps[:-1]):
            raise ValueError("only the final context step may lack an action")
        return {
            "states": nrm.norm_states(states)[None],
            "actions": nrm.norm_actions(actions)[None],
            "h": np.array([[s.h for s in steps]]),
            "r_h": nrm.norm_rh(np.array([[s.r_h for s in steps]])),
            "R": nrm.norm_R(np.array([[s.R for s in steps]])),
            "R_raw": np.array([[s.R for s in steps]]),
            "R_bounds": nrm.R_bounds,
            "mask": np.ones((1, L), dtype=bool),
        }

    def act(self, steps: list) -> np.ndarray:
        """Deterministic action for the final context step, in raw units."""
        batch = self._batch_from_steps(steps)
        with no_grad():
            pred = self.model.forward(batch)
        return self.normalizer.denorm_action(pred.data[0, -1])

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        nn.save_checkpoint(
            path, self.model,
            arch={"family": self.CHECKPOINT_ARCH, "kind": self.kind},
            config=self.config.to_dict(),
            extras={"normalizer": self.normalizer.to_dict()},
        )

    @classmethod
    def load(cls, path) -> "Policy":
        payload = nn.load_checkpoint(path)
        if payload["arch"].get("family") != cls.CHECKPOINT_ARCH:
            raise ValueError(f"{path}: not a {cls.CHECKPOINT_ARCH} checkpoint")
        config = PolicyConfig(**payload["config"])
        model = SequencePolicyModel(config, np.random.default_rng(0))
        model.load_state_dict(payload["params"])
        return cls(model, config, PolicyNormalizer.from_dict(payload["extras"]["normalizer"]))


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
    opt = nn.AdamW(model.parameters(), lr=config.learning_rate,
                   weight_decay=config.weight_decay)
    batch_rng = np.random.default_rng(config.seed + 1)
    drop_rng = np.random.default_rng(config.seed + 2)
    curve = []
    model.train()
    for epoch in range(config.epochs):
        losses = []
        for it in range(config.iters_per_epoch):
            b = trajlog.sample_window(trajs, config.seq_length, config.batch_size,
                                      batch_rng, columns=columns)
            target = normalizer.norm_actions(b["actions"]) * b["mask"][..., None]
            b["states"] = normalizer.norm_states(b["states"]) * b["mask"][..., None]
            b["actions"] = target
            b["r_h"] = normalizer.norm_rh(b["r_h"])
            b["R"] = normalizer.norm_R(b["R_raw"])
            b["R_bounds"] = normalizer.R_bounds
            pred = model.forward(b, drop_rng)
            loss = nn.mse_loss(pred, target, b["mask"])
            if not np.isfinite(loss.item()):
                raise TrainingDiverged(
                    f"policy {config.kind}: non-finite loss {loss.item()} at "
                    f"epoch {epoch}, iter {it}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        curve.append(float(np.mean(losses)))
        if progress:
            log.info("policy %s epoch %d train mse %.5f", config.kind, epoch, curve[-1])
    model.eval()
    return Policy(model, config, normalizer), curve
