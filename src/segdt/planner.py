"""Inference-time planning loop with uncertainty-gated conditioning.

Three pieces cooperate at every step of a rollout:

* ``KdUncertaintyIndex`` — a KD-tree over standardized dataset states whose
  node values are the per-step uncertainties estimated offline; a query
  returns the mean value of the k nearest stored states.
* ``TargetReturnPredictor`` — a small variance-network ensemble over
  (state, span) that supplies fresh truncated-return targets at the
  requested percentile.
* ``plan_step`` — the bookkeeping loop: decrement the running targets by the
  observed reward, reset the span when it runs out or the previous state was
  uncertain, and swap in the dummy condition whenever the index flags the
  current state.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import norm

from . import nn
from .autodiff import Tensor, no_grad
from .env import STATE_DIM
from .nn import TrainingDiverged
from .policy import PolicyStep
from .return_model import mixture_moments

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# KD-tree uncertainty index
# ---------------------------------------------------------------------------


class KdUncertaintyIndex:
    """Immutable k-NN mean-uncertainty lookup over standardized states."""

    def __init__(self, states: np.ndarray, values: np.ndarray, k: int = 5,
                 epsilon: float = 1.0):
        states = np.asarray(states, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] == 0:
            raise ValueError("index requires a non-empty (N, state_dim) array")
        if states.shape[0] != values.shape[0]:
            raise ValueError(f"{states.shape[0]} states vs {values.shape[0]} values")
        self.k = int(k)
        self.epsilon = float(epsilon)
        self._standardize = nn.Standardizer.fit(states)
        self._states = states
        self._values = values
        self._tree = cKDTree(self._standardize(states))

    def __len__(self) -> int:
        return self._values.size

    def query(self, state: np.ndarray) -> float:
        """Mean uncertainty of the k nearest stored states."""
        z = self._standardize(np.asarray(state, dtype=np.float64))
        k = min(self.k, len(self))
        _, idx = self._tree.query(z, k=k)
        return float(self._values[np.atleast_1d(idx)].mean())

    @classmethod
    def build(cls, trajs: list, traces: list, k: int = 5,
              epsilon: float = 1.0) -> "KdUncertaintyIndex":
        if len(trajs) != len(traces):
            raise ValueError(f"{len(trajs)} trajectories vs {len(traces)} traces")
        if not trajs:
            raise ValueError("cannot build an index from an empty dataset")
        states = np.concatenate([t.states for t in trajs])
        values = np.concatenate([tr.u for tr in traces])
        if states.shape[0] != values.shape[0]:
            raise ValueError("states and uncertainty traces are misaligned")
        return cls(states, values, k=k, epsilon=epsilon)

    def save(self, path) -> None:
        np.savez(path, states=self._states, values=self._values,
                 k=self.k, epsilon=self.epsilon)

    @classmethod
    def load(cls, path) -> "KdUncertaintyIndex":
        with np.load(path) as z:
            return cls(z["states"], z["values"], k=int(z["k"]),
                       epsilon=float(z["epsilon"]))


# ---------------------------------------------------------------------------
# Percentile target predictor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetPredictorConfig:
    hidden_dim: int = 64
    n_hidden: int = 2
    ensemble_size: int = 5
    learning_rate: float = 1e-3
    batch_size: int = 128
    iters: int = 600
    span_max: int = 100       # spans are sampled in [1, span_max]
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The cdf ``Generator.choice(n, p=weights / weights.sum())`` draws from."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _choice_draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """``int(rng.choice(n, p=p))`` for the ``p`` behind ``cdf``: the same
    index from the same stream, without re-validating ``p`` on every draw."""
    return int(cdf.searchsorted(rng.random(), side="right"))


class _TargetMlp(nn.Module):
    """(normalized state, span fraction) -> Gaussian over the span return."""

    def __init__(self, config: TargetPredictorConfig, rng: np.random.Generator):
        super().__init__()
        d = config.hidden_dim
        self.layers = [nn.Linear(STATE_DIM + 1, d, rng)]
        self.layers += [nn.Linear(d, d, rng) for _ in range(config.n_hidden - 1)]
        self.head = nn.Linear(d, 2, rng, zero_init=True)

    def forward(self, x: np.ndarray):
        t = Tensor(x)
        for layer in self.layers:
            t = layer(t).gelu()
        out = self.head(t)
        return out[:, 0], out[:, 1].tanh() * 5.0


class TargetReturnPredictor:
    """Ensemble percentile extractor for truncated-return targets."""

    def __init__(self, config: TargetPredictorConfig, members: list,
                 states: nn.Standardizer, y: nn.Standardizer):
        self.config = config
        self.members = members
        self.states = states
        self.y = y
        for m in members:
            m.eval()

    def _moments(self, state: np.ndarray, h: int) -> tuple:
        x = np.concatenate([
            self.states(np.asarray(state)),
            [h / self.config.span_max],
        ])[None]
        mus, vars_ = [], []
        with no_grad():
            for m in self.members:
                mu, lv = m.forward(x)
                mus.append(self.y.inverse(mu.data[0]))
                vars_.append(np.exp(lv.data[0]) * self.y.std**2)
        mu, var = mixture_moments(np.array(mus)[:, None], np.array(vars_)[:, None],
                                  floor=1e-12)
        return float(mu[0]), float(var[0])

    def predict_target(self, state: np.ndarray, h: int, eta: float) -> float:
        """Percentile-eta point of the moment-matched return forecast."""
        if not 0.0 < eta < 1.0:
            raise ValueError(f"eta must be in (0, 1), got {eta}")
        mu, var = self._moments(state, h)
        target = mu + np.sqrt(var) * norm.ppf(eta)
        if not np.isfinite(target):
            raise RuntimeError(f"non-finite target prediction {target}")
        return float(target)

    # -- training ----------------------------------------------------------

    @classmethod
    def train(cls, trajs: list, config: TargetPredictorConfig) -> "TargetReturnPredictor":
        """Fit on random-span undiscounted reward sums from the dataset."""
        if not trajs:
            raise ValueError("empty dataset")
        states = nn.Standardizer.fit(np.concatenate([t.states for t in trajs]))

        # trajectories are drawn in proportion to their length
        cdf = _choice_cdf(np.array([len(t) for t in trajs], dtype=np.float64))

        def sample_batch(rng):
            xs = np.empty((config.batch_size, STATE_DIM + 1))
            ys = np.empty(config.batch_size)
            for i in range(config.batch_size):
                traj = trajs[_choice_draw(cdf, rng)]
                t = int(rng.integers(len(traj)))
                h = int(rng.integers(1, config.span_max + 1))
                xs[i, :STATE_DIM] = states(traj.states[t])
                xs[i, STATE_DIM] = h / config.span_max
                ys[i] = traj.rewards[t: t + h].sum()  # truncated by episode end
            return xs, ys

        stat_rng = np.random.default_rng(config.seed + 100)
        _, y_probe = sample_batch(stat_rng)
        for _ in range(9):
            y_probe = np.concatenate([y_probe, sample_batch(stat_rng)[1]])
        y = nn.Standardizer.fit(y_probe)

        def train_member(k: int) -> dict:
            rng = np.random.default_rng(config.seed + k)  # init, then batches
            member = _TargetMlp(config, rng)
            opt = nn.AdamW(member.parameters(), lr=config.learning_rate)
            for it in range(config.iters):
                xs, ys = sample_batch(rng)
                mu, lv = member.forward(xs)
                loss = nn.gaussian_nll(mu, lv, y(ys))
                if not np.isfinite(loss.item()):
                    raise TrainingDiverged(
                        f"target predictor member {k}: non-finite loss at iter {it}")
                opt.zero_grad()
                loss.backward()
                opt.step()
            return member.state_dict()

        members = []
        for state in nn.map_members(train_member, config.ensemble_size):
            member = _TargetMlp(config, np.random.default_rng(0))
            member.load_state_dict(state)
            members.append(member)
        return cls(config, members, states, y)

    # -- persistence -------------------------------------------------------

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "kind": "target-predictor",
            "config": self.config.to_dict(),
            **self.states.to_dict("state"), **self.y.to_dict("y"),
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
        for k, m in enumerate(self.members):
            nn.save_checkpoint(directory / f"member_{k}.json", m,
                               arch={"role": "target-mlp", "index": k})

    @classmethod
    def load(cls, directory) -> "TargetReturnPredictor":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        if manifest.get("kind") != "target-predictor":
            raise ValueError(f"{directory}: not a target-predictor checkpoint")
        config = TargetPredictorConfig(**manifest["config"])
        members = []
        for k in range(config.ensemble_size):
            payload = nn.load_checkpoint(directory / f"member_{k}.json")
            m = _TargetMlp(config, np.random.default_rng(0))
            m.load_state_dict(payload["params"])
            members.append(m)
        return cls(config, members, nn.Standardizer.from_dict(manifest, "state"),
                   nn.Standardizer.from_dict(manifest, "y"))


# ---------------------------------------------------------------------------
# Planning loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannerConfig:
    span_horizon: int = 100     # H
    eta: float = 0.7            # target percentile
    epsilon: float = 1.0        # uncertainty threshold for the index gate
    knn: int = 5
    history_length: int = 5     # max context steps fed to the policy

    def validate(self):
        if self.span_horizon < 1:
            raise ValueError("span_horizon must be >= 1")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must be in (0, 1)")
        if self.history_length < 1:
            raise ValueError("history_length must be >= 1")
        return self


@dataclass
class PlannerState:
    config: PlannerConfig
    R: float                    # remaining global target fed to the policy (>= 0)
    R_unclamped: float          # bookkeeping value, may go negative
    h: int
    r_h: float
    prev_uncertain: bool = False
    started: bool = False
    history: list = field(default_factory=list)
    trace: list = field(default_factory=list)

    @classmethod
    def initial(cls, config: PlannerConfig, initial_target: float) -> "PlannerState":
        config.validate()
        return cls(config=config, R=max(initial_target, 0.0),
                   R_unclamped=initial_target, h=0, r_h=0.0)


def plan_step(ps: PlannerState, state: np.ndarray, prev_reward: float | None,
              policy, index: KdUncertaintyIndex,
              predictor: TargetReturnPredictor) -> tuple:
    """Advance the planner by one environment step and pick an action.

    ``prev_reward`` is None on the first step of an episode.  Returns
    (action, ps); ps is mutated in place and records a per-step trace entry.
    """
    cfg = ps.config
    record = {"reset": False, "dummy": False, "predictor_failed": False,
              "clamped": False}

    # (1) global-target bookkeeping
    if ps.started:
        ps.R_unclamped -= prev_reward
        ps.R = ps.R_unclamped
    if ps.R < 0.0:
        ps.R = 0.0
        record["clamped"] = True

    # (2) span bookkeeping: reset when exhausted or after an uncertain state
    need_reset = (not ps.started) or ps.h == 1 or ps.prev_uncertain
    predictor_failed = False
    if need_reset:
        ps.h = cfg.span_horizon
        # the predictor's own failures (a non-finite target, an invalid member
        # forecast) fall back to the dummy condition; any other error propagates
        try:
            ps.r_h = predictor.predict_target(state, ps.h, cfg.eta)
        except (RuntimeError, ValueError) as exc:
            predictor_failed = True
            ps.r_h = 0.0
            log.warning("target predictor failed (%s); using dummy condition", exc)
        record["reset"] = True
    else:
        ps.h -= 1
        ps.r_h -= prev_reward

    # (3) uncertainty gate on the current state
    u_now = index.query(state)
    uncertain_now = u_now > index.epsilon
    use_dummy = uncertain_now or predictor_failed
    record["dummy"] = use_dummy
    record["predictor_failed"] = predictor_failed

    # (4) deterministic action from the conditioned policy
    step = PolicyStep(
        state=np.asarray(state, dtype=np.float64),
        h=0 if use_dummy else ps.h,
        r_h=0.0 if use_dummy else ps.r_h,
        R=ps.R,
    )
    ps.history.append(step)
    ps.history = ps.history[-cfg.history_length:]
    action = policy.act(ps.history)
    step.action = np.asarray(action, dtype=np.float64)

    # (5) carry flags forward
    ps.prev_uncertain = uncertain_now
    ps.started = True
    record.update({"R": ps.R, "R_unclamped": ps.R_unclamped,
                   "h": ps.h, "r_h": ps.r_h, "uncertainty": u_now})
    ps.trace.append(record)
    return action, ps


def initial_global_target(trajs: list, eta: float) -> float:
    """Dataset percentile of episode returns, used when no target is given."""
    totals = np.array([t.rewards.sum() for t in trajs])
    return float(np.quantile(totals, eta))
