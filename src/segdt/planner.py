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

import logging
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ndtri

from . import archive, nn
from .config import require_learning_rate, require_steps
from .env import STATE_DIM
from .policy import Context
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

    SCHEMA_VERSION = "kd-index-v1"

    def save(self, path) -> None:
        archive.write(path, self.SCHEMA_VERSION, states=self._states, values=self._values,
                      meta={"k": self.k, "epsilon": self.epsilon})

    @classmethod
    def load(cls, path) -> "KdUncertaintyIndex":
        settings = {}

        def layout(entries: dict) -> dict:
            settings.update(k=entries["meta"]["k"], epsilon=entries["meta"]["epsilon"])
            return {"states": ((None, STATE_DIM), np.float64), "values": ((None,), np.float64)}

        entries = archive.read(path, cls.SCHEMA_VERSION, layout, json_entries=("meta",))
        states, values = entries["states"], entries["values"]
        if len(states) != len(values) or len(values) == 0:
            raise ValueError(f"{path}: {len(states)} states vs {len(values)} values")
        if not (np.isfinite(states).all() and np.isfinite(values).all()):
            raise ValueError(f"{path}: a stored state or value is not finite")
        if (values < 0).any():
            raise ValueError(f"{path}: a stored uncertainty value is negative")
        return cls(states, values, **settings)


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

    def __post_init__(self):
        require_steps(self, "hidden_dim", "n_hidden", "ensemble_size", "batch_size", "iters",
                      "span_max")
        require_learning_rate(self)

    def to_dict(self) -> dict:
        return asdict(self)


def _span_sampler(trajs: list, config: TargetPredictorConfig, z_states: np.ndarray):
    """``sample_batch(rng)``, which draws one predictor batch ``(xs, ys)``
    from ``trajs`` in three array draws: the trajectories, in proportion to
    their length, then a step within each and a span in [1, span_max].  A
    row of ``xs`` is the step's standardized state (a row of ``z_states``,
    the trajectories' states standardized in order) and the span fraction
    ``h / span_max``; ``ys`` is the reward sum over the span, cut at the
    episode's end."""
    lengths = np.array([len(t) for t in trajs])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    # each trajectory's reward prefix sums, from 0: its steps + 1 entries
    prefix = np.concatenate([np.concatenate([[0.0], np.cumsum(t.rewards)]) for t in trajs])
    p = lengths / lengths.sum()

    def sample_batch(rng):
        n = config.batch_size
        which = rng.choice(len(trajs), size=n, p=p)
        t = rng.integers(lengths[which])
        h = rng.integers(1, config.span_max + 1, size=n)
        end = np.minimum(t + h, lengths[which])
        first = starts[which] + which    # each trajectory's first prefix entry
        ys = prefix[first + end] - prefix[first + t]
        xs = np.concatenate([z_states[starts[which] + t], (h / config.span_max)[:, None]],
                            axis=1)
        return xs, ys

    return sample_batch


class _TargetMlp(nn.Module):
    """(normalized state, span fraction) -> Gaussian over the span return."""

    def __init__(self, config: TargetPredictorConfig, rng: np.random.Generator):
        super().__init__()
        d = config.hidden_dim
        self.layers = [nn.Linear(STATE_DIM + 1, d, rng)]
        self.layers += [nn.Linear(d, d, rng) for _ in range(config.n_hidden - 1)]
        self.head = nn.Linear(d, 2, rng, zero_init=True)

    def forward(self, x: np.ndarray):
        """The taped ``run``."""
        return self.run(nn.TAPE, x)

    def run(self, ops, x: np.ndarray) -> tuple:
        t = ops.const(x)
        for layer in self.layers:
            t = ops.gelu(ops.call(layer, t))
        out = ops.call(self.head, t)
        return out[:, 0], ops.tanh(out[:, 1]) * 5.0


class TargetReturnPredictor:
    """Ensemble percentile extractor for truncated-return targets."""

    def __init__(self, config: TargetPredictorConfig, members: list,
                 states: nn.Standardizer, y: nn.Standardizer, loss_curves=()):
        self.config = config
        self.members = members
        self.states = states
        self.y = y
        # each member's training loss per iteration; a loaded predictor has none
        self.loss_curves = list(loss_curves)
        for m in members:
            m.eval()

    def _moments(self, state: np.ndarray, h: int) -> tuple:
        x = np.concatenate([
            self.states(np.asarray(state)),
            [h / self.config.span_max],
        ])[None]
        mus, vars_ = [], []
        for m in self.members:
            mu, lv = (float(v[0]) for v in m.infer(x))
            mus.append(self.y.inverse(mu))
            vars_.append(self.y.inverse_var(np.exp(lv)))
        mu, var = mixture_moments(np.array(mus)[:, None], np.array(vars_)[:, None],
                                  floor=1e-12)
        return float(mu[0]), float(var[0])

    def predict_target(self, state: np.ndarray, h: int, eta: float) -> float:
        """Percentile-eta point of the moment-matched return forecast."""
        if not 0.0 < eta < 1.0:
            raise ValueError(f"eta must be in (0, 1), got {eta}")
        mu, var = self._moments(state, h)
        target = mu + np.sqrt(var) * ndtri(eta)
        if not np.isfinite(target):
            raise RuntimeError(f"non-finite target prediction {target}")
        return float(target)

    # -- training ----------------------------------------------------------

    @classmethod
    def train(cls, trajs: list, config: TargetPredictorConfig) -> "TargetReturnPredictor":
        """Fit on random-span undiscounted reward sums from the dataset."""
        if not trajs:
            raise ValueError("empty dataset")
        all_states = np.concatenate([t.states for t in trajs])
        states = nn.Standardizer.fit(all_states)
        sample_batch = _span_sampler(trajs, config, states(all_states))

        stat_rng = np.random.default_rng(config.seed + 100)
        y = nn.Standardizer.fit(np.concatenate([sample_batch(stat_rng)[1] for _ in range(10)]))

        def train_member(k: int) -> tuple:
            rng = np.random.default_rng(config.seed + k)  # init, then batches
            member = _TargetMlp(config, rng)
            curve, = nn.fit(
                member, lambda: sample_batch(rng),
                lambda b: nn.gaussian_nll(*member.forward(b[0]), y(b[1])),
                lambda epoch, losses: losses, epochs=1, iters=config.iters,
                lr=config.learning_rate, who=f"target predictor member {k}")
            return member.state_dict(), curve

        members, curves = [], []
        for state, curve in nn.map_members(train_member, config.ensemble_size):
            member = _TargetMlp(config, np.random.default_rng(0))
            member.load_state_dict(state)
            members.append(member)
            curves.append(curve)
        return cls(config, members, states, y, loss_curves=curves)

    # -- persistence -------------------------------------------------------

    SCHEMA_VERSION = "target-predictor-v2"   # v2: tanh-form GELU
    FILE = "predictor.npz"

    def save(self, directory) -> None:
        """``FILE`` in ``directory``: member k's parameters prefixed ``k.``."""
        nn.save_checkpoint(
            Path(directory) / self.FILE, self.SCHEMA_VERSION,
            {"config": self.config.to_dict(),
             **self.states.to_dict("state"), **self.y.to_dict("y")},
            {f"{k}.": m for k, m in enumerate(self.members)})

    @classmethod
    def load(cls, directory) -> "TargetReturnPredictor":
        def build(meta: dict) -> tuple:
            config = TargetPredictorConfig(**meta["config"])
            predictor = cls(config, [_TargetMlp(config, np.random.default_rng(0))
                                     for _ in range(config.ensemble_size)],
                            nn.Standardizer.from_dict(meta, "state"),
                            nn.Standardizer.from_dict(meta, "y"))
            return predictor, {f"{k}.": m for k, m in enumerate(predictor.members)}

        return nn.load_checkpoint(nn.checkpoint_in(directory, cls.FILE), cls.SCHEMA_VERSION,
                                  build)


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

    def __post_init__(self):
        require_steps(self, "span_horizon")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must be in (0, 1), got {self.eta}")


@dataclass
class PlannerState:
    config: PlannerConfig
    R: float                    # remaining global target fed to the policy (>= 0)
    R_unclamped: float          # bookkeeping value, may go negative
    h: int
    r_h: float
    context: Context            # the policy's window of recent steps
    prev_uncertain: bool = False
    started: bool = False
    trace: list = field(default_factory=list)

    @classmethod
    def initial(cls, config: PlannerConfig, initial_target: float) -> "PlannerState":
        return cls(config=config, R=max(initial_target, 0.0),
                   R_unclamped=initial_target, h=0, r_h=0.0,
                   context=Context(config.history_length))


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
    ps.context.push(state, h=0 if use_dummy else ps.h,
                    r_h=0.0 if use_dummy else ps.r_h, R=ps.R)
    action = policy.act(ps.context)
    ps.context.record(action)

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
