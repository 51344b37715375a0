"""Seeded closed-loop evaluation, calibration metrics, and the
deterministic-alignment check on an exhaustive tabular MDP.

The rollout harness drives the toy highway environment with one of four
actors (planned policy, return-conditioned policy, privileged rule expert,
random) and reduces per-episode results into a report whose aggregates are
recomputable from the raw records.  The return-conditioned actor drives both
baselines: dt reads its return-to-go, bc reads no return token at all.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import logsumexp

from .env import EnvAction, EnvConfig, ExpertConfig, HighwayEnv, RuleExpert, V_MAX
from .planner import (KdUncertaintyIndex, PlannerConfig, PlannerState,
                      TargetReturnPredictor, plan_step)
from .policy import Context, Policy
from .return_model import mixture_moments, predict_trajectories

log = logging.getLogger(__name__)

COLLISION_MULTIPLIER = 0.65
RED_LIGHT_MULTIPLIER = 0.7

INFRACTION_KINDS = ("collision", "red_light", "off_route")


def driving_score(route_completion: float, collisions: int, red_lights: int) -> float:
    """Composite score: completion scaled down multiplicatively per infraction."""
    return float(route_completion
                 * COLLISION_MULTIPLIER ** collisions
                 * RED_LIGHT_MULTIPLIER ** red_lights)


@dataclass
class EpisodeResult:
    seed: int
    total_return: float
    steps: int
    success: bool
    route_completion: float
    infractions: dict
    score: float

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("episode must contain at least one step")

    @property
    def normalized_reward(self) -> float:
        return self.total_return / self.steps

    def to_dict(self) -> dict:
        d = asdict(self)
        d["normalized_reward"] = self.normalized_reward
        return d


@dataclass
class EvalReport:
    results: dict = field(default_factory=dict)   # policy name -> [EpisodeResult]

    def add(self, name: str, episodes: list) -> None:
        self.results[name] = list(episodes)

    def aggregates(self, name: str) -> dict:
        eps = self.results[name]
        arr = {
            "success_rate": np.array([float(e.success) for e in eps]),
            "route_completion": np.array([e.route_completion for e in eps]),
            "normalized_reward": np.array([e.normalized_reward for e in eps]),
            "driving_score": np.array([e.score for e in eps]),
            "infractions_per_episode": np.array([
                sum(e.infractions.values()) for e in eps]),
        }
        return {k: {"mean": float(v.mean()), "std": float(v.std())}
                for k, v in arr.items()}

    def to_dict(self) -> dict:
        return {name: {"episodes": [e.to_dict() for e in eps],
                       "aggregates": self.aggregates(name)}
                for name, eps in self.results.items()}

    def render(self) -> str:
        cols = ("success_rate", "route_completion", "normalized_reward",
                "driving_score", "infractions_per_episode")
        lines = ["policy            " + "".join(f"{c:>26}" for c in cols)]
        for name in self.results:
            agg = self.aggregates(name)
            cells = "".join(
                f"{agg[c]['mean']:>16.3f} ±{agg[c]['std']:<8.3f}" for c in cols)
            lines.append(f"{name:<18}" + cells)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Actors
# ---------------------------------------------------------------------------


class PlannedActor:
    """UNREST inference: planner bookkeeping + uncertainty-gated conditioning."""

    def __init__(self, policy: Policy, index: KdUncertaintyIndex,
                 predictor: TargetReturnPredictor, planner_config: PlannerConfig,
                 initial_target: float):
        self.policy = policy
        self.index = index
        self.predictor = predictor
        self.planner_config = planner_config
        self.initial_target = initial_target

    def reset(self, seed: int):
        self._ps = PlannerState.initial(self.planner_config, self.initial_target)

    def act(self, state, prev_reward: float | None) -> EnvAction:
        action, _ = plan_step(self._ps, state.as_array(), prev_reward,
                              self.policy, self.index, self.predictor)
        return EnvAction(float(action[0]), float(action[1]))

    @property
    def trace(self) -> list:
        return self._ps.trace


class ReturnConditionedActor:
    """DT-style baseline: condition on the decremented global return-to-go.
    A bc policy reads no return token, so this actor also drives it."""

    def __init__(self, policy: Policy, initial_target: float, history_length: int = 5):
        self.policy = policy
        self.initial_target = initial_target
        self.history_length = history_length

    def reset(self, seed: int):
        self._R = self.initial_target
        self._context = Context(self.history_length)

    def act(self, state, prev_reward):
        if prev_reward is not None:
            self._R -= prev_reward
        self._context.push(state.as_array(), R=self._R)
        action = self.policy.act(self._context)
        self._context.record(action)
        return EnvAction(float(action[0]), float(action[1]))


class ExpertActor:
    def __init__(self, expert_config: ExpertConfig = ExpertConfig()):
        self.expert_config = expert_config

    def reset(self, seed: int):
        self._expert = RuleExpert(self.expert_config)
        self._expert.reseed(self.expert_config.seed + seed)

    def bind_env(self, env: HighwayEnv):
        self._env = env

    def act(self, state, prev_reward):
        return self._expert.act(self._env, state)


class RandomActor:
    def reset(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def act(self, state, prev_reward):
        return EnvAction(float(self._rng.uniform(0.0, V_MAX)),
                         float(self._rng.uniform(-1.0, 1.0)))


# ---------------------------------------------------------------------------
# Rollout harness
# ---------------------------------------------------------------------------


def run_episode(env_config: EnvConfig, actor, seed: int) -> EpisodeResult:
    env = HighwayEnv(env_config)
    state = env.reset(seed=seed)
    actor.reset(seed)
    if hasattr(actor, "bind_env"):
        actor.bind_env(env)
    total, steps, prev_reward = 0.0, 0, None
    infractions = {k: 0 for k in INFRACTION_KINDS}
    while True:
        action = actor.act(state, prev_reward)
        out = env.step(action)
        total += out.reward
        steps += 1
        prev_reward = out.reward
        if out.infraction is not None:
            infractions[out.infraction] += 1
        state = out.state
        if out.done:
            break
    completion = env.route_completion
    success = completion >= 1.0 and sum(infractions.values()) == 0
    return EpisodeResult(
        seed=seed, total_return=total, steps=steps, success=success,
        route_completion=completion, infractions=infractions,
        score=driving_score(completion, infractions["collision"],
                            infractions["red_light"]),
    )


def rollout(env_config: EnvConfig, actor, seeds) -> list:
    """Fully seeded evaluation: the same seeds reproduce identical results."""
    return [run_episode(env_config, actor, int(seed)) for seed in seeds]


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def _gaussian_nll_full(y, mu, var):
    return 0.5 * ((y - mu) ** 2 / var + np.log(var) + np.log(2.0 * np.pi))


def calibrate(ensemble, trajs: list, gamma: float = 0.95, forecasts=None) -> dict:
    """Held-out forecast quality of the state-conditioned return model.

    The ensemble row scores the exact equal-weight mixture density (NLL) and
    the mixture mean (RMSE); the moment-matched Gaussian NLL is reported
    separately since segmentation consumes the moment-matched forecast.
    Per-step records (realized return, mixture mu/sigma) support plotting.
    ``forecasts``, when given, holds ``predict_trajectories``' output for
    ``trajs``, so a caller that needs them too runs the ensemble once.
    """
    if not trajs:
        raise ValueError("empty held-out dataset")
    y = np.concatenate([traj.returns_for(gamma) for traj in trajs])
    if forecasts is None:
        forecasts = predict_trajectories(ensemble, trajs)
    mu_m = np.concatenate([p["mu_s"] for p in forecasts], axis=1)    # (K, N)
    var_m = np.concatenate([p["var_s"] for p in forecasts], axis=1)
    mu_e, var_e = mixture_moments(mu_m, var_m)

    members = [
        {"nll": float(_gaussian_nll_full(y, mu_m[k], var_m[k]).mean()),
         "rmse": float(np.sqrt(((y - mu_m[k]) ** 2).mean()))}
        for k in range(mu_m.shape[0])]
    within = np.abs(y - mu_e) <= np.sqrt(var_e)
    ll_by_member = -_gaussian_nll_full(y, mu_m, var_m)          # (K, N)
    mixture_nll = float(-(logsumexp(ll_by_member, axis=0)
                          - np.log(mu_m.shape[0])).mean())
    return {
        "ensemble": {"nll": mixture_nll,
                     "nll_moment_matched":
                         float(_gaussian_nll_full(y, mu_e, var_e).mean()),
                     "rmse": float(np.sqrt(((y - mu_e) ** 2).mean()))},
        "members": members,
        "coverage_1sigma": float(within.mean()),
        "records": {"realized": y, "mu": mu_e, "sigma": np.sqrt(var_e)},
    }


def uncertainty_histogram(traces: list, bins: int = 30) -> dict:
    """Pooled histogram of per-step uncertainties (threshold-picking aid)."""
    u = np.concatenate([tr.u for tr in traces])
    counts, edges = np.histogram(u, bins=bins)
    return {"counts": counts, "edges": edges,
            "quantiles": {q: float(np.quantile(u, q))
                          for q in (0.5, 0.75, 0.9, 0.95, 0.99)}}


# ---------------------------------------------------------------------------
# Deterministic-alignment check on an exhaustive tabular MDP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TabularMdp:
    """Tiny finite-horizon MDP; `delta` is the per-step chance of a uniformly
    random transition instead of the deterministic one."""
    n_states: int
    n_actions: int
    horizon: int
    transitions: np.ndarray   # (S, A) -> next state
    rewards: np.ndarray       # (S, A) -> reward
    delta: float = 0.0

    @classmethod
    def random(cls, n_states=5, n_actions=3, horizon=4, delta=0.0, seed=0):
        rng = np.random.default_rng(seed)
        return cls(
            n_states=n_states, n_actions=n_actions, horizon=horizon,
            transitions=rng.integers(n_states, size=(n_states, n_actions)),
            rewards=np.round(rng.uniform(-1.0, 1.0, size=(n_states, n_actions)), 2),
            delta=delta,
        )


def _enumerate_returns(mdp: TabularMdp, state: int, steps: int) -> set:
    """All achievable returns from `state` with `steps` to go (delta=0)."""
    if steps == 0:
        return {0.0}
    out = set()
    for a in range(mdp.n_actions):
        r = mdp.rewards[state, a]
        nxt = int(mdp.transitions[state, a])
        for tail in _enumerate_returns(mdp, nxt, steps - 1):
            out.add(round(r + tail, 9))
    return out


def _count_policy(mdp: TabularMdp) -> dict:
    """Exact conditional action counts P(a | t, s, remaining return) from the
    exhaustive behavior dataset (all action sequences, delta=0 dynamics)."""
    counts: dict = {}

    def visit(t, s, seq):
        if t == mdp.horizon:
            # walk the trajectory backwards accumulating remaining returns
            rem = 0.0
            stack = []
            for (st, a, r) in reversed(seq):
                rem = r + rem
                stack.append((st, a, rem))
            for depth, (st, a, rem_ret) in enumerate(reversed(stack)):
                key = (depth, st, round(rem_ret, 9))
                counts.setdefault(key, np.zeros(mdp.n_actions))[a] += 1.0
            return
        for a in range(mdp.n_actions):
            r = float(mdp.rewards[s, a])
            visit(t + 1, int(mdp.transitions[s, a]), seq + [(s, a, r)])

    visit(0, 0, [])
    return counts


def _expected_return(mdp: TabularMdp, counts: dict, t: int, s: int,
                     target: float) -> float:
    """Exact expected rollout return of the count policy conditioned on
    achieving `target` from (t, s); delta-stochastic dynamics enumerated."""
    if t == mdp.horizon:
        return 0.0
    key = (t, s, round(target, 9))
    if key not in counts:
        # coverage violation: fall back to the nearest recorded target
        candidates = [k for k in counts if k[0] == t and k[1] == s]
        if not candidates:
            return 0.0
        key = min(candidates, key=lambda k: abs(k[2] - target))
    dist = counts[key]
    probs = dist / dist.sum()
    total = 0.0
    for a, pa in enumerate(probs):
        if pa == 0.0:
            continue
        r = float(mdp.rewards[s, a])
        det_next = int(mdp.transitions[s, a])
        next_states = {det_next: 1.0 - mdp.delta}
        for u in range(mdp.n_states):
            next_states[u] = next_states.get(u, 0.0) + mdp.delta / mdp.n_states
        for nxt, pn in next_states.items():
            if pn == 0.0:
                continue
            total += pa * pn * (r + _expected_return(mdp, counts, t + 1, nxt,
                                                     target - r))
    return total


def theorem_check(mdp: TabularMdp) -> dict:
    """Alignment gap between conditioned targets and expected rollout returns.

    With delta=0 and full coverage the gap is exactly 0 for every achievable
    target; with delta>0 the gap is reported but carries no guarantee.
    """
    counts = _count_policy(mdp)
    achievable = sorted(_enumerate_returns(mdp, 0, mdp.horizon))
    scale = max(achievable) - min(achievable) or 1.0
    gaps = {}
    for target in achievable:
        realized = _expected_return(mdp, counts, 0, 0, target)
        gaps[target] = abs(realized - target)
    worst = max(gaps.values())
    return {"max_gap": worst, "max_gap_fraction": worst / scale,
            "return_scale": scale, "gaps": gaps,
            "n_targets": len(achievable)}


def unreachable_target_gap(mdp: TabularMdp, offset: float = 10.0) -> float:
    """Gap when conditioning on a return no trajectory achieves."""
    counts = _count_policy(mdp)
    achievable = sorted(_enumerate_returns(mdp, 0, mdp.horizon))
    target = max(achievable) + offset
    return abs(_expected_return(mdp, counts, 0, 0, target) - target)
