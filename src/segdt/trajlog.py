"""Trajectory persistence, return annotation, and window sampling.

Storage is newline-delimited JSON: one header record, then per trajectory a
metadata record followed by one record per step.  Floats survive the round
trip at full 64-bit precision (Python's repr-based JSON encoding).  A packed
binary twin (.npz) carries the same schema version for bulk workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .env import STATE_DIM, ACTION_DIM

SCHEMA_VERSION = "traj-v1"


@dataclass
class Trajectory:
    states: np.ndarray      # (T, 12)
    actions: np.ndarray     # (T, 2)
    rewards: np.ndarray     # (T,)
    reward_terms: list      # T dicts
    infractions: list       # T entries, str | None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        if len(self) == 0:
            raise ValueError("trajectory must contain at least one step")
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("trajectory contains non-finite rewards")

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass
class ReturnAnnotatedTrajectory(Trajectory):
    # per-step discounted returns, keyed by the discount that produced them
    returns: dict = field(default_factory=dict)

    def returns_for(self, gamma: float) -> np.ndarray:
        key = _gamma_key(gamma)
        if key not in self.returns:
            raise KeyError(f"no return annotation for gamma={gamma}")
        return self.returns[key]


def _gamma_key(gamma: float) -> str:
    return repr(float(gamma))


def compute_returns(traj: Trajectory, gamma: float) -> ReturnAnnotatedTrajectory:
    """Backward-recursive discounted returns: R_t = r_t + gamma * R_{t+1}."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    T = len(traj)
    R = np.empty(T)
    acc = 0.0
    for t in range(T - 1, -1, -1):
        acc = traj.rewards[t] + gamma * acc
        R[t] = acc
    existing = dict(getattr(traj, "returns", {}))
    existing[_gamma_key(gamma)] = R
    return ReturnAnnotatedTrajectory(
        states=traj.states, actions=traj.actions, rewards=traj.rewards,
        reward_terms=traj.reward_terms, infractions=traj.infractions,
        meta=traj.meta, returns=existing,
    )


def annotate_dataset(trajs: list, gammas=(0.95, 1.0)) -> list:
    out = trajs
    for g in gammas:
        out = [compute_returns(t, g) for t in out]
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save(trajs: list, path) -> None:
    with open(path, "w") as fh:
        header = {"record": "header", "schema_version": SCHEMA_VERSION,
                  "trajectory_count": len(trajs)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for traj in trajs:
            tmeta = {"record": "trajectory", "length": len(traj), "meta": traj.meta}
            fh.write(json.dumps(tmeta, sort_keys=True) + "\n")
            for t in range(len(traj)):
                rec = {
                    "record": "step",
                    "state": traj.states[t].tolist(),
                    "action": traj.actions[t].tolist(),
                    "reward": float(traj.rewards[t]),
                    "reward_terms": traj.reward_terms[t],
                    "infraction": traj.infractions[t],
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load(path) -> list:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty trajectory file")
    header = json.loads(lines[0])
    if header.get("record") != "header":
        raise ValueError(f"{path}: missing header record")
    found = header.get("schema_version")
    if found != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema version mismatch: expected {SCHEMA_VERSION!r}, found {found!r}"
        )
    expected_count = header["trajectory_count"]

    trajs = []
    i = 1
    while i < len(lines):
        tmeta = json.loads(lines[i])
        if tmeta.get("record") != "trajectory":
            raise ValueError(f"{path}: line {i + 1}: expected trajectory record")
        T = tmeta["length"]
        i += 1
        if i + T > len(lines):
            raise ValueError(f"{path}: truncated file: trajectory needs {T} steps, "
                             f"only {len(lines) - i} lines remain")
        states, actions, rewards, terms, infs = [], [], [], [], []
        for j in range(T):
            rec = json.loads(lines[i + j])
            if rec.get("record") != "step":
                raise ValueError(f"{path}: line {i + j + 1}: expected step record")
            states.append(rec["state"])
            actions.append(rec["action"])
            rewards.append(rec["reward"])
            terms.append(rec["reward_terms"])
            infs.append(rec["infraction"])
        i += T
        trajs.append(Trajectory(
            states=np.array(states), actions=np.array(actions),
            rewards=np.array(rewards), reward_terms=terms, infractions=infs,
            meta=tmeta["meta"],
        ))
    if len(trajs) != expected_count:
        raise ValueError(f"{path}: truncated file: header promises {expected_count} "
                         f"trajectories, found {len(trajs)}")
    return trajs


def save_binary(trajs: list, path) -> None:
    """Packed twin of save(): same schema version, one npz archive."""
    lengths = np.array([len(t) for t in trajs])
    np.savez(
        path,
        schema_version=np.array(SCHEMA_VERSION),
        lengths=lengths,
        states=np.concatenate([t.states for t in trajs]),
        actions=np.concatenate([t.actions for t in trajs]),
        rewards=np.concatenate([t.rewards for t in trajs]),
        meta_json=np.array(json.dumps([t.meta for t in trajs])),
        terms_json=np.array(json.dumps([t.reward_terms for t in trajs])),
        infractions_json=np.array(json.dumps([t.infractions for t in trajs])),
    )


def load_binary(path) -> list:
    with np.load(path, allow_pickle=False) as z:
        found = str(z["schema_version"])
        if found != SCHEMA_VERSION:
            raise ValueError(f"{path}: schema version mismatch: expected "
                             f"{SCHEMA_VERSION!r}, found {found!r}")
        lengths = z["lengths"]
        metas = json.loads(str(z["meta_json"]))
        terms = json.loads(str(z["terms_json"]))
        infs = json.loads(str(z["infractions_json"]))
        # each z[name] reads the whole array from the archive again: read once
        states, actions, rewards = z["states"], z["actions"], z["rewards"]
    ends = np.cumsum(lengths)
    return [Trajectory(states=states[end - T:end], actions=actions[end - T:end],
                       rewards=rewards[end - T:end], reward_terms=terms[k],
                       infractions=infs[k], meta=metas[k])
            for k, (T, end) in enumerate(zip(lengths, ends))]


# ---------------------------------------------------------------------------
# Window sampling
# ---------------------------------------------------------------------------


def sample_window(trajs: list, length: int, batch_size: int,
                  rng: np.random.Generator, columns: dict | None = None) -> dict:
    """Sample aligned sub-sequences, left-padded with an explicit mask.

    A draw picks a trajectory (weighted by its length) and a window end
    uniform over its steps; the window covers the ``length`` steps ending
    there, left-padded with zeros when it would cross the episode start.
    ``columns`` maps extra names to per-trajectory arrays (list of (T, ...)
    or (T,) arrays) to slice alongside states/actions/rewards.
    """
    if length < 1:
        raise ValueError("window length must be >= 1")
    if not trajs:
        raise ValueError("empty dataset")
    lengths = np.array([len(t) for t in trajs])
    probs = lengths / lengths.sum()
    traj_idx = rng.choice(len(trajs), size=batch_size, p=probs)

    out = {
        "states": np.zeros((batch_size, length, STATE_DIM)),
        "actions": np.zeros((batch_size, length, ACTION_DIM)),
        "rewards": np.zeros((batch_size, length)),
        "mask": np.zeros((batch_size, length), dtype=bool),
    }
    extra = {}
    for name, per_traj in (columns or {}).items():
        sample = np.asarray(per_traj[0])
        shape = (batch_size, length) + sample.shape[1:]
        extra[name] = np.zeros(shape, dtype=sample.dtype)
    for b, ti in enumerate(traj_idx):
        traj = trajs[ti]
        end = int(rng.integers(1, len(traj) + 1))  # exclusive end, uniform
        start = max(0, end - length)
        n = end - start
        out["states"][b, length - n:] = traj.states[start:end]
        out["actions"][b, length - n:] = traj.actions[start:end]
        out["rewards"][b, length - n:] = traj.rewards[start:end]
        out["mask"][b, length - n:] = True
        for name, per_traj in (columns or {}).items():
            extra[name][b, length - n:] = np.asarray(per_traj[ti])[start:end]
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# Dataset collection (expert rollouts)
# ---------------------------------------------------------------------------


def collect_dataset(env_config, expert_config, episodes: int, base_seed: int = 0) -> list:
    """Roll the privileged rule expert for ``episodes`` seeded episodes."""
    from .env import ENV_VERSION, EXPERT_VERSION, HighwayEnv, RuleExpert

    trajs = []
    for k in range(episodes):
        seed = base_seed + k
        env = HighwayEnv(env_config)
        state = env.reset(seed=seed)
        expert = RuleExpert(expert_config)
        expert.reseed(expert_config.seed + seed)
        states, actions, rewards, terms, infs = [], [], [], [], []
        while True:
            action = expert.act(env, state)
            out = env.step(action)
            states.append(state.as_array())
            actions.append(action.clamped().as_array())
            rewards.append(out.reward)
            terms.append(out.reward_terms)
            infs.append(out.infraction)
            state = out.state
            if out.done:
                break
        trajs.append(Trajectory(
            states=np.array(states), actions=np.array(actions),
            rewards=np.array(rewards), reward_terms=terms, infractions=infs,
            meta={
                "seed": seed,
                "env_version": ENV_VERSION,
                "expert_version": EXPERT_VERSION,
                "delta": env_config.delta,
                "lead_reveal_step": env.lead_reveal_step,
                "route_completion": env.route_completion,
            },
        ))
    return trajs
