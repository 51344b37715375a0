"""Trajectory persistence, return annotation, and window sampling.

Storage is newline-delimited JSON: a header line (schema version, trajectory
count), then one line per trajectory holding ``meta`` and the per-step
columns as whole lists.  ``write_jsonl``/``read_jsonl`` are the only codec;
segmented files add their own keys to each line.  Floats survive the round
trip at full 64-bit precision (Python's repr-based JSON encoding).  A packed
binary twin (.npz) carries the same schema version for bulk workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .env import STATE_DIM, ACTION_DIM

SCHEMA_VERSION = "traj-v2"


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


def write_jsonl(path, schema_version: str, trajs: list, extras=None) -> None:
    """Write the header line, then one line per trajectory.

    ``extras`` (one dict per trajectory, or None) adds a caller's own keys to
    each trajectory line beside the trajectory columns.
    """
    with open(path, "w") as fh:
        header = {"schema_version": schema_version, "trajectory_count": len(trajs)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for k, traj in enumerate(trajs):
            rec = {
                "meta": traj.meta,
                "states": traj.states.tolist(),
                "actions": traj.actions.tolist(),
                "rewards": traj.rewards.tolist(),
                "reward_terms": traj.reward_terms,
                "infractions": traj.infractions,
            }
            rec.update(extras[k] if extras is not None else {})
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path, schema_version: str, step_keys=()) -> list:
    """Read a file written by ``write_jsonl``, line by line.

    Returns one ``(Trajectory, extras)`` pair per trajectory line, where
    ``extras`` holds the line's keys other than the trajectory's.  The
    per-step columns and the caller's ``step_keys`` must be lists of one
    length.
    """
    columns = ("states", "actions", "rewards", "reward_terms", "infractions", *step_keys)
    with open(path) as fh:
        header = _parse_line(fh.readline(), path, 1)
        found = header.get("schema_version")
        if found != schema_version:
            raise ValueError(f"{path}: schema version mismatch: expected "
                             f"{schema_version!r}, found {found!r}")
        out = []
        for lineno, line in enumerate(fh, start=2):
            rec = _parse_line(line, path, lineno)
            lengths = {key: len(rec[key]) if isinstance(rec.get(key), list) else None
                       for key in columns}
            if "meta" not in rec or None in lengths.values() or len(set(lengths.values())) != 1:
                raise ValueError(f"{path}: line {lineno}: expected meta and per-step "
                                 f"lists of one length, found lengths {lengths}")
            traj = Trajectory(
                states=np.array(rec.pop("states")), actions=np.array(rec.pop("actions")),
                rewards=np.array(rec.pop("rewards")), reward_terms=rec.pop("reward_terms"),
                infractions=rec.pop("infractions"), meta=rec.pop("meta"))
            out.append((traj, rec))
    if len(out) != header.get("trajectory_count"):
        raise ValueError(f"{path}: truncated file: header promises "
                         f"{header.get('trajectory_count')} trajectories, found {len(out)}")
    return out


def _parse_line(line: str, path, lineno: int) -> dict:
    """One JSON object; an empty or cut line reads as a truncated file."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {lineno}: truncated or malformed record "
                         f"({exc})") from None
    if not isinstance(rec, dict):
        raise ValueError(f"{path}: line {lineno}: expected a JSON object")
    return rec


def save(trajs: list, path) -> None:
    write_jsonl(path, SCHEMA_VERSION, trajs)


def load(path) -> list:
    return [traj for traj, _ in read_jsonl(path, SCHEMA_VERSION)]


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
