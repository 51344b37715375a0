"""Trajectory persistence, return annotation, and window sampling.

Storage is one schema-versioned columnar codec, ``write_columns`` /
``read_columns``: an uncompressed npz archive holding ``lengths`` (steps per
trajectory), the per-step columns flat in trajectory order, the reward terms
as a float matrix with a presence mask over the sorted union of term names,
and ``infractions`` and ``meta`` as one sorted-key JSON text each.  A file
is read in one pass and every trajectory's arrays are views of its flat
columns; every float survives the round trip bit for bit.  Segmented files
(``segmenter``) add their own columns under their own schema version.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from itertools import chain, compress, cycle, islice

import numpy as np

from .env import STATE_DIM, ACTION_DIM

SCHEMA_VERSION = "traj-v3"


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
        counts = {name: len(getattr(self, name))
                  for name in ("actions", "rewards", "reward_terms", "infractions")}
        if set(counts.values()) != {len(self)}:
            raise ValueError(f"trajectory has {len(self)} states but per-step "
                             f"entries {counts}")
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

# the members every file holds, before a caller's own columns
_STEP_MEMBERS = ("states", "actions", "rewards", "term_values", "term_present")
_MEMBERS = ("schema_version", "lengths", *_STEP_MEMBERS, "term_names", "infractions", "meta")


def concat_steps(per_traj, dtype=np.float64, shape=()) -> np.ndarray:
    """One flat column from per-trajectory step arrays; no trajectories give
    zero rows of the given trailing ``shape``."""
    return np.concatenate([np.empty((0, *shape), dtype=dtype), *per_traj], dtype=dtype)


def _json_bytes(obj) -> np.ndarray:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return np.frombuffer(text.encode(), dtype=np.uint8)


def write_columns(path, schema_version: str, trajs: list, **columns) -> None:
    """Write ``trajs``, plus a caller's own named ``columns``, as one
    uncompressed npz archive at exactly ``path``.

    Reward-term names must be str and their values float, so that no round
    trip changes a type.  The archive's entries carry a fixed timestamp, so
    equal inputs give equal bytes.
    """
    rows = [terms for t in trajs for terms in t.reward_terms]
    names = list(chain.from_iterable(rows))
    values = list(chain.from_iterable(map(dict.values, rows)))
    if not (all(issubclass(kind, str) for kind in set(map(type, names)))
            and all(issubclass(kind, float) for kind in set(map(type, values)))):
        name, value = next((name, value) for name, value in zip(names, values)
                           if not isinstance(name, str) or not isinstance(value, float))
        raise ValueError(f"{path}: reward term {name!r} = {value!r}: term names must be "
                         f"str and values float")
    columns_of = {name: j for j, name in enumerate(sorted(set(names)))}
    step_of = np.repeat(np.arange(len(rows)), list(map(len, rows)))
    column = np.array([columns_of[name] for name in names], dtype=np.int64)
    term_values = np.zeros((len(rows), len(columns_of)))
    term_values[step_of, column] = values
    term_present = np.zeros((len(rows), len(columns_of)), dtype=bool)
    term_present[step_of, column] = True
    with open(path, "wb") as fh:   # a file handle: savez appends no .npz suffix
        np.savez(
            fh,
            schema_version=np.array(schema_version),
            lengths=np.array([len(t) for t in trajs], dtype=np.int64),
            states=concat_steps([t.states for t in trajs], shape=(STATE_DIM,)),
            actions=concat_steps([t.actions for t in trajs], shape=(ACTION_DIM,)),
            rewards=concat_steps([t.rewards for t in trajs]),
            term_values=term_values,
            term_present=term_present,
            term_names=np.array(list(columns_of), dtype=str),
            infractions=_json_bytes([t.infractions for t in trajs]),
            meta=_json_bytes([t.meta for t in trajs]),
            **columns,
        )


def _read_archive(path) -> dict:
    """Every member of the npz archive at ``path``, each read once."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise ValueError(f"{path}: not an npz archive; files of an earlier format "
                             f"must be collected and segmented again")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                return {name: archive[name] for name in archive.files}
        except (EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: cut or corrupt archive "
                             f"({type(exc).__name__}: {exc})") from None


def read_columns(path, schema_version: str, step_keys=(), other_keys=()) -> tuple:
    """Read a file written by ``write_columns``.

    Returns the trajectories, whose step arrays are views of the archive's
    flat columns, and a dict of the caller's columns: each of ``step_keys``
    (flat one-dimensional step columns) as per-trajectory views, each of
    ``other_keys`` as stored.  The archive must hold exactly these members,
    and every step column must have as many rows as ``lengths`` sums to.
    """
    arrays = _read_archive(path)
    found = str(arrays["schema_version"]) if "schema_version" in arrays else None
    if found != schema_version:
        raise ValueError(f"{path}: schema version mismatch: expected "
                         f"{schema_version!r}, found {found!r}")
    expected = {*_MEMBERS, *step_keys, *other_keys}
    if set(arrays) != expected:
        raise ValueError(f"{path}: missing members {sorted(expected - set(arrays))}, "
                         f"unexpected members {sorted(set(arrays) - expected)}")
    lengths = arrays["lengths"]
    steps, n_names = int(lengths.sum()), len(arrays["term_names"])
    shapes = {key: arrays[key].shape for key in (*_STEP_MEMBERS, *step_keys)}
    wanted = {"states": (steps, STATE_DIM), "actions": (steps, ACTION_DIM), "rewards": (steps,),
              "term_values": (steps, n_names), "term_present": (steps, n_names),
              **{key: (steps,) for key in step_keys}}
    if lengths.ndim != 1 or np.any(lengths < 1) or shapes != wanted:
        raise ValueError(f"{path}: lengths sum to {steps} steps over {lengths.size} "
                         f"trajectories, stored step columns have shapes {shapes}")
    metas = json.loads(arrays["meta"].tobytes())
    infs = json.loads(arrays["infractions"].tobytes())
    if len(metas) != len(lengths) or [len(x) for x in infs] != lengths.tolist():
        raise ValueError(f"{path}: lengths {lengths.tolist()} disagree with "
                         f"{len(metas)} meta records and infraction counts "
                         f"{[len(x) for x in infs]}")
    names = arrays["term_names"].tolist()
    # one flat stream of (name, value) pairs, cut into each step's dict
    present = arrays["term_present"]
    named = compress(zip(cycle(names), arrays["term_values"].ravel().tolist()),
                     present.ravel().tolist())
    terms = [dict(islice(named, count)) for count in present.sum(axis=1).tolist()]
    ends = np.cumsum(lengths).tolist()
    spans = [(end - T, end) for T, end in zip(lengths.tolist(), ends)]
    states, actions, rewards = arrays["states"], arrays["actions"], arrays["rewards"]
    trajs = [Trajectory(states=states[a:b], actions=actions[a:b], rewards=rewards[a:b],
                        reward_terms=terms[a:b], infractions=inf, meta=meta)
             for (a, b), inf, meta in zip(spans, infs, metas)]
    columns = {key: [arrays[key][a:b] for a, b in spans] for key in step_keys}
    columns.update({key: arrays[key] for key in other_keys})
    return trajs, columns


def save(trajs: list, path) -> None:
    write_columns(path, SCHEMA_VERSION, trajs)


def load(path) -> list:
    return read_columns(path, SCHEMA_VERSION)[0]


# Former names of save/load, which `perfbench` still calls; delete them with
# benchmark v2 (ROADMAP item 1).  Aliases, not wrappers: a wrapper would make a
# traced run count one call under two names.
save_binary = save
load_binary = load


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
