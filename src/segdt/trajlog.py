"""Trajectory persistence, return annotation, and window sampling.

Storage is one schema-versioned columnar codec, ``write_columns`` /
``read_columns``, in the one ``archive`` container: ``lengths`` (steps per
trajectory), the per-step columns flat in trajectory order, the reward terms
as a float matrix with a presence mask over the sorted union of term names,
and ``infractions`` and ``meta`` as one sorted-key JSON text each.  A file
is read in one pass and every trajectory's arrays, its reward-term columns
included, are views of its flat columns; every float survives the round trip
bit for bit.  In memory a trajectory holds its reward terms as those same
three columns (``term_names``, ``term_values``, ``term_present``), never as
per-step dicts: ``Trajectory.reward_terms`` is a view built on demand, which
no library code reads.  Segmented files (``segmenter``) add their own columns
under their own schema version.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import itemgetter

import numpy as np

from . import archive, nn
from .env import STATE_DIM, ACTION_DIM

SCHEMA_VERSION = "traj-v3"


class Trajectory:
    """One episode's steps: ``states`` (T, 12), ``actions`` (T, 2), ``rewards``
    (T,), ``infractions`` (T entries, str | None) and the trajectory's ``meta``.

    The reward terms are three columns, as in the archive: ``term_names`` (a
    tuple of n str), ``term_values`` ((T, n) float64, 0.0 where a step lacks
    the term) and ``term_present`` ((T, n) bool).  A trajectory is built from
    those columns, or from ``reward_terms``, T dicts of term name to value;
    assigning ``reward_terms`` replaces the columns.  Reading it builds the
    dicts from the columns, in column order, on every read; no library code
    reads it.  A value that is not a float stays in an object column until
    ``write_columns`` rejects it.
    """

    def __init__(self, *, states, actions, rewards, infractions, meta=None, reward_terms=None,
                 term_names=(), term_values=None, term_present=None):
        self.states = np.asarray(states, dtype=np.float64)
        self.actions = np.asarray(actions, dtype=np.float64)
        self.rewards = np.asarray(rewards, dtype=np.float64)
        self.infractions = infractions
        self.meta = {} if meta is None else meta
        if reward_terms is not None:
            self.reward_terms = reward_terms
        else:
            self.term_names = tuple(term_names)
            self.term_values = np.asarray(term_values)
            self.term_present = np.asarray(term_present, dtype=bool)
        if len(self) == 0:
            raise ValueError("trajectory must contain at least one step")
        counts = {name: len(getattr(self, name)) for name in
                  ("actions", "rewards", "term_values", "term_present", "infractions")}
        if set(counts.values()) != {len(self)}:
            raise ValueError(f"trajectory has {len(self)} states but per-step "
                             f"entries {counts}")
        shape = (len(self), len(self.term_names))
        if self.term_values.shape != shape or self.term_present.shape != shape:
            raise ValueError(f"{len(self.term_names)} term names but term columns of shapes "
                             f"{self.term_values.shape} and {self.term_present.shape}")
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("trajectory contains non-finite rewards")

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def reward_terms(self) -> list:
        names = self.term_names
        return [dict(compress(zip(names, values), present)) for values, present in
                zip(self.term_values.tolist(), self.term_present.tolist())]

    @reward_terms.setter
    def reward_terms(self, rows) -> None:
        names = tuple(dict.fromkeys(chain.from_iterable(rows)))
        column_of = {name: j for j, name in enumerate(names)}
        values = list(chain.from_iterable(map(dict.values, rows)))
        step = np.repeat(np.arange(len(rows)), list(map(len, rows)))
        column = [column_of[name] for name in chain.from_iterable(rows)]
        floats = all(isinstance(value, float) for value in values)
        self.term_names = names
        self.term_values = np.zeros((len(rows), len(names)), dtype=float if floats else object)
        self.term_values[step, column] = np.fromiter(values, dtype=self.term_values.dtype,
                                                     count=len(values))
        self.term_present = np.zeros((len(rows), len(names)), dtype=bool)
        self.term_present[step, column] = True


class ReturnAnnotatedTrajectory(Trajectory):
    def __init__(self, *, returns=None, **steps):
        super().__init__(**steps)
        # per-step discounted returns, keyed by the discount that produced them
        self.returns = {} if returns is None else returns

    def returns_for(self, gamma: float) -> np.ndarray:
        key = _gamma_key(gamma)
        if key not in self.returns:
            raise KeyError(f"no return annotation for gamma={gamma}")
        return self.returns[key]


def _gamma_key(gamma: float) -> str:
    return repr(float(gamma))


def compute_returns(traj: Trajectory, gamma: float) -> ReturnAnnotatedTrajectory:
    """Backward-recursive discounted returns: R_t = r_t + gamma * R_{t+1}.

    At ``gamma == 1`` the recursion is a reversed cumulative sum, which adds
    in the same order; ``+ 0.0`` turns a trailing ``-0.0`` into the
    recursion's ``0.0``, so the two agree bit for bit.  Below 1 it runs on
    Python floats, whose arithmetic is numpy's float64 arithmetic.  The result
    shares every other column with ``traj``.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if gamma == 1.0:
        R = np.cumsum(traj.rewards[::-1])[::-1] + 0.0
    else:
        acc, backward = 0.0, []
        for r in reversed(traj.rewards.tolist()):
            acc = r + gamma * acc
            backward.append(acc)
        R = np.array(backward[::-1])
    existing = dict(getattr(traj, "returns", {}))
    existing[_gamma_key(gamma)] = R
    return ReturnAnnotatedTrajectory(
        states=traj.states, actions=traj.actions, rewards=traj.rewards,
        term_names=traj.term_names, term_values=traj.term_values,
        term_present=traj.term_present, infractions=traj.infractions,
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

# every file's entries, before a caller's own columns: (shape, dtype), with
# None for the step count and the number of term names
_LAYOUT = {
    "lengths": ((None,), np.int64),
    "states": ((None, STATE_DIM), np.float64),
    "actions": ((None, ACTION_DIM), np.float64),
    "rewards": ((None,), np.float64),
    "term_values": ((None, None), np.float64),
    "term_present": ((None, None), bool),
    "term_names": ((None,), str),
}
_STEP_MEMBERS = ("states", "actions", "rewards", "term_values", "term_present")


def concat_steps(per_traj, dtype=np.float64, shape=()) -> np.ndarray:
    """One flat column from per-trajectory step arrays; no trajectories give
    zero rows of the given trailing ``shape``."""
    return np.concatenate([np.empty((0, *shape), dtype=dtype), *per_traj], dtype=dtype)


def write_columns(path, schema_version: str, trajs: list, **columns) -> None:
    """Write ``trajs``, plus a caller's own named ``columns``, as one
    ``archive`` at exactly ``path``.

    Reward-term names must be str and their values float, so that no round
    trip changes a type.  Each trajectory's term columns go into the sorted
    union of term names as one block.
    """
    for t in trajs:
        if t.term_values.dtype != np.float64 or not all(isinstance(n, str) for n in t.term_names):
            for name, value in chain.from_iterable(map(dict.items, t.reward_terms)):
                if not isinstance(name, str) or not isinstance(value, float):
                    raise ValueError(f"{path}: reward term {name!r} = {value!r}: term names "
                                     f"must be str and values float")
    names = sorted(set(chain.from_iterable(t.term_names for t in trajs)))
    column_of = {name: j for j, name in enumerate(names)}
    lengths = np.array([len(t) for t in trajs], dtype=np.int64)
    term_values = np.zeros((int(lengths.sum()), len(names)))
    term_present = np.zeros(term_values.shape, dtype=bool)
    for t, end in zip(trajs, np.cumsum(lengths).tolist()):
        block = (slice(end - len(t), end), [column_of[name] for name in t.term_names])
        term_values[block] = t.term_values
        term_present[block] = t.term_present
    archive.write(
        path, schema_version,
        lengths=lengths,
        states=concat_steps([t.states for t in trajs], shape=(STATE_DIM,)),
        actions=concat_steps([t.actions for t in trajs], shape=(ACTION_DIM,)),
        rewards=concat_steps([t.rewards for t in trajs]),
        term_values=term_values,
        term_present=term_present,
        term_names=np.array(names, dtype=str),
        infractions=[t.infractions for t in trajs],
        meta=[t.meta for t in trajs],
        **columns,
    )


def read_columns(path, schema_version: str, step_columns=None, other_columns=None) -> tuple:
    """Read a file written by ``write_columns``.

    Returns the trajectories, whose step arrays and reward-term columns are
    views of the archive's flat columns, and a dict of the caller's columns:
    each of ``step_columns`` (name to dtype; flat one-dimensional step
    columns) as per-trajectory views, each of ``other_columns`` (name to
    (shape, dtype), as ``archive.read`` takes them) as stored.  The archive
    must hold exactly these entries, and every step column must have as many
    rows as ``lengths`` sums to.
    """
    step_columns, other_columns = step_columns or {}, other_columns or {}
    arrays = archive.read(
        path, schema_version,
        {**_LAYOUT, **{key: ((None,), dtype) for key, dtype in step_columns.items()},
         **other_columns},
        json_entries=("infractions", "meta"))
    lengths = arrays["lengths"]
    steps, n_names = int(lengths.sum()), len(arrays["term_names"])
    shapes = {key: arrays[key].shape for key in (*_STEP_MEMBERS, *step_columns)}
    wanted = {"states": (steps, STATE_DIM), "actions": (steps, ACTION_DIM), "rewards": (steps,),
              "term_values": (steps, n_names), "term_present": (steps, n_names),
              **{key: (steps,) for key in step_columns}}
    if np.any(lengths < 1) or shapes != wanted:
        raise ValueError(f"{path}: lengths sum to {steps} steps over {lengths.size} "
                         f"trajectories, stored step columns have shapes {shapes}")
    metas, infs = arrays["meta"], arrays["infractions"]
    if len(metas) != len(lengths) or [len(x) for x in infs] != lengths.tolist():
        raise ValueError(f"{path}: lengths {lengths.tolist()} disagree with "
                         f"{len(metas)} meta records and infraction counts "
                         f"{[len(x) for x in infs]}")
    ends = np.cumsum(lengths).tolist()
    spans = [(end - T, end) for T, end in zip(lengths.tolist(), ends)]
    states, actions, rewards = arrays["states"], arrays["actions"], arrays["rewards"]
    names, values, present = (tuple(arrays["term_names"].tolist()), arrays["term_values"],
                              arrays["term_present"])
    trajs = [Trajectory(states=states[a:b], actions=actions[a:b], rewards=rewards[a:b],
                        term_names=names, term_values=values[a:b], term_present=present[a:b],
                        infractions=inf, meta=meta)
             for (a, b), inf, meta in zip(spans, infs, metas)]
    columns = {key: [arrays[key][a:b] for a, b in spans] for key in step_columns}
    columns.update({key: arrays[key] for key in other_columns})
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
    """Roll the privileged rule expert for ``episodes`` seeded episodes.

    An episode is a function of its seed alone (its own env, expert and
    expert reseed), so the episodes run over ``nn.map_chunks``' workers and
    come back in seed order, bitwise as a serial loop makes them.  A worker
    sends the reward terms back as one float matrix, which its trajectory
    keeps as ``term_values`` under the env's term order; no per-step dict is
    built.
    """
    from .env import ENV_VERSION, EXPERT_VERSION, REWARD_TERMS, HighwayEnv, RuleExpert

    term_values = itemgetter(*REWARD_TERMS)

    def episode(k: int) -> tuple:
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
            terms.append(term_values(out.reward_terms))
            infs.append(out.infraction)
            state = out.state
            if out.done:
                break
        meta = {
            "seed": seed,
            "env_version": ENV_VERSION,
            "expert_version": EXPERT_VERSION,
            "delta": env_config.delta,
            "lead_reveal_step": env.lead_reveal_step,
            "route_completion": env.route_completion,
        }
        return np.array(states), np.array(actions), np.array(rewards), np.array(terms), infs, meta

    return [Trajectory(states=states, actions=actions, rewards=rewards, infractions=infs,
                       term_names=REWARD_TERMS, term_values=terms,
                       term_present=np.ones(terms.shape, dtype=bool), meta=meta)
            for states, actions, rewards, terms, infs, meta in nn.map_chunks(episode, episodes)]
