"""Per-step uncertainty scoring and certain/uncertain trajectory segmentation.

The uncertainty of a step is the KL divergence between the return
distribution predicted *with* the current state and the one predicted from
history alone: when seeing s_t changes the forecast, the environment just
revealed something the policy could not have anticipated.  Steps whose
uncertainty exceeds a threshold seed uncertain parts; certain steps are
relabeled with truncated returns that never look across a boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import trajlog
from .return_model import ReturnDistribution, mixture_moments

SEGMENT_SCHEMA_VERSION = "segtraj-v1"

CERTAIN = "certain"
UNCERTAIN = "uncertain"

# sentinel condition carried by uncertain steps; the policy routes it to a
# learned dummy embedding instead of reading the numbers
DUMMY_H = 0
DUMMY_RH = 0.0


def gaussian_kl_array(mu_p, var_p, mu_q, var_q) -> np.ndarray:
    """Elementwise KL(p || q) for univariate Gaussians given by their moments.

    The squared mean gap goes through pow() as a scalar ``**2`` does, so each
    element equals the scalar closed form bit for bit.
    """
    if np.any(var_p <= 0) or np.any(var_q <= 0):
        raise ValueError(f"non-positive variance: min p.var={np.min(var_p)}, "
                         f"min q.var={np.min(var_q)}")
    return (0.5 * np.log(var_q / var_p)
            + (var_p + np.float_power(mu_p - mu_q, 2)) / (2.0 * var_q) - 0.5)


def gaussian_kl(p: ReturnDistribution, q: ReturnDistribution) -> float:
    """KL(p || q) for two univariate Gaussians."""
    return float(gaussian_kl_array(p.mu, p.var, q.mu, q.var))


@dataclass
class UncertaintyTrace:
    u: np.ndarray        # per-step uncertainty, >= 0
    epsilon: float

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.u.ndim != 1 or self.u.size == 0:
            raise ValueError("uncertainty trace must be a non-empty vector")
        if np.any(self.u < 0) or not np.all(np.isfinite(self.u)):
            raise ValueError("uncertainties must be finite and non-negative")

    @property
    def flags(self) -> np.ndarray:
        return self.u > self.epsilon


@dataclass(frozen=True)
class Part:
    label: str
    start: int   # inclusive, 0-based
    stop: int    # exclusive

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass
class SegmentedTrajectory:
    traj: trajlog.ReturnAnnotatedTrajectory
    u: np.ndarray
    epsilon: float
    parts: list
    h: np.ndarray        # return-span counts; 0 exactly on uncertain steps
    r_h: np.ndarray      # truncated undiscounted returns; dummy 0.0 when h=0

    def __len__(self) -> int:
        return len(self.traj)

    @property
    def global_returns(self) -> np.ndarray:
        return self.traj.returns_for(1.0)


def forecast_uncertainty(p: dict) -> np.ndarray:
    """u_t = KL(state-conditioned || action-conditioned) of the moment-matched
    ensemble forecasts at every step, from ``predict_trajectory``'s output."""
    mu_s, var_s = mixture_moments(p["mu_s"], p["var_s"])
    mu_a, var_a = mixture_moments(p["mu_a"], p["var_a"])
    kl = gaussian_kl_array(mu_s, var_s, mu_a, var_a)
    # clip float-cancellation negatives in the closed form
    return np.where(kl < 0.0, 0.0, kl)


def estimate_uncertainty(traj, ensemble, epsilon: float) -> UncertaintyTrace:
    p = ensemble.predict_trajectory(traj.states, traj.actions)
    return UncertaintyTrace(u=forecast_uncertainty(p), epsilon=epsilon)


def segment(trace: UncertaintyTrace, c: int) -> list:
    """Split [0, T) into alternating certain/uncertain parts.

    An uncertain part starts at a flagged step and ends once its trailing
    c-1 steps are all unflagged; those trailing steps belong to the
    uncertain part.  A trajectory may end mid-part without the full tail.
    """
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    flags = trace.flags
    T = flags.size
    parts = []
    t = 0
    while t < T:
        if not flags[t]:
            stop = t
            while stop < T and not flags[stop]:
                stop += 1
            parts.append(Part(CERTAIN, t, stop))
            t = stop
        else:
            last_flag = t
            while True:
                window = flags[last_flag + 1: min(last_flag + c, T)]
                hits = np.flatnonzero(window)
                if hits.size == 0:
                    break
                last_flag += 1 + int(hits[-1])
            stop = min(last_flag + c, T)  # last flag plus its c-1 tail
            parts.append(Part(UNCERTAIN, t, stop))
            t = stop
    # adjacent same-label parts can arise when c = 1; merge them
    merged = []
    for p in parts:
        if merged and merged[-1].label == p.label:
            merged[-1] = Part(p.label, merged[-1].start, p.stop)
        else:
            merged.append(p)
    return merged


def relabel(traj, trace: UncertaintyTrace, parts: list) -> SegmentedTrajectory:
    """Attach (h_t, R^h_t) conditions that never span a segmentation boundary.

    On certain steps h_t counts the steps to the next boundary and R^h_t is
    the undiscounted reward sum over them; uncertain steps carry the dummy
    sentinel (0, 0).
    """
    T = len(traj)
    if trace.u.size != T:
        raise ValueError(f"trace length {trace.u.size} != trajectory length {T}")
    if not isinstance(traj, trajlog.ReturnAnnotatedTrajectory) or \
            trajlog._gamma_key(1.0) not in traj.returns:
        traj = trajlog.compute_returns(traj, 1.0)
    h = np.zeros(T, dtype=np.int64)
    r_h = np.full(T, DUMMY_RH)
    for part in parts:
        if part.label != CERTAIN:
            continue
        for t in range(part.start, part.stop):
            h[t] = part.stop - t
            r_h[t] = traj.rewards[t: part.stop].sum()
    return SegmentedTrajectory(traj=traj, u=trace.u, epsilon=trace.epsilon,
                               parts=parts, h=h, r_h=r_h)


def segment_dataset(trajs: list, ensemble, epsilon: float, c: int) -> list:
    out = []
    for traj in trajs:
        trace = estimate_uncertainty(traj, ensemble, epsilon)
        out.append(relabel(traj, trace, segment(trace, c)))
    return out


# ---------------------------------------------------------------------------
# Persistence: trajectory schema extended with per-step segmentation columns
# ---------------------------------------------------------------------------


def save_segmented(segs: list, path) -> None:
    with open(path, "w") as fh:
        header = {"record": "header", "schema_version": SEGMENT_SCHEMA_VERSION,
                  "trajectory_count": len(segs)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for seg in segs:
            traj = seg.traj
            tmeta = {
                "record": "trajectory", "length": len(traj), "meta": traj.meta,
                "epsilon": seg.epsilon,
                "parts": [[p.label, p.start, p.stop] for p in seg.parts],
            }
            fh.write(json.dumps(tmeta, sort_keys=True) + "\n")
            R = seg.global_returns
            for t in range(len(traj)):
                rec = {
                    "record": "step",
                    "state": traj.states[t].tolist(),
                    "action": traj.actions[t].tolist(),
                    "reward": float(traj.rewards[t]),
                    "u": float(seg.u[t]),
                    "flag": bool(seg.u[t] > seg.epsilon),
                    "h": int(seg.h[t]),
                    "r_h": float(seg.r_h[t]),
                    "global_return": float(R[t]),
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_segmented(path) -> list:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty segmented dataset file")
    header = json.loads(lines[0])
    found = header.get("schema_version")
    if header.get("record") != "header" or found != SEGMENT_SCHEMA_VERSION:
        raise ValueError(f"{path}: schema version mismatch: expected "
                         f"{SEGMENT_SCHEMA_VERSION!r}, found {found!r}")
    segs = []
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
        rows = [json.loads(lines[i + j]) for j in range(T)]
        i += T
        traj = trajlog.compute_returns(trajlog.Trajectory(
            states=np.array([r["state"] for r in rows]),
            actions=np.array([r["action"] for r in rows]),
            rewards=np.array([r["reward"] for r in rows]),
            reward_terms=[{} for _ in rows],
            infractions=[None] * T,
            meta=tmeta["meta"],
        ), gamma=1.0)
        segs.append(SegmentedTrajectory(
            traj=traj,
            u=np.array([r["u"] for r in rows]),
            epsilon=tmeta["epsilon"],
            parts=[Part(label, start, stop) for label, start, stop in tmeta["parts"]],
            h=np.array([r["h"] for r in rows], dtype=np.int64),
            r_h=np.array([r["r_h"] for r in rows]),
        ))
    if len(segs) != header["trajectory_count"]:
        raise ValueError(f"{path}: truncated file: header promises "
                         f"{header['trajectory_count']} trajectories, found {len(segs)}")
    return segs
