"""Per-step uncertainty scoring and certain/uncertain trajectory segmentation.

The uncertainty of a step is the KL divergence between the return
distribution predicted *with* the current state and the one predicted from
history alone: when seeing s_t changes the forecast, the environment just
revealed something the policy could not have anticipated.  Steps whose
uncertainty exceeds a threshold seed uncertain parts; certain steps are
relabeled with truncated returns that never look across a boundary.

A segmented file is a ``trajlog`` archive under its own schema version that
adds the flat step columns ``u``, ``h`` and ``r_h``, one ``epsilon`` per
trajectory, and the parts as (label code, start, stop) rows with a count per
trajectory; loading recomputes the global returns, and a step's flag is
``u > epsilon``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import trajlog
from .return_model import mixture_moments

SEGMENT_SCHEMA_VERSION = "segtraj-v3"

CERTAIN = "certain"
UNCERTAIN = "uncertain"
LABELS = (CERTAIN, UNCERTAIN)   # a part's label code in segmented files

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
# Persistence: the trajlog codec plus the segmentation columns
# ---------------------------------------------------------------------------


def save_segmented(segs: list, path) -> None:
    trajlog.write_columns(
        path, SEGMENT_SCHEMA_VERSION, [seg.traj for seg in segs],
        u=trajlog.concat_steps([seg.u for seg in segs]),
        h=trajlog.concat_steps([seg.h for seg in segs], dtype=np.int64),
        r_h=trajlog.concat_steps([seg.r_h for seg in segs]),
        epsilon=np.array([seg.epsilon for seg in segs], dtype=np.float64),
        part_counts=np.array([len(seg.parts) for seg in segs], dtype=np.int64),
        parts=np.array([(LABELS.index(p.label), p.start, p.stop)
                        for seg in segs for p in seg.parts], dtype=np.int64).reshape(-1, 3))


def load_segmented(path) -> list:
    trajs, cols = trajlog.read_columns(path, SEGMENT_SCHEMA_VERSION, step_keys=("u", "h", "r_h"),
                                       other_keys=("epsilon", "part_counts", "parts"))
    counts = cols["part_counts"]
    if (cols["epsilon"].shape != (len(trajs),) or counts.shape != (len(trajs),)
            or cols["parts"].shape != (int(counts.sum()), 3)):
        raise ValueError(f"{path}: {len(trajs)} trajectories, but epsilon has shape "
                         f"{cols['epsilon'].shape}, part_counts {counts.shape} and parts "
                         f"{cols['parts'].shape}")
    parts = [Part(LABELS[code], start, stop) for code, start, stop in cols["parts"].tolist()]
    ends = np.cumsum(counts).tolist()
    return [SegmentedTrajectory(traj=trajlog.compute_returns(traj, 1.0), u=u, epsilon=epsilon,
                                parts=parts[end - k:end], h=h, r_h=r_h)
            for traj, u, h, r_h, epsilon, k, end in zip(
                trajs, cols["u"], cols["h"], cols["r_h"], cols["epsilon"].tolist(),
                counts.tolist(), ends)]
