"""The three workloads: set-up, one timed unit of work, checks and metrics.

Every workload is a closed loop with one client: each call waits for the
previous one, as in the pipeline itself.  A workload's ``setup`` builds its
inputs from the workload seed and fixed model seeds, and returns a state whose
``artifacts`` make the set-up's digest.  ``work`` runs one fixed unit of work;
``check`` then verifies its outputs, outside any tracing, and returns a
``Unit``: its operations (trainer runs, episodes or trajectories), how many
failed, and a digest of what they produced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from segdt import cli, evaluator, segmenter, trajlog
from segdt.autodiff import no_grad
from segdt.env import EnvConfig, ExpertConfig
from segdt.evaluator import PlannedActor
from segdt.manifest import hash_artifact
from segdt.planner import (KdUncertaintyIndex, PlannerConfig,
                           TargetReturnPredictor, initial_global_target)
from segdt.policy import Policy
from segdt.return_model import ReturnEnsemble

# configs/default architecture: 64-d, 2 layers, 4 heads, 10-step windows
DEFAULT_ARCH = {"n_layers": 2, "n_heads": 4, "embed_dim": 64, "seq_length": 10,
                "dropout": 0.1, "batch_size": 64}
SMOKE_ARCH = {"n_layers": 1, "n_heads": 2, "embed_dim": 16, "seq_length": 5,
              "dropout": 0.0, "batch_size": 32}
# the small ensemble that segments set-up data; larger ones make segmentation
# swamp everything else (about 0.33 s per trajectory at K=5, 64-d)
SEGMENTING_ENSEMBLE = dict(SMOKE_ARCH, ensemble_size=2, epochs=1, iters_per_epoch=20)
UNCERTAIN_QUANTILE = "0.95"   # dataset: epsilon = this u quantile from calibrate
# set-up epsilon: the u quantile at which rollout's gate fires on a few
# percent of steps (about 3%; 0.95 gave 19% and 0.99 gave 0.2%)
GATE_QUANTILE = 0.975
SEGMENT_C = 3
PREDICTOR_ARCH = {"knn": 5, "hidden_dim": 64, "n_hidden": 2, "ensemble_size": 5,
                  "batch_size": 128, "span_max": 100}
PLANNER = {"span_horizon": 100, "eta": 0.7, "history_length": 5,
           "target_quantile": 0.7}

# per workload: real sizes, and the seconds-long quick mode of the same code
SIZES = {
    "train": {
        False: {"episodes": 60, "heldout": 40, "arch": DEFAULT_ARCH,
                "return_members": 2, "return_iters": 5, "policy_iters": 16,
                "predictor_members": 5, "predictor_iters": 40,
                "quality_windows": 4096},
        True: {"episodes": 10, "heldout": 3, "arch": SMOKE_ARCH,
               "return_members": 2, "return_iters": 2, "policy_iters": 2,
               "predictor_members": 2, "predictor_iters": 5,
               "quality_windows": 32},
    },
    "rollout": {
        False: {"episodes": 60, "arch": DEFAULT_ARCH, "policy_iters": 16,
                "predictor_members": 5, "predictor_iters": 40,
                "eval_episodes": 40},
        True: {"episodes": 10, "arch": SMOKE_ARCH, "policy_iters": 2,
               "predictor_members": 2, "predictor_iters": 5,
               "eval_episodes": 2},
    },
    "dataset": {
        # 200 episodes a unit, so a run fits three: a single criterion-10-scale
        # pass (750 episodes, 25 s) gave one noisy sample per run
        False: {"setup_episodes": 40, "episodes": 200},
        True: {"setup_episodes": 10, "episodes": 12},
    },
}
# Model seeds are fixed: at these short budgets a model's init moves its
# quality more than its data does.  The workload seed generates the data.
MODEL_SEED = 0
# rollout evaluates one planner, trained from a fixed data seed; its workload
# seed picks the held-out episodes, from seeds no collection uses
FIXTURE_DATA_SEED = 0
EPISODE_SEED_BASE = 1_000_000
TRAIN_DELTA = 0.1      # configs/default collect delta
ROLLOUT_DELTA = 0.2    # the stochastic setting of acceptance criterion 8


class StageFailed(RuntimeError):
    pass


def run_cli(*argv) -> None:
    """One pipeline stage in process, through the same entry point as `segdt`."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise StageFailed(f"segdt {argv[0]} exited with code {code}")


def attempt(fn, *args):
    """(True, result), or (False, None) with the traceback on stderr: any
    error the library raises is a failed operation, not a failed run."""
    try:
        return True, fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, None


def write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def all_finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=np.float64))) for v in values)


class Unit:
    """One checked unit of work: its timed seconds, its operations, how many
    failed, a digest of what it produced, and workload-specific figures."""

    def __init__(self, seconds: float, attempted: int, failed: int, digest: str,
                 **figures):
        self.seconds = seconds
        self.attempted = attempted
        self.failed = failed
        self.digest = digest
        self.figures = figures


# ---------------------------------------------------------------------------
# Shared set-up: collect, train the segmenting ensemble, pick epsilon, segment
# ---------------------------------------------------------------------------


def collect(d: Path, name: str, episodes: int, delta: float, base_seed: int) -> Path:
    out = d / f"{name}.jsonl"
    run_cli("collect", "--episodes", episodes, "--delta", delta,
            "--seed", base_seed, "--out", out)
    return out


def train_segmenting_ensemble(d: Path, dataset: Path) -> Path:
    ens = d / "segmenting_ensemble"
    run_cli("train-return", "--config", write_config(d / "segmenting.cfg", SEGMENTING_ENSEMBLE),
            "--dataset", dataset, "--out", ens, "--seed", MODEL_SEED)
    return ens


def segmenting_ensemble(d: Path, dataset: Path) -> tuple:
    """Train the small ensemble; epsilon is a quantile of u over the data."""
    ens = train_segmenting_ensemble(d, dataset)
    ensemble = ReturnEnsemble.load(ens)
    u = np.concatenate([segmenter.estimate_uncertainty(t, ensemble, 0.0).u
                        for t in trajlog.load(dataset)])
    return ens, float(np.quantile(u, GATE_QUANTILE))


def segment(d: Path, name: str, dataset: Path, ens: Path, epsilon: float) -> Path:
    out = d / f"{name}.seg.jsonl"
    run_cli("segment", "--dataset", dataset, "--ensemble", ens,
            "--epsilon", repr(epsilon), "--c", SEGMENT_C, "--out", out)
    return out


# ---------------------------------------------------------------------------
# train: the three trainers at the default architecture
# ---------------------------------------------------------------------------


class TrainWorkload:
    """Compute-bound: tape, backward, AdamW and window sampling do the work."""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.size = SIZES["train"][quick]
        self.quality = {}

    def setup(self, d: Path) -> dict:
        sz, base = self.size, 1000 * self.seed
        data = collect(d, "data", sz["episodes"], TRAIN_DELTA, base)
        heldout = collect(d, "heldout", sz["heldout"], TRAIN_DELTA, base + 500)
        ens, epsilon = segmenting_ensemble(d, data)
        arch = sz["arch"]
        configs = {
            "return": write_config(d / "return.cfg", dict(
                arch, ensemble_size=sz["return_members"], epochs=1,
                iters_per_epoch=sz["return_iters"])),
            "policy": write_config(d / "policy.cfg", dict(
                arch, kind="unrest", epochs=1, iters_per_epoch=sz["policy_iters"])),
            "index": write_config(d / "index.cfg", dict(
                PREDICTOR_ARCH, ensemble_size=sz["predictor_members"],
                iters=sz["predictor_iters"], seed=MODEL_SEED)),
        }
        segmented = segment(d, "data", data, ens, epsilon)
        heldout_segmented = segment(d, "heldout", heldout, ens, epsilon)
        return {"dir": d, "data": data, "heldout": heldout, "configs": configs,
                "segmented": segmented, "heldout_segmented": heldout_segmented,
                "artifacts": [data, heldout, segmented, heldout_segmented]}

    def windows(self, stage: str) -> int:
        sz, batch = self.size, self.size["arch"]["batch_size"]
        if stage == "return":
            return sz["return_members"] * sz["return_iters"] * batch
        return sz["policy_iters"] * batch

    def work(self, state: dict) -> dict:
        d, cfg = state["dir"] / "cycle", state["configs"]
        d.mkdir(exist_ok=True)
        out = {"ensemble": d / "ensemble", "policy": d / "policy.json",
               "index": d / "index.npz", "predictor": d / "predictor"}
        stages = {
            "return": ("train-return", "--config", cfg["return"], "--dataset",
                       state["data"], "--out", out["ensemble"], "--seed", MODEL_SEED),
            "policy": ("train-policy", "--config", cfg["policy"], "--segmented",
                       state["segmented"], "--out", out["policy"], "--seed", MODEL_SEED),
            "predictor": ("build-kdtree", "--config", cfg["index"], "--segmented",
                          state["segmented"], "--out", out["index"],
                          "--predictor-out", out["predictor"]),
        }
        stage_s, failed = {}, 0
        for name, argv in stages.items():
            t0 = time.perf_counter()
            ok, _ = attempt(run_cli, *argv, "--force")
            stage_s[name] = time.perf_counter() - t0
            failed += not ok
        return {"out": out, "stage_s": stage_s, "failed": failed}

    def check(self, state: dict, done: dict, first: bool) -> Unit:
        out, stage_s = done["out"], done["stage_s"]
        seconds, attempted = sum(stage_s.values()), len(stage_s)
        if done["failed"]:
            return Unit(seconds, attempted, done["failed"], "failed", stages=stage_s)
        ok, passed = attempt(self.verify, state, out, first)
        return Unit(seconds, attempted, int(not (ok and passed)),
                    digest(*(hash_artifact(p) for p in out.values())), stages=stage_s)

    def verify(self, state: dict, out: dict, first: bool) -> bool:
        history = json.loads((out["ensemble"] / "training_history.json").read_text())
        ok = all_finite(history["heldout_nll"])
        if not first:
            return ok
        # quality after a fixed number of samples, on held-out episodes
        ens = ReturnEnsemble.load(out["ensemble"])
        gamma = ens.config.discount
        heldout = trajlog.annotate_dataset(trajlog.load(state["heldout"]), gammas=(gamma,))
        self.quality["heldout_nll"] = evaluator.calibrate(ens, heldout, gamma)["ensemble"]["nll"]
        policy = Policy.load(out["policy"])
        self.quality["policy_mse"] = policy_mse(
            policy, segmenter.load_segmented(state["heldout_segmented"]),
            self.size["quality_windows"], np.random.default_rng(self.seed))
        predictor = TargetReturnPredictor.load(out["predictor"])
        index = KdUncertaintyIndex.load(out["index"])
        probe = [t.states[0] for t in heldout]
        forecasts = [predictor.predict_target(s, PLANNER["span_horizon"], PLANNER["eta"])
                     for s in probe]
        u = [index.query(s) for s in probe]
        return ok and all_finite(list(self.quality.values()), forecasts, u) \
            and min(u) >= 0.0

    def metrics(self, units: list) -> dict:
        per_s = {name: float(np.median([self.windows(name) / u.figures["stages"][name]
                                        for u in units]))
                 for name in ("return", "policy")}
        both = float(np.median([
            (self.windows("return") + self.windows("policy"))
            / (u.figures["stages"]["return"] + u.figures["stages"]["policy"])
            for u in units]))
        return {
            "train_windows_per_s": (both, "1/s"),
            "return_windows_per_s": (per_s["return"], "1/s"),
            "policy_windows_per_s": (per_s["policy"], "1/s"),
            "heldout_nll": (self.quality.get("heldout_nll", float("nan")), "nats"),
            "policy_mse": (self.quality.get("policy_mse", float("nan")), "1"),
        }


def policy_mse(policy: Policy, segs: list, windows: int, rng, chunk: int = 512) -> float:
    """Masked action MSE in the normalized action space, as train_policy
    scores it, over windows sampled from held-out segmented episodes."""
    nrm = policy.normalizer
    b = trajlog.sample_window(
        [s.traj for s in segs], policy.config.seq_length, windows, rng,
        columns={"h": [s.h for s in segs], "r_h": [s.r_h for s in segs],
                 "R_raw": [s.global_returns for s in segs]})
    mask = b["mask"][..., None]
    target = nrm.norm_actions(b["actions"]) * mask
    b.update(states=nrm.norm_states(b["states"]) * mask, actions=target,
             r_h=nrm.norm_rh(b["r_h"]), R=nrm.norm_R(b["R_raw"]))
    squared = 0.0
    with no_grad():
        for i in range(0, windows, chunk):
            part = {k: v[i:i + chunk] for k, v in b.items()}
            pred = policy.model.forward(dict(part, R_bounds=nrm.R_bounds)).data
            squared += (((pred - target[i:i + chunk]) * mask[i:i + chunk]) ** 2).sum()
    return float(squared / (mask.sum() * target.shape[-1]))


# ---------------------------------------------------------------------------
# rollout: closed-loop unrest episodes through the KD-gated planner
# ---------------------------------------------------------------------------


class TimedActor:
    """Times each decision of the wrapped actor."""

    def __init__(self, actor):
        self.actor = actor
        self.decision_s = []

    def reset(self, seed: int):
        self.actor.reset(seed)

    def act(self, state, prev_reward):
        t0 = time.perf_counter()
        action = self.actor.act(state, prev_reward)
        self.decision_s.append(time.perf_counter() - t0)
        return action


def trace_ok(trace: list, epsilon: float, span_horizon: int) -> bool:
    """Acceptance criterion 9's planner invariants on one episode's trace."""
    return all(
        rec["R"] >= 0.0 and 1 <= rec["h"] <= span_horizon
        and rec["dummy"] == (rec["uncertainty"] > epsilon or rec["predictor_failed"])
        and all_finite(rec["R"], rec["R_unclamped"], rec["r_h"], rec["uncertainty"])
        for rec in trace)


class RolloutWorkload:
    """Batch-1, forward-only inference under no_grad: plan_step, the KD
    query, Policy.act, predict_target and HighwayEnv.step do the work."""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.size = SIZES["rollout"][quick]
        self.scores = []          # driving scores of the first pass

    def setup(self, d: Path) -> dict:
        sz = self.size
        data = collect(d, "data", sz["episodes"], ROLLOUT_DELTA, FIXTURE_DATA_SEED)
        ens, epsilon = segmenting_ensemble(d, data)
        segmented = segment(d, "data", data, ens, epsilon)
        policy, index, predictor = d / "policy.json", d / "index.npz", d / "predictor"
        run_cli("train-policy", "--config", write_config(d / "policy.cfg", dict(
                    sz["arch"], kind="unrest", epochs=1,
                    iters_per_epoch=sz["policy_iters"])),
                "--segmented", segmented, "--out", policy, "--seed", MODEL_SEED)
        run_cli("build-kdtree", "--config", write_config(d / "index.cfg", dict(
                    PREDICTOR_ARCH, ensemble_size=sz["predictor_members"],
                    iters=sz["predictor_iters"], seed=MODEL_SEED)),
                "--segmented", segmented, "--out", index, "--predictor-out", predictor)
        # what `segdt evaluate` loads before its first episode
        loaded_index = KdUncertaintyIndex.load(index)
        config = PlannerConfig(
            span_horizon=PLANNER["span_horizon"], eta=PLANNER["eta"],
            epsilon=loaded_index.epsilon, knn=loaded_index.k,
            history_length=PLANNER["history_length"])
        actor = PlannedActor(
            Policy.load(policy), loaded_index, TargetReturnPredictor.load(predictor),
            config, initial_target=initial_global_target(
                trajlog.load(data), PLANNER["target_quantile"]))
        return {"actor": TimedActor(actor), "config": config,
                "artifacts": [data, segmented, policy, index, predictor]}

    def episode_seeds(self) -> range:
        start = EPISODE_SEED_BASE + 1000 * self.seed
        return range(start, start + self.size["eval_episodes"])

    def work(self, state: dict) -> list:
        actor, env_config = state["actor"], EnvConfig(delta=ROLLOUT_DELTA)
        episodes = []
        for seed in self.episode_seeds():
            actor.decision_s = []
            t0 = time.perf_counter()
            ok, result = attempt(evaluator.run_episode, env_config, actor, seed)
            episodes.append((seed, time.perf_counter() - t0, result,
                             actor.actor.trace, actor.decision_s))
        return episodes

    def check(self, state: dict, episodes: list, first: bool) -> Unit:
        config = state["config"]
        failed, steps, digests, decision_s = 0, 0, [], []
        for seed, _, result, trace, decisions in episodes:
            if result is None:
                failed += 1
                digests.append("failed")
                continue
            ok = (trace_ok(trace, config.epsilon, config.span_horizon)
                  and all_finite(result.score, result.total_return)
                  and len(trace) == result.steps)
            failed += not ok
            if first:
                self.scores.append(result.score)
            digests.append(digest(json.dumps(result.to_dict(), sort_keys=True, default=str),
                                  json.dumps(trace, sort_keys=True, default=str)))
            steps += result.steps
            decision_s.extend(decisions)
        return Unit(sum(e[1] for e in episodes), len(episodes), failed, digest(*digests),
                    steps=steps, decision_s=decision_s)

    def metrics(self, units: list) -> dict:
        ms = np.concatenate([u.figures["decision_s"] for u in units]) * 1e3
        return {
            "env_steps_per_s": (float(np.median(
                [u.figures["steps"] / u.seconds for u in units])), "1/s"),
            "decision_ms_p50": (float(np.percentile(ms, 50)), "ms", ms.size),
            "decision_ms_p99": (float(np.percentile(ms, 99)), "ms", ms.size),
            "driving_score": (float(np.mean(self.scores)) if self.scores
                              else float("nan"), "1"),
        }


# ---------------------------------------------------------------------------
# dataset: the data path, three units a run near acceptance criterion 10's scale
# ---------------------------------------------------------------------------


def same_trajectory(a, b) -> bool:
    return (np.array_equal(a.states, b.states) and np.array_equal(a.actions, b.actions)
            and np.array_equal(a.rewards, b.rewards) and a.meta == b.meta
            and a.reward_terms == b.reward_terms and a.infractions == b.infractions)


def relabel_ok(seg) -> bool:
    """r_h[t] == rewards[t:stop].sum() on every certain step, bit for bit."""
    rewards = seg.traj.rewards
    return all(seg.r_h[t] == rewards[t:p.stop].sum() and seg.h[t] == p.stop - t
               for p in seg.parts if p.label == segmenter.CERTAIN
               for t in range(p.start, p.stop))


class DatasetWorkload:
    """Data-bound, writes beside reads: env and expert, trajlog and segmenter
    serialization, batched predict_trajectory and manifest hashing."""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.size = SIZES["dataset"][quick]

    def setup(self, d: Path) -> dict:
        data = collect(d, "setup", self.size["setup_episodes"], TRAIN_DELTA,
                       1000 * self.seed + 900)
        ens = train_segmenting_ensemble(d, data)
        return {"dir": d, "ensemble": ens, "artifacts": [data, ens]}

    def work(self, state: dict) -> dict:
        d = state["dir"] / "pass"
        d.mkdir(exist_ok=True)
        paths = {"jsonl": d / "data.jsonl", "npz": d / "data.npz",
                 "calibration": d / "calibration.json", "segmented": d / "seg.jsonl"}
        done = {"dir": d, "paths": paths, "stages": {}}

        def timed(stage, fn, *args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                done["stages"][stage] = time.perf_counter() - t0

        try:
            done["trajs"] = timed("collect", trajlog.collect_dataset,
                                  EnvConfig(delta=TRAIN_DELTA), ExpertConfig(),
                                  self.size["episodes"], 1000 * self.seed)
            timed("save", trajlog.save, done["trajs"], paths["jsonl"])
            done["loaded"] = timed("load", trajlog.load, paths["jsonl"])
            timed("save_binary", trajlog.save_binary, done["loaded"], paths["npz"])
            done["packed"] = timed("load_binary", trajlog.load_binary, paths["npz"])
            timed("calibrate", run_cli, "calibrate", "--dataset", paths["jsonl"],
                  "--ensemble", state["ensemble"], "--out", paths["calibration"], "--force")
            epsilon = json.loads(paths["calibration"].read_text())[
                "uncertainty"]["quantiles"][UNCERTAIN_QUANTILE]
            timed("segment", run_cli, "segment", "--dataset", paths["jsonl"], "--ensemble",
                  state["ensemble"], "--epsilon", repr(epsilon), "--c", SEGMENT_C,
                  "--out", paths["segmented"], "--force")
            segs = done["segs"] = timed("load_segmented", segmenter.load_segmented,
                                        paths["segmented"])
            done["index"] = timed(
                "kd_build", KdUncertaintyIndex.build, [s.traj for s in segs],
                [segmenter.UncertaintyTrace(s.u, s.epsilon) for s in segs],
                PREDICTOR_ARCH["knn"], epsilon)
        except Exception:   # a failed stage fails every trajectory of the pass
            traceback.print_exc(file=sys.stderr)
            done["failed"] = True
        return done

    def check(self, state: dict, done: dict, first: bool) -> Unit:
        n = self.size["episodes"]
        if done.get("failed"):
            return Unit(sum(done["stages"].values()), n, n, "failed", steps=0,
                        stages=done["stages"])
        trajs, segs, paths = done["trajs"], done["segs"], done["paths"]
        resaved = done["dir"] / "seg.resaved.jsonl"
        segmenter.save_segmented(segs, resaved)
        segmented_same = resaved.read_bytes() == paths["segmented"].read_bytes()
        u = [done["index"].query(t.states[0]) for t in trajs]
        failed = n - min(len(trajs), len(done["loaded"]), len(done["packed"]), len(segs))
        for traj, back, unpacked, seg in zip(trajs, done["loaded"], done["packed"], segs):
            failed += not (segmented_same and same_trajectory(traj, back)
                           and same_trajectory(traj, unpacked)
                           and np.array_equal(seg.traj.states, traj.states)
                           and np.array_equal(seg.traj.rewards, traj.rewards)
                           and all_finite(seg.u) and relabel_ok(seg))
        if not all_finite(u) or min(u) < 0.0:
            failed = n
        return Unit(sum(done["stages"].values()), n, failed,
                    digest(*(hash_artifact(p) for p in paths.values()), repr(u)),
                    steps=sum(len(t) for t in trajs), stages=done["stages"])

    def metrics(self, units: list) -> dict:
        return {"dataset_steps_per_s": (float(np.median(
            [u.figures["steps"] / u.seconds for u in units])), "1/s")}


WORKLOADS = {"train": TrainWorkload, "rollout": RolloutWorkload,
             "dataset": DatasetWorkload}
