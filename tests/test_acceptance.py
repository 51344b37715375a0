"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints a single machine-readable PASS/FAIL line (bypassing pytest
capture) so the gate's verdict is visible in any log.  Shared session
fixtures train the heavier artifacts once and are reused across criteria.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from segdt import cli, evaluator, nn, segmenter, trajlog
from segdt.autodiff import Tensor, concat
from segdt.env import EnvAction, EnvConfig, ExpertConfig, HighwayEnv
from segdt.manifest import hash_artifact
from segdt.planner import (KdUncertaintyIndex, PlannerConfig, PlannerState,
                           TargetPredictorConfig, TargetReturnPredictor,
                           initial_global_target, plan_step)
from segdt.policy import PolicyConfig, train_policy
from segdt.return_model import (ReturnModelConfig, mixture_moments, split_train_val,
                                train_return_models)
from segdt.segmenter import UNCERTAIN, UncertaintyTrace, gaussian_kl_array

from gradcheck import finite_diff_check
from test_segmenter import make_trace, make_traj, oracle_uncertain_mask

SMOKE = Path(__file__).parents[1] / "configs" / "smoke"


def report(criterion: int, name: str, ok: bool, detail: str, t0: float,
           limit_s: float, capsys=None, fixture_s: float | None = None):
    """Print the criterion's line; ``fixture_s`` is the shared session
    fixture's own time, shown beside the test's and outside its budget."""
    elapsed = time.time() - t0
    timing = f"{elapsed:.1f}s" + ("" if fixture_s is None else f"; fixture {fixture_s:.1f}s")
    line = (f"[acceptance] criterion {criterion} ({name}): "
            f"{'PASS' if ok else 'FAIL'} — {detail} [{timing}]")
    if capsys is not None:   # emit even when the test passes
        with capsys.disabled():
            print("\n" + line, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)
    assert ok, line
    assert elapsed < limit_s, f"criterion {criterion} overran {limit_s}s budget"


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness of every tensor op (< 1 min)
# ---------------------------------------------------------------------------


def test_criterion_1_gradients(capsys):
    t0 = time.time()
    rng = np.random.default_rng(11)

    def r(*shape):
        return rng.normal(size=shape)

    cases = [
        ("add/mul/sub/div", lambda: finite_diff_check(
            lambda a, b: ((a * b + a - b) / (b * b + 1.5)).sum(),
            [r(2, 3), r(2, 3)])),
        ("broadcast", lambda: finite_diff_check(
            lambda a, b: (a + b * 2.0).sum(), [r(2, 4), r(4)])),
        ("matmul", lambda: finite_diff_check(
            lambda a, b: (a @ b).sum(), [r(3, 4), r(4, 2)])),
        ("batched matmul", lambda: finite_diff_check(
            lambda a, b: (a @ b).sum(), [r(2, 2, 3), r(2, 3, 2)])),
        # keep inputs off the relu kink: central differences straddle the
        # nondifferentiable point when |x| < step
        ("tanh/exp/relu/gelu", lambda: finite_diff_check(
            lambda x: (x.tanh() + x.exp() * 0.1 + x.relu() + x.gelu()).sum(),
            [np.where(np.abs(x8 := r(2, 4) * 0.8) < 0.05, 0.3, x8)])),
        ("log/pow", lambda: finite_diff_check(
            lambda x: ((x * x + 1.2).log() + x ** 3).sum(), [r(5)])),
        ("softmax", lambda: finite_diff_check(
            lambda x, w: (x.softmax() * w).sum(), [r(2, 5), r(5)])),
        ("layernorm", lambda: finite_diff_check(
            lambda x, w: (x.layernorm() * w).sum(), [r(2, 5), r(5)])),
        ("reshape/transpose/slice", lambda: finite_diff_check(
            lambda x: (x.reshape(6, 2).transpose((1, 0))[:, 1:4] ** 2).sum(),
            [r(3, 4)])),
        ("concat", lambda: finite_diff_check(
            lambda a, b: (concat([a, b], axis=1) ** 2).sum(),
            [r(2, 2), r(2, 3)])),
        ("sum/mean axes", lambda: finite_diff_check(
            lambda x: (x.mean(axis=1) * x.sum(axis=(0, 2)).mean()).sum(),
            [r(2, 3, 2)])),
        # draw y once per instance so every finite-difference evaluation
        # sees the same target
        ("gaussian nll", lambda: (lambda y: finite_diff_check(
            lambda m, l: nn.gaussian_nll(m, l, Tensor(y)),
            [r(4), r(4) * 0.5]))(r(4))),
    ]
    instances = 0
    while instances < 100:
        name, fn = cases[instances % len(cases)]
        fn()   # asserts rel err < 1e-4 at step 1e-3 internally
        instances += 1
    report(1, "gradients", True,
           f"{instances} random instances over {len(cases)} op groups, "
           f"step 1e-3, rtol 1e-4", t0, 60, capsys=capsys)


# ---------------------------------------------------------------------------
# Criterion 2: mixture moments and Gaussian KL vs Monte Carlo (< 1 min)
# ---------------------------------------------------------------------------


def test_criterion_2_distribution_math(capsys):
    t0 = time.time()
    rng = np.random.default_rng(22)

    worst_mom = 0.0
    for _ in range(5):
        members = [(float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 4.0)))
                   for _ in range(5)]
        mix_mu, mix_var = mixture_moments([[mu] for mu, _ in members],
                                          [[var] for _, var in members])
        mix_mu, mix_var = float(mix_mu[0]), float(mix_var[0])
        picks = rng.integers(len(members), size=1_000_000)
        samples = np.concatenate([
            rng.normal(mu, np.sqrt(var), size=int((picks == k).sum()))
            for k, (mu, var) in enumerate(members)])
        worst_mom = max(worst_mom,
                        abs(mix_mu - samples.mean()) / max(abs(samples.mean()), 1e-6),
                        abs(mix_var - samples.var()) / samples.var())
        assert abs(mix_mu - samples.mean()) <= 0.01 * max(abs(samples.mean()), np.sqrt(mix_var))
        assert abs(mix_var - samples.var()) <= 0.01 * samples.var()

    worst_kl = 0.0
    for _ in range(50):
        mu_p, var_p = float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 4))
        mu_q, var_q = float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 4))
        x = rng.normal(mu_p, np.sqrt(var_p), size=400_000)
        mc = (-0.5 * (x - mu_p) ** 2 / var_p - 0.5 * np.log(var_p)
              + 0.5 * (x - mu_q) ** 2 / var_q + 0.5 * np.log(var_q)).mean()
        err = abs(float(gaussian_kl_array(mu_p, var_p, mu_q, var_q)) - mc) / max(abs(mc), 1e-12)
        worst_kl = max(worst_kl, err)
        assert err <= 0.02, (f"KL(N({mu_p}, {var_p}), N({mu_q}, {var_q})): "
                             f"closed form vs MC off by {err:.4f}")
    report(2, "distribution math", True,
           f"moments worst rel err {worst_mom:.5f} (tol 0.01); "
           f"KL worst rel err {worst_kl:.5f} over 50 pairs (tol 0.02)", t0, 60, capsys=capsys)


# ---------------------------------------------------------------------------
# Criterion 3: segmentation + relabeling vs brute force (< 1 min)
# ---------------------------------------------------------------------------


def test_criterion_3_segmentation_oracle(capsys):
    t0 = time.time()
    rng = np.random.default_rng(33)
    n = 10_000
    for _ in range(n):
        T = int(rng.integers(1, 26))
        c = int(rng.integers(1, 7))
        flags = rng.random(T) < rng.uniform(0.1, 0.9)
        rewards = rng.uniform(-5, 5, size=T)

        trace = make_trace(flags)
        parts = segmenter.segment(trace, c)
        mask = np.zeros(T, dtype=bool)
        for p in parts:
            if p.label == UNCERTAIN:
                mask[p.start:p.stop] = True
        assert mask.tolist() == oracle_uncertain_mask(flags, c).tolist()

        seg = segmenter.relabel(make_traj(rewards), trace, parts)
        # brute-force reference: distance to the next boundary and the
        # undiscounted reward sum over exactly that window
        bounds = sorted({p.stop for p in parts})
        for t in range(T):
            if mask[t]:
                assert seg.h[t] == 0 and seg.r_h[t] == 0.0
            else:
                stop = next(b for b in bounds if b > t)
                assert seg.h[t] == stop - t
                assert seg.r_h[t] == rewards[t:stop].sum()   # bitwise identical
    report(3, "segmentation oracle", True,
           f"{n} random (flags, c) inputs matched exactly, "
           f"including window sums", t0, 60, capsys=capsys)


# ---------------------------------------------------------------------------
# Criterion 4: KD-tree queries vs brute-force 5-NN means (< 1 min)
# ---------------------------------------------------------------------------


def test_criterion_4_kdtree_exactness(capsys):
    t0 = time.time()
    rng = np.random.default_rng(44)
    n = 10_000
    states = rng.normal(size=(n, 12))
    values = rng.uniform(0, 5, size=n)
    index = KdUncertaintyIndex(states, values, k=5)

    mean = states.mean(axis=0)
    std = np.maximum(states.std(axis=0), 1e-6)
    z = (states - mean) / std
    z_sq = (z ** 2).sum(axis=1)

    queries = rng.normal(size=(n, 12))
    got = np.array([index.query(q) for q in queries])
    worst = 0.0
    for lo in range(0, n, 500):
        zq = (queries[lo:lo + 500] - mean) / std
        d2 = z_sq[None, :] - 2.0 * zq @ z.T + (zq ** 2).sum(axis=1)[:, None]
        nearest = np.argpartition(d2, 5, axis=1)[:, :5]
        expected = values[nearest].mean(axis=1)
        worst = max(worst, float(np.abs(got[lo:lo + 500] - expected).max()))
    assert worst <= 1e-12, f"KD-tree vs brute force differ by {worst}"
    report(4, "kd-tree exactness", True,
           f"{n} queries over {n} points, max |diff| {worst:.2e}", t0, 60, capsys=capsys)


# ---------------------------------------------------------------------------
# Criteria 5 & 6 share three trained K=5 return ensembles (< 10 / < 5 min)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def return_study():
    t0 = time.time()
    trajs = trajlog.collect_dataset(EnvConfig(delta=0.1), ExpertConfig(),
                                    episodes=300, base_seed=500)
    trajs = trajlog.annotate_dataset(trajs, gammas=(0.95,))
    study = {"trajs": trajs, "seeds": []}
    for seed in (0, 1, 2):
        cfg = ReturnModelConfig(
            n_layers=1, n_heads=2, embed_dim=32, seq_length=8, dropout=0.0,
            epochs=3, iters_per_epoch=50, batch_size=64, ensemble_size=5,
            data_mask_prob=0.4, val_fraction=0.15, seed=seed)
        ensemble, _ = train_return_models(trajs, cfg)
        _, val = split_train_val(trajs, cfg.val_fraction, cfg.seed)
        calib = evaluator.calibrate(ensemble, val, gamma=cfg.discount)
        study["seeds"].append({"seed": seed, "ensemble": ensemble,
                               "calib": calib})
    study["fixture_s"] = time.time() - t0
    return study


def test_criterion_5_ensemble_calibration(return_study, capsys):
    t0 = time.time()
    ens_nlls, best_nlls = [], []
    for entry in return_study["seeds"]:
        calib = entry["calib"]
        ens_nlls.append(calib["ensemble"]["nll"])
        best_nlls.append(min(m["nll"] for m in calib["members"]))
    ok = np.mean(ens_nlls) <= np.mean(best_nlls)
    detail = ("mean over 3 seeds: K=5 ensemble held-out NLL "
              f"{np.mean(ens_nlls):.4f} vs best single member "
              f"{np.mean(best_nlls):.4f} (per-seed ens "
              + ", ".join(f"{v:.3f}" for v in ens_nlls) + "; best "
              + ", ".join(f"{v:.3f}" for v in best_nlls) + ")")
    report(5, "calibration direction", ok, detail, t0, 600, capsys=capsys,
           fixture_s=return_study["fixture_s"])


def test_criterion_6_uncertainty_at_latent_reveal(return_study, capsys):
    t0 = time.time()
    passes, details = 0, []
    for entry in return_study["seeds"]:
        reveal_u, other_u = [], []
        for traj in return_study["trajs"][:80]:
            trace = segmenter.estimate_uncertainty(traj, entry["ensemble"],
                                                   epsilon=1.0)
            reveal = traj.meta.get("lead_reveal_step")
            for t in range(len(traj)):
                (reveal_u if t == reveal else other_u).append(trace.u[t])
        mean_reveal = float(np.mean(reveal_u))
        p75 = float(np.percentile(other_u, 75))
        passes += mean_reveal > p75
        details.append(f"seed {entry['seed']}: reveal mean u {mean_reveal:.4f}"
                       f" vs non-reveal p75 {p75:.4f}")
    report(6, "uncertainty at latent reveal", passes >= 2,
           f"{passes}/3 seeds ({'; '.join(details)})", t0, 300, capsys=capsys)


# ---------------------------------------------------------------------------
# Criterion 7: deterministic alignment on the exhaustive tabular MDP (< 5 min)
# ---------------------------------------------------------------------------


def test_criterion_7_deterministic_alignment(capsys):
    t0 = time.time()
    worst = 0.0
    for seed in (0, 1, 2):
        mdp = evaluator.TabularMdp.random(n_states=4, n_actions=2, horizon=4,
                                          delta=0.0, seed=seed)
        out = evaluator.theorem_check(mdp)
        worst = max(worst, out["max_gap_fraction"])
        assert out["n_targets"] >= 2
    report(7, "deterministic alignment", worst <= 0.05,
           f"max |target - rollout| is {worst:.2e} of return scale "
           f"(tol 0.05) over 3 MDPs", t0, 300, capsys=capsys)


# ---------------------------------------------------------------------------
# Criteria 8 & 9 share trained policies and planner artifacts (< 20 / < 2 min)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def policy_study():
    t0 = time.time()
    delta = 0.2
    env_cfg = EnvConfig(delta=delta)
    study = {"env_cfg": env_cfg, "seeds": []}
    for seed in (0, 1, 2):
        trajs = trajlog.collect_dataset(env_cfg, ExpertConfig(), episodes=200,
                                        base_seed=1000 * seed)
        trajs = trajlog.annotate_dataset(trajs, gammas=(0.95, 1.0))
        rcfg = ReturnModelConfig(
            n_layers=1, n_heads=2, embed_dim=32, seq_length=8, dropout=0.0,
            epochs=2, iters_per_epoch=50, batch_size=64, ensemble_size=3,
            seed=seed)
        ensemble, _ = train_return_models(trajs, rcfg)
        u_probe = np.concatenate([
            segmenter.estimate_uncertainty(t, ensemble, 1.0).u
            for t in trajs[:50]])
        eps = float(np.percentile(u_probe, 85))
        segs = segmenter.segment_dataset(trajs, ensemble, eps, c=3)

        policies = {}
        for kind in ("unrest", "dt", "bc"):
            pcfg = PolicyConfig(kind=kind, n_layers=1, n_heads=2, embed_dim=32,
                                seq_length=5, dropout=0.0, epochs=4,
                                iters_per_epoch=60, batch_size=64, seed=seed)
            policies[kind], _ = train_policy(segs, pcfg)

        traces = [UncertaintyTrace(u=s.u, epsilon=s.epsilon) for s in segs]
        index = KdUncertaintyIndex.build([s.traj for s in segs], traces, k=5,
                                         epsilon=eps)
        predictor = TargetReturnPredictor.train(
            [s.traj for s in segs],
            TargetPredictorConfig(ensemble_size=2, hidden_dim=16, n_hidden=1,
                                  iters=400, span_max=30, seed=seed))
        target = initial_global_target(trajs, 0.7)
        planner_cfg = PlannerConfig(span_horizon=30, eta=0.7, epsilon=eps,
                                    knn=5, history_length=5)

        actors = {
            "unrest": evaluator.PlannedActor(policies["unrest"], index,
                                             predictor, planner_cfg,
                                             initial_target=target),
            "dt": evaluator.ReturnConditionedActor(policies["dt"], target),
            "bc": evaluator.ClonedActor(policies["bc"]),
        }
        eval_seeds = range(50_000 + seed * 100, 50_000 + seed * 100 + 100)
        results = {name: evaluator.rollout(env_cfg, actor, eval_seeds)
                   for name, actor in actors.items()}
        study["seeds"].append({
            "seed": seed, "results": results, "policies": policies,
            "index": index, "predictor": predictor, "target": target,
            "planner_cfg": planner_cfg,
        })
    study["fixture_s"] = time.time() - t0
    return study


def test_criterion_8_stochastic_benchmark(policy_study, capsys):
    t0 = time.time()
    means = {}
    for kind in ("unrest", "dt", "bc"):
        eps = [e for entry in policy_study["seeds"]
               for e in entry["results"][kind]]
        means[kind] = {"score": float(np.mean([e.score for e in eps])),
                       "success": float(np.mean([e.success for e in eps]))}
    ok = (means["unrest"]["score"] >= means["dt"]["score"]
          and means["unrest"]["success"] >= means["dt"]["success"])
    detail = ("3 seeds x 100 episodes at delta=0.2 — " + "; ".join(
        f"{k}: score {v['score']:.3f}, success {v['success']:.2f}"
        for k, v in means.items()))
    report(8, "stochastic benchmark direction", ok, detail, t0, 1200, capsys=capsys,
           fixture_s=policy_study["fixture_s"])


def test_criterion_9_planner_bookkeeping(policy_study, capsys):
    t0 = time.time()
    entry = policy_study["seeds"][0]
    env_cfg = policy_study["env_cfg"]
    H = entry["planner_cfg"].span_horizon
    steps_checked = 0
    for ep in range(100):
        env = HighwayEnv(env_cfg)
        state = env.reset(seed=90_000 + ep)
        ps = PlannerState.initial(entry["planner_cfg"], entry["target"])
        prev_reward, rewards = None, []
        while True:
            action, _ = plan_step(ps, state.as_array(), prev_reward,
                                  entry["policies"]["unrest"], entry["index"],
                                  entry["predictor"])
            outcome = env.step(EnvAction(float(action[0]), float(action[1])))
            rewards.append(outcome.reward)
            prev_reward = outcome.reward
            state = outcome.state
            if outcome.done:
                break

        # global-target identity: R_unclamped equals the initial target minus
        # the running reward sum, via the exact subtraction sequence
        acc = entry["target"]
        for t, rec in enumerate(ps.trace):
            assert rec["R_unclamped"] == acc
            assert rec["R"] == max(rec["R_unclamped"], 0.0)
            acc -= rewards[t]

        # span-run invariant: h restarts at H exactly when the previous span
        # was exhausted or the previous step's state was uncertain
        eps_gate = entry["index"].epsilon
        for t, rec in enumerate(ps.trace):
            prev = ps.trace[t - 1] if t else None
            must_reset = (prev is None or prev["h"] == 1
                          or prev["uncertainty"] > eps_gate)
            assert rec["reset"] == must_reset
            if must_reset:
                assert rec["h"] == H
            else:
                assert rec["h"] == prev["h"] - 1
        steps_checked += len(ps.trace)
    report(9, "planner bookkeeping", True,
           f"0 violations over 100 rollouts ({steps_checked} steps)", t0, 120, capsys=capsys)


# ---------------------------------------------------------------------------
# Criterion 10: end-to-end pipeline, hash-reproducible (< 30 min)
# ---------------------------------------------------------------------------


def test_criterion_10_pipeline_reproducible(tmp_path, capsys):
    t0 = time.time()

    def run_pipeline(d):
        d.mkdir()
        p = {"dataset": d / "data.npz", "ensemble": d / "ensemble",
             "segmented": d / "seg.npz", "policy": d / "policy.json",
             "index": d / "index.npz", "predictor": d / "predictor",
             "report": d / "report.json"}
        stages = [
            ["collect", "--config", SMOKE / "collect.cfg", "--episodes", 750,
             "--out", p["dataset"]],
            ["train-return", "--config", SMOKE / "return.cfg",
             "--dataset", p["dataset"], "--out", p["ensemble"]],
            ["segment", "--config", SMOKE / "segment.cfg",
             "--dataset", p["dataset"], "--ensemble", p["ensemble"],
             "--out", p["segmented"]],
            ["train-policy", "--config", SMOKE / "policy.cfg",
             "--segmented", p["segmented"], "--out", p["policy"]],
            ["build-kdtree", "--config", SMOKE / "index.cfg",
             "--segmented", p["segmented"], "--out", p["index"],
             "--predictor-out", p["predictor"]],
            ["evaluate", "--config", SMOKE / "evaluate.cfg",
             "--policy", p["policy"], "--dataset", p["dataset"],
             "--index", p["index"], "--predictor", p["predictor"],
             "--out", p["report"]],
        ]
        for argv in stages:
            assert cli.main([str(a) for a in argv]) == 0, argv[0]
        return p

    first = run_pipeline(tmp_path / "run1")
    steps = sum(len(t) for t in trajlog.load(first["dataset"]))
    assert steps >= 50_000, f"dataset holds only {steps} steps"
    second = run_pipeline(tmp_path / "run2")
    mismatched = [name for name in first
                  if hash_artifact(first[name]) != hash_artifact(second[name])]
    report(10, "pipeline reproducibility", not mismatched,
           f"{steps} collected steps; both runs completed; artifact hashes "
           f"identical across runs ({len(first)} artifacts)"
           + (f"; MISMATCH: {mismatched}" if mismatched else ""), t0, 1800, capsys=capsys)
