import numpy as np
import pytest

from segdt import trajlog
from segdt.env import EnvConfig, ExpertConfig
from segdt.evaluator import (
    EpisodeResult, EvalReport, ExpertActor, PlannedActor,
    RandomActor, ReturnConditionedActor, TabularMdp, calibrate, driving_score,
    rollout, run_episode, theorem_check, uncertainty_histogram,
    unreachable_target_gap,
)
from segdt.nn import Standardizer
from segdt.planner import KdUncertaintyIndex, PlannerConfig
from segdt.policy import Policy, PolicyConfig, PolicyNormalizer, \
    SequencePolicyModel
from segdt.segmenter import UncertaintyTrace

from test_planner import constant_predictor


def tiny_policy(kind="unrest"):
    cfg = PolicyConfig(kind=kind, n_layers=1, n_heads=2, embed_dim=16,
                       seq_length=5, dropout=0.0)
    model = SequencePolicyModel(cfg, np.random.default_rng(0))
    nrm = PolicyNormalizer(
        Standardizer(np.zeros(12), np.ones(12)), Standardizer(0.0, 1.0),
        Standardizer(0.0, 1.0), R_bounds=(-10.0, 10.0))
    return Policy(model, cfg, nrm)


# -- metrics ----------------------------------------------------------------


def test_driving_score_formula():
    assert driving_score(1.0, 0, 0) == 1.0
    assert driving_score(1.0, 1, 0) == pytest.approx(0.65)
    assert driving_score(1.0, 0, 2) == pytest.approx(0.49)
    assert driving_score(0.5, 1, 1) == pytest.approx(0.5 * 0.65 * 0.7)


def test_normalized_reward_identity():
    e = EpisodeResult(seed=0, total_return=12.0, steps=8, success=True,
                      route_completion=1.0, infractions={}, score=1.0)
    assert e.normalized_reward == 1.5
    assert e.to_dict()["normalized_reward"] == 1.5
    with pytest.raises(ValueError):
        EpisodeResult(seed=0, total_return=0.0, steps=0, success=False,
                      route_completion=0.0, infractions={}, score=0.0)


def test_report_aggregates_match_recomputation():
    eps = [EpisodeResult(seed=s, total_return=float(s), steps=10, success=s % 2 == 0,
                         route_completion=1.0, infractions={"collision": s % 2},
                         score=0.65 ** (s % 2)) for s in range(6)]
    report = EvalReport()
    report.add("stub", eps)
    agg = report.aggregates("stub")
    assert agg["success_rate"]["mean"] == pytest.approx(0.5)
    assert agg["normalized_reward"]["mean"] == pytest.approx(
        np.mean([e.total_return / e.steps for e in eps]))
    assert "stub" in report.render()


# -- rollouts ---------------------------------------------------------------


def test_expert_rollout_deterministic_and_strong():
    cfg = EnvConfig(delta=0.0)
    seeds = range(30)
    a = rollout(cfg, ExpertActor(ExpertConfig(seed=0)), seeds)
    b = rollout(cfg, ExpertActor(ExpertConfig(seed=0)), seeds)
    assert [e.to_dict() for e in a] == [e.to_dict() for e in b]
    assert np.mean([e.success for e in a]) >= 0.95


def test_random_rollout_fails():
    results = rollout(EnvConfig(delta=0.0), RandomActor(), range(20))
    assert np.mean([e.success for e in results]) <= 0.05
    assert np.mean([sum(e.infractions.values()) for e in results]) >= 0.5


def test_cloned_and_conditioned_actors_complete_episodes():
    cfg = EnvConfig(delta=0.0)
    for actor in (ReturnConditionedActor(tiny_policy("bc"), initial_target=0.0),
                  ReturnConditionedActor(tiny_policy("dt"), initial_target=60.0)):
        res = run_episode(cfg, actor, seed=0)
        assert res.steps >= 1
        assert 0.0 <= res.route_completion <= 1.0


def test_conditioned_actor_window_bounded():
    class Recorder:
        """Records each context's length; drives straight."""

        def __init__(self):
            self.lengths = []

        def act(self, context):
            self.lengths.append(len(context))
            return np.array([20.0, 0.0])

    policy = Recorder()
    actor = ReturnConditionedActor(policy, initial_target=60.0, history_length=3)
    res = run_episode(EnvConfig(delta=0.0), actor, seed=0)
    assert res.steps > 3
    assert policy.lengths == [1, 2] + [3] * (res.steps - 2)


def test_planned_actor_traces_every_step():
    rng = np.random.default_rng(0)
    index = KdUncertaintyIndex(rng.normal(size=(50, 12)), np.zeros(50), k=5,
                               epsilon=1.0)
    actor = PlannedActor(tiny_policy("unrest"), index, constant_predictor(),
                         PlannerConfig(span_horizon=20, epsilon=1.0),
                         initial_target=60.0)
    res = run_episode(EnvConfig(delta=0.0), actor, seed=1)
    assert len(actor.trace) == res.steps


# -- calibration ------------------------------------------------------------


class FakeEnsemble:
    """Gaussian forecasts mu = y_true + per-member bias, var = 1."""

    def __init__(self, biases):
        self.biases = biases
        self.size = len(biases)

    def predict_trajectory(self, states, actions):
        y = states[:, 0]   # tests stash the realized return in state[0]
        mu = np.stack([y + b for b in self.biases])
        return {"mu_s": mu, "var_s": np.ones_like(mu),
                "mu_a": mu, "var_a": np.ones_like(mu)}


def single_step_trajs(rng, n, sigma=0.0):
    """One-step episodes whose return is state[0] plus optional noise."""
    trajs = []
    for _ in range(n):
        mu = rng.uniform(-3, 3)
        reward = mu + sigma * rng.normal()
        states = np.zeros((1, 12))
        states[0, 0] = mu
        trajs.append(trajlog.compute_returns(trajlog.Trajectory(
            states=states, actions=np.zeros((1, 2)), rewards=np.array([reward]),
            reward_terms=[{}], infractions=[None]), 0.95))
    return trajs


def test_calibrate_perfect_constant_predictions():
    rng = np.random.default_rng(0)
    trajs = single_step_trajs(rng, 50, sigma=0.0)
    out = calibrate(FakeEnsemble([0.0]), trajs)
    assert out["ensemble"]["rmse"] == pytest.approx(0.0, abs=1e-12)
    assert out["members"][0]["rmse"] == pytest.approx(0.0, abs=1e-12)


def test_calibrate_ensemble_beats_biased_members():
    rng = np.random.default_rng(1)
    trajs = single_step_trajs(rng, 200, sigma=0.0)
    out = calibrate(FakeEnsemble([2.0, -2.0]), trajs)
    best_member = min(m["nll"] for m in out["members"])
    assert out["ensemble"]["nll"] <= best_member
    assert out["ensemble"]["rmse"] < out["members"][0]["rmse"]


def test_calibrate_coverage_on_well_calibrated_data():
    rng = np.random.default_rng(2)
    trajs = single_step_trajs(rng, 3000, sigma=1.0)
    out = calibrate(FakeEnsemble([0.0]), trajs)
    assert out["coverage_1sigma"] == pytest.approx(0.683, abs=0.05)


def test_calibrate_reuses_given_forecasts():
    rng = np.random.default_rng(3)
    trajs = single_step_trajs(rng, 20, sigma=0.5)
    ens = FakeEnsemble([0.3, -0.1, 0.2])
    forecasts = [ens.predict_trajectory(t.states, t.actions) for t in trajs]
    ens.predict_trajectory = None   # a given forecast must not be recomputed
    out = calibrate(ens, trajs, forecasts=forecasts)
    want = calibrate(FakeEnsemble([0.3, -0.1, 0.2]), trajs)
    assert out["ensemble"] == want["ensemble"] and out["members"] == want["members"]
    assert np.array_equal(out["records"]["sigma"], want["records"]["sigma"])


def test_calibrate_rejects_empty():
    with pytest.raises(ValueError):
        calibrate(FakeEnsemble([0.0]), [])


def test_uncertainty_histogram():
    rng = np.random.default_rng(3)
    traces = [UncertaintyTrace(u=rng.uniform(0, 4, size=50), epsilon=1.0)
              for _ in range(4)]
    out = uncertainty_histogram(traces, bins=10)
    assert out["counts"].sum() == 200
    qs = out["quantiles"]
    assert qs[0.5] <= qs[0.9] <= qs[0.99]


# -- deterministic-alignment check ------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_alignment_gap_zero_when_deterministic(seed):
    mdp = TabularMdp.random(n_states=4, n_actions=2, horizon=4, delta=0.0,
                            seed=seed)
    out = theorem_check(mdp)
    assert out["n_targets"] >= 2
    assert out["max_gap"] <= 1e-9


def test_alignment_gap_recorded_with_stochasticity():
    mdp = TabularMdp.random(n_states=4, n_actions=2, horizon=3, delta=0.3,
                            seed=0)
    out = theorem_check(mdp)
    assert np.isfinite(out["max_gap"])
    assert out["max_gap"] >= 0.0


def test_unreachable_target_exposes_coverage_assumption():
    mdp = TabularMdp.random(n_states=4, n_actions=2, horizon=3, delta=0.0,
                            seed=0)
    assert unreachable_target_gap(mdp, offset=10.0) > 5.0
