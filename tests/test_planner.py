import multiprocessing
import os

import numpy as np
import pytest
from scipy.stats import norm

from segdt import nn, planner, trajlog
from segdt.autodiff import Tensor
from segdt.nn import TrainingDiverged
from segdt.planner import (
    KdUncertaintyIndex, PlannerConfig, PlannerState, TargetPredictorConfig,
    TargetReturnPredictor, _TargetMlp, _choice_cdf, _choice_draw,
    initial_global_target, plan_step,
)
from segdt.segmenter import UncertaintyTrace


# -- KD uncertainty index ---------------------------------------------------


def test_single_point_index():
    idx = KdUncertaintyIndex(np.ones((1, 12)), np.array([2.5]), k=5, epsilon=1.0)
    assert idx.query(np.zeros(12)) == 2.5
    assert idx.query(np.full(12, 100.0)) == 2.5


def test_knn_matches_brute_force():
    rng = np.random.default_rng(0)
    states = rng.normal(size=(500, 12))
    values = rng.uniform(0, 5, size=500)
    idx = KdUncertaintyIndex(states, values, k=5)
    mean = states.mean(axis=0)
    std = np.maximum(states.std(axis=0), 1e-6)
    z = (states - mean) / std
    for _ in range(200):
        q = rng.normal(size=12)
        zq = (q - mean) / std
        order = np.argsort(((z - zq) ** 2).sum(axis=1))[:5]
        assert idx.query(q) == pytest.approx(values[order].mean(), abs=1e-12)


def test_duplicate_states_average_their_values():
    states = np.zeros((2, 12))
    values = np.array([1.0, 3.0])
    idx = KdUncertaintyIndex(states, values, k=2)
    assert idx.query(np.zeros(12)) == 2.0


def test_k_larger_than_index_size():
    states = np.arange(24, dtype=float).reshape(2, 12)
    idx = KdUncertaintyIndex(states, np.array([1.0, 3.0]), k=5)
    assert idx.query(states[0]) == 2.0


def test_index_build_from_dataset_and_errors():
    rng = np.random.default_rng(1)
    trajs = [trajlog.Trajectory(
        states=rng.normal(size=(4, 12)), actions=rng.normal(size=(4, 2)),
        rewards=np.ones(4), reward_terms=[{}] * 4, infractions=[None] * 4)
        for _ in range(3)]
    traces = [UncertaintyTrace(u=rng.uniform(0, 2, size=4), epsilon=1.0)
              for _ in range(3)]
    idx = KdUncertaintyIndex.build(trajs, traces, k=3, epsilon=0.5)
    assert len(idx) == 12
    with pytest.raises(ValueError):
        KdUncertaintyIndex.build([], [])
    with pytest.raises(ValueError):
        KdUncertaintyIndex.build(trajs, traces[:2])


def test_index_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    idx = KdUncertaintyIndex(rng.normal(size=(50, 12)), rng.uniform(size=50),
                             k=4, epsilon=0.3)
    path = tmp_path / "index.npz"
    idx.save(path)
    loaded = KdUncertaintyIndex.load(path)
    assert loaded.k == 4 and loaded.epsilon == 0.3
    for _ in range(20):
        q = rng.normal(size=12)
        assert idx.query(q) == loaded.query(q)


# -- target predictor -------------------------------------------------------


def constant_predictor(mu=2.0, sigma=1.0):
    cfg = TargetPredictorConfig(ensemble_size=1, hidden_dim=8, n_hidden=1)
    member = _TargetMlp(cfg, np.random.default_rng(0)).eval()
    # zero-init head -> normalized N(0, 1); denormalization supplies (mu, sigma)
    return TargetReturnPredictor(cfg, [member], nn.Standardizer(np.zeros(12), np.ones(12)),
                                 nn.Standardizer(float(mu), float(sigma)))


def test_median_target_is_mean():
    p = constant_predictor(mu=3.0, sigma=2.0)
    assert p.predict_target(np.zeros(12), 10, 0.5) == pytest.approx(3.0, abs=1e-12)


def test_percentile_70_of_unit_gaussian():
    p = constant_predictor(mu=2.0, sigma=1.0)
    got = p.predict_target(np.zeros(12), 10, 0.7)
    assert got == pytest.approx(2.0 + 0.5244, abs=1e-4)
    assert got == pytest.approx(2.0 + norm.ppf(0.7), abs=1e-12)


def test_target_monotone_in_eta():
    p = constant_predictor()
    etas = np.linspace(0.05, 0.95, 19)
    targets = [p.predict_target(np.zeros(12), 5, e) for e in etas]
    assert all(a <= b for a, b in zip(targets, targets[1:]))


def test_eta_out_of_range():
    p = constant_predictor()
    for eta in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            p.predict_target(np.zeros(12), 5, eta)


@pytest.fixture(scope="module")
def trained_predictor():
    rng = np.random.default_rng(3)
    trajs = [trajlog.Trajectory(
        states=rng.normal(size=(30, 12)), actions=rng.normal(size=(30, 2)),
        rewards=np.ones(30), reward_terms=[{}] * 30, infractions=[None] * 30)
        for _ in range(10)]
    cfg = TargetPredictorConfig(ensemble_size=2, hidden_dim=16, n_hidden=1,
                                iters=1000, learning_rate=3e-3, span_max=10,
                                seed=0)
    return TargetReturnPredictor.train(trajs, cfg)


def test_trained_predictor_tracks_span(trained_predictor):
    # unit rewards: a span of h steps is worth about h (episode-end truncated)
    s = np.zeros(12)
    t1 = trained_predictor.predict_target(s, 1, 0.5)
    t10 = trained_predictor.predict_target(s, 10, 0.5)
    assert t10 > t1
    assert t1 == pytest.approx(1.0, abs=1.0)
    assert t10 == pytest.approx(10.0, abs=3.0)


def test_predictor_roundtrip(trained_predictor, tmp_path):
    trained_predictor.save(tmp_path / "pred")
    loaded = TargetReturnPredictor.load(tmp_path / "pred")
    s = np.random.default_rng(4).normal(size=12)
    for h in (1, 5, 10):
        assert loaded.predict_target(s, h, 0.7) == \
            trained_predictor.predict_target(s, h, 0.7)


def test_choice_draw_matches_generator_choice():
    lengths = np.array([130, 7, 55, 130, 1, 99, 130, 42, 3, 130], dtype=np.float64)
    probs = lengths / lengths.sum()
    cdf = _choice_cdf(lengths)
    ours, ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(20_000):  # interleaved with integers, as sample_batch draws
        assert _choice_draw(cdf, ours) == ref.choice(len(lengths), p=probs)
        assert ours.integers(130) == ref.integers(130)
        assert ours.integers(1, 101) == ref.integers(1, 101)


def _unit_reward_trajs(n=8, length=30):
    rng = np.random.default_rng(3)
    return [trajlog.Trajectory(
        states=rng.normal(size=(length - i, 12)), actions=rng.normal(size=(length - i, 2)),
        rewards=np.ones(length - i), reward_terms=[{}] * (length - i),
        infractions=[None] * (length - i)) for i in range(n)]


POOLED = TargetPredictorConfig(ensemble_size=3, hidden_dim=16, n_hidden=2, iters=30,
                               batch_size=16, span_max=10, seed=4)


def test_parallel_predictor_members_match_serial_bitwise(monkeypatch):
    trained = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        trained.append(TargetReturnPredictor.train(_unit_reward_trajs(), POOLED))
    serial, pooled = trained
    assert (pooled.y.mean, pooled.y.std) == (serial.y.mean, serial.y.std)
    for a, b in zip(serial.members, pooled.members):
        sa, sb = a.state_dict(), b.state_dict()
        assert sa.keys() == sb.keys()
        for name in sa:
            assert sa[name].tobytes() == sb[name].tobytes(), name
    assert multiprocessing.active_children() == []


def test_parallel_predictor_divergence_names_lowest_failing_member(monkeypatch):
    current = {}
    real_map, real_nll = nn.map_members, nn.gaussian_nll

    def tagged_map(fn, n):
        return real_map(lambda k: (current.update(k=k), fn(k))[1], n)

    def poisoned_nll(mu, log_var, target, mask=None):
        if current["k"] >= 1:
            return Tensor(np.nan) + mu.sum() * 0.0
        return real_nll(mu, log_var, target, mask)

    monkeypatch.setattr(planner.nn, "map_members", tagged_map)
    monkeypatch.setattr(planner.nn, "gaussian_nll", poisoned_nll)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(TrainingDiverged, match="member 1:"):
        TargetReturnPredictor.train(_unit_reward_trajs(), POOLED)
    assert multiprocessing.active_children() == []


# -- planning loop ----------------------------------------------------------


class StubPolicy:
    """Records the conditioning it was given; returns a fixed action."""

    def __init__(self):
        self.contexts = []

    def act(self, steps):
        self.contexts.append([(s.h, s.r_h, s.R) for s in steps])
        return np.array([20.0, 0.0])


def gate_index(uncertain_positions, n=10):
    """Index over states e_0*i whose value flags exactly the given positions."""
    states = np.zeros((n, 12))
    states[:, 0] = np.arange(n) * 10.0
    values = np.zeros(n)
    for p in uncertain_positions:
        values[p] = 5.0
    return KdUncertaintyIndex(states, values, k=1, epsilon=1.0)


def state_at(i):
    s = np.zeros(12)
    s[0] = i * 10.0
    return s


def run_plan(rewards, uncertain_positions=(), H=4, target=10.0, eta=0.7):
    cfg = PlannerConfig(span_horizon=H, eta=eta, epsilon=1.0, knn=1,
                        history_length=3)
    ps = PlannerState.initial(cfg, target)
    policy = StubPolicy()
    predictor = constant_predictor(mu=6.0, sigma=1.0)
    index = gate_index(uncertain_positions)
    for t in range(len(rewards) + 1):
        prev = None if t == 0 else rewards[t - 1]
        plan_step(ps, state_at(t), prev, policy, index, predictor)
    return ps, policy


def test_decrement_branch():
    # spec'd hand example: h 4 -> 3, truncated target 3 -> 2.5 after reward 0.5
    cfg = PlannerConfig(span_horizon=10, epsilon=1.0, knn=1, history_length=3)
    ps = PlannerState.initial(cfg, 10.0)
    ps.started, ps.h, ps.r_h, ps.R_unclamped, ps.R = True, 4, 3.0, 10.0, 10.0
    policy = StubPolicy()
    plan_step(ps, state_at(0), 0.5, policy, gate_index([]),
              constant_predictor())
    assert ps.h == 3
    assert ps.r_h == pytest.approx(2.5)
    assert ps.R_unclamped == pytest.approx(9.5)


def test_span_exhaustion_resets_with_fresh_target():
    ps, _ = run_plan(rewards=[1.0] * 6, H=3)
    hs = [rec["h"] for rec in ps.trace]
    # maximal descending runs restarting at H
    assert hs == [3, 2, 1, 3, 2, 1, 3]
    resets = [rec["reset"] for rec in ps.trace]
    assert resets == [True, False, False, True, False, False, True]
    # fresh targets come from the percentile predictor: 6 + ppf(0.7)
    fresh = 6.0 + norm.ppf(0.7)
    assert ps.trace[3]["r_h"] == pytest.approx(fresh)
    assert ps.trace[4]["r_h"] == pytest.approx(fresh - 1.0)


def test_uncertain_state_gets_dummy_and_triggers_reset():
    ps, policy = run_plan(rewards=[1.0] * 4, H=10, uncertain_positions=[2])
    assert [rec["dummy"] for rec in ps.trace] == [False, False, True, False, False]
    # the policy saw the dummy sentinel at the flagged step
    h_seen, r_seen, _ = policy.contexts[2][-1]
    assert h_seen == 0 and r_seen == 0.0
    # the step after an uncertain state resets the span
    assert ps.trace[3]["reset"]
    assert ps.trace[3]["h"] == 10


def test_global_target_bookkeeping_invariant():
    rewards = list(np.random.default_rng(5).uniform(-1, 2, size=8))
    ps, _ = run_plan(rewards, H=4, target=10.0)
    for t, rec in enumerate(ps.trace):
        assert rec["R_unclamped"] + sum(rewards[:t]) == pytest.approx(10.0)


def test_global_target_clamps_at_zero():
    ps, policy = run_plan(rewards=[6.0, 6.0], H=4, target=10.0)
    assert ps.trace[2]["clamped"]
    assert ps.trace[2]["R"] == 0.0
    assert ps.trace[2]["R_unclamped"] == pytest.approx(-2.0)
    assert policy.contexts[2][-1][2] == 0.0  # policy never sees negative targets


# the predictor's two failure modes: a non-finite target, an invalid forecast
@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_predictor_failure_falls_back_to_dummy(error):
    class BrokenPredictor:
        def predict_target(self, state, h, eta):
            raise error("boom")

    cfg = PlannerConfig(span_horizon=4, epsilon=1.0, knn=1, history_length=3)
    ps = PlannerState.initial(cfg, 5.0)
    policy = StubPolicy()
    plan_step(ps, state_at(0), None, policy, gate_index([]), BrokenPredictor())
    assert ps.trace[0]["predictor_failed"]
    assert ps.trace[0]["dummy"]
    assert policy.contexts[0][-1][0] == 0


def test_predictor_bug_propagates():
    class BuggyPredictor:
        def predict_target(self, state, h, eta):
            raise TypeError("bug in the predictor")

    ps = PlannerState.initial(PlannerConfig(span_horizon=4, history_length=3), 5.0)
    with pytest.raises(TypeError, match="bug in the predictor"):
        plan_step(ps, state_at(0), None, StubPolicy(), gate_index([]), BuggyPredictor())


def test_history_window_bounded():
    ps, policy = run_plan(rewards=[1.0] * 7, H=20)
    assert max(len(c) for c in policy.contexts) == 3  # history_length


def test_planner_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(span_horizon=0).validate()
    with pytest.raises(ValueError):
        PlannerConfig(eta=1.5).validate()


def test_initial_global_target_percentile():
    rng = np.random.default_rng(6)
    trajs = [trajlog.Trajectory(
        states=np.zeros((3, 12)), actions=np.zeros((3, 2)),
        rewards=np.full(3, float(total)), reward_terms=[{}] * 3,
        infractions=[None] * 3) for total in range(1, 11)]
    got = initial_global_target(trajs, 0.5)
    assert got == pytest.approx(np.quantile([3.0 * k for k in range(1, 11)], 0.5))
