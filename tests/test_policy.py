import numpy as np
import pytest

from segdt import trajlog
from segdt.env import V_MAX
from segdt.nn import Standardizer, TrainingDiverged
from segdt.policy import (
    Policy, PolicyConfig, PolicyNormalizer, PolicyStep, SequencePolicyModel,
    discretize_global_return, train_policy,
)
from segdt.segmenter import Part, SegmentedTrajectory, UncertaintyTrace, \
    relabel, segment


def tiny_config(**kw):
    base = dict(kind="unrest", n_layers=1, n_heads=2, embed_dim=16,
                seq_length=5, dropout=0.0, batch_size=16, epochs=2,
                iters_per_epoch=10, seed=0)
    base.update(kw)
    return PolicyConfig(**base)


def identity_policy(config):
    model = SequencePolicyModel(config, np.random.default_rng(3))
    nrm = PolicyNormalizer(
        Standardizer(np.zeros(12), np.ones(12)), Standardizer(0.0, 1.0),
        Standardizer(0.0, 1.0), R_bounds=(-10.0, 10.0))
    return Policy(model, config, nrm)


def make_steps(rng, n, h=3, r_h=1.5, R=5.0, last_action=None):
    steps = [PolicyStep(state=rng.normal(size=12), action=rng.normal(size=2) * 0.3,
                        h=h, r_h=r_h, R=R) for _ in range(n - 1)]
    steps.append(PolicyStep(state=rng.normal(size=12), action=last_action,
                            h=h, r_h=r_h, R=R))
    return steps


def synthetic_segs(n_traj, T, rng, steer_gain=0.1):
    """Segmented data where the expert steer is a linear function of r_h."""
    segs = []
    for _ in range(n_traj):
        r_h = rng.uniform(-8.0, 8.0, size=T)
        actions = np.stack([np.full(T, 20.0), steer_gain * r_h], axis=1)
        traj = trajlog.compute_returns(trajlog.Trajectory(
            states=rng.normal(size=(T, 12)), actions=actions,
            rewards=np.zeros(T), reward_terms=[{}] * T,
            infractions=[None] * T), 1.0)
        segs.append(SegmentedTrajectory(
            traj=traj, u=np.zeros(T), epsilon=1.0,
            parts=[Part("certain", 0, T)],
            h=np.ones(T, dtype=np.int64), r_h=r_h))
    return segs


# -- discretization ---------------------------------------------------------


def test_discretize_edges_and_midpoint():
    bounds = (-20.0, 30.0)
    assert discretize_global_return(-20.0, bounds).argmax() == 0
    assert discretize_global_return(30.0, bounds).argmax() == 49
    assert discretize_global_return(5.0, bounds).argmax() == 25
    assert discretize_global_return(-999.0, bounds).argmax() == 0
    assert discretize_global_return(999.0, bounds).argmax() == 49


def test_discretize_is_onehot():
    v = discretize_global_return(1.0, (0.0, 2.0), bins=7)
    assert v.shape == (7,) and v.sum() == 1.0


def test_discretize_rejects_bad_input():
    with pytest.raises(ValueError):
        discretize_global_return(np.nan, (0.0, 1.0))
    with pytest.raises(ValueError):
        discretize_global_return(0.0, (1.0, 1.0))


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        PolicyConfig(kind="iql")


# -- conditioning paths -----------------------------------------------------


def test_dummy_condition_ignores_rh_value():
    pol = identity_policy(tiny_config())
    rng = np.random.default_rng(0)
    steps = make_steps(rng, 3, h=0, r_h=0.0)
    base = pol.act(steps)
    for s in steps:
        s.r_h = 123.0
    assert np.array_equal(pol.act(steps), base)


def test_span_changes_return_token():
    pol = identity_policy(tiny_config())
    rng = np.random.default_rng(1)
    steps = make_steps(rng, 3, h=2)
    base = pol.act(steps)
    for s in steps:
        s.h = 5
    assert not np.array_equal(pol.act(steps), base)


def test_span_embedding_ablation_flag():
    pol = identity_policy(tiny_config(use_return_span=False))
    rng = np.random.default_rng(2)
    steps = make_steps(rng, 3, h=2)
    base = pol.act(steps)
    for s in steps:
        s.h = 5   # without the span embedding only the dummy routing sees h
    assert np.array_equal(pol.act(steps), base)


def test_global_return_ablation_flag():
    rng = np.random.default_rng(4)
    off = identity_policy(tiny_config(use_global_return=False))
    steps = make_steps(rng, 3, R=2.0)
    base = off.act(steps)
    for s in steps:
        s.R = 9.0
    assert np.array_equal(off.act(steps), base)

    on = identity_policy(tiny_config(use_global_return=True))
    steps = make_steps(rng, 3, R=-9.0)
    base = on.act(steps)
    for s in steps:
        s.R = 9.0
    assert not np.array_equal(on.act(steps), base)


def test_dt_kind_conditions_on_global_return():
    pol = identity_policy(tiny_config(kind="dt"))
    rng = np.random.default_rng(5)
    steps = make_steps(rng, 3, R=1.0)
    base = pol.act(steps)
    for s in steps:
        s.R = 8.0
    assert not np.array_equal(pol.act(steps), base)


def test_bc_kind_ignores_all_conditioning():
    pol = identity_policy(tiny_config(kind="bc"))
    rng = np.random.default_rng(6)
    steps = make_steps(rng, 3)
    base = pol.act(steps)
    for s in steps:
        s.h, s.r_h, s.R = 0, 99.0, -99.0
    assert np.array_equal(pol.act(steps), base)


def test_action_bounds_for_extreme_inputs():
    pol = identity_policy(tiny_config())
    rng = np.random.default_rng(7)
    for scale in (1.0, 100.0):
        steps = make_steps(rng, 4, r_h=scale, R=scale)
        for s in steps:
            s.state = s.state * scale
        a = pol.act(steps)
        assert 0.0 <= a[0] <= V_MAX
        assert -1.0 <= a[1] <= 1.0


def test_current_action_token_invisible():
    # the prediction reads the state token, so the (unknown) current action
    # must not influence it even if a value is supplied
    pol = identity_policy(tiny_config())
    rng = np.random.default_rng(8)
    steps = make_steps(rng, 4, last_action=None)
    base = pol.act(steps)
    steps[-1].action = np.array([30.0, 0.9])
    assert np.array_equal(pol.act(steps), base)


def test_missing_intermediate_action_rejected():
    pol = identity_policy(tiny_config())
    rng = np.random.default_rng(9)
    steps = make_steps(rng, 4)
    steps[1].action = None
    with pytest.raises(ValueError):
        pol.act(steps)


def test_context_length_limits():
    pol = identity_policy(tiny_config())
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        pol.act(make_steps(rng, 6))   # seq_length is 5
    with pytest.raises(ValueError):
        pol.act([])


# -- training ---------------------------------------------------------------


@pytest.fixture(scope="module")
def seg_dataset():
    rng = np.random.default_rng(11)
    return synthetic_segs(20, 30, rng)


@pytest.mark.parametrize("kind", ["unrest", "dt", "bc"])
def test_training_loss_decreases(seg_dataset, kind):
    cfg = tiny_config(kind=kind, epochs=3, iters_per_epoch=20)
    _, curve = train_policy(seg_dataset, cfg)
    assert len(curve) == 3
    assert curve[-1] < curve[0]


def test_policy_recovers_linear_return_map():
    rng = np.random.default_rng(12)
    segs = synthetic_segs(150, 30, rng)
    cfg = tiny_config(epochs=22, iters_per_epoch=60, learning_rate=3e-3,
                      batch_size=32)
    pol, _ = train_policy(segs, cfg)
    errs = []
    for seg in synthetic_segs(5, 10, np.random.default_rng(99)):
        for t in range(3, 10):
            steps = [PolicyStep(state=seg.traj.states[k], action=seg.traj.actions[k],
                                h=int(seg.h[k]), r_h=float(seg.r_h[k]))
                     for k in range(t - 3, t)]
            steps.append(PolicyStep(state=seg.traj.states[t], h=int(seg.h[t]),
                                    r_h=float(seg.r_h[t])))
            a = pol.act(steps)
            errs.append(abs(a[1] - 0.1 * seg.r_h[t]))
    assert np.mean(errs) <= 0.02, f"steer MAE {np.mean(errs):.4f}"


def test_checkpoint_roundtrip_bitwise(seg_dataset, tmp_path):
    cfg = tiny_config(use_global_return=True)
    pol, _ = train_policy(seg_dataset, cfg)
    path = tmp_path / "policy.json"
    pol.save(path)
    loaded = Policy.load(path)
    rng = np.random.default_rng(13)
    steps = make_steps(rng, 4)
    assert np.array_equal(pol.act(steps), loaded.act(steps))
    assert loaded.config == cfg


def test_load_rejects_wrong_family(tmp_path, seg_dataset):
    from segdt import nn
    cfg = tiny_config()
    model = SequencePolicyModel(cfg, np.random.default_rng(0))
    path = tmp_path / "x.json"
    nn.save_checkpoint(path, model, arch={"family": "other"})
    with pytest.raises(ValueError, match="not a sequence-policy"):
        Policy.load(path)


def test_divergence_aborts(seg_dataset, monkeypatch):
    from segdt import policy as policy_mod
    from segdt.autodiff import Tensor

    def poisoned(pred, target, mask=None):
        return Tensor(np.inf) + pred.sum() * 0.0

    monkeypatch.setattr(policy_mod.nn, "mse_loss", poisoned)
    with pytest.raises(TrainingDiverged, match="unrest"):
        train_policy(seg_dataset, tiny_config(epochs=1, iters_per_epoch=2))


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train_policy([], tiny_config())
