import multiprocessing
import os

import numpy as np
import pytest

from segdt import trajlog
from segdt.env import EnvConfig, ExpertConfig, norm_actions
from segdt.nn import Standardizer
from segdt.return_model import (
    ReturnDistribution, ReturnEnsemble, ReturnMemberModel,
    ReturnModelConfig, TrainingDiverged, ensemble_moments, mixture_moments,
    split_train_val, train_return_models,
)

TINY = ReturnModelConfig(
    n_layers=1, n_heads=2, embed_dim=16, seq_length=5, dropout=0.0,
    learning_rate=1e-3, batch_size=32, ensemble_size=2, epochs=3,
    iters_per_epoch=30, val_fraction=0.1, seed=0,
)
# states and returns passed through unscaled
IDENTITY = (Standardizer(np.zeros(12), np.ones(12)), Standardizer(0.0, 1.0))


@pytest.fixture(scope="module")
def dataset():
    trajs = trajlog.collect_dataset(EnvConfig(delta=0.1), ExpertConfig(seed=0),
                                    episodes=200, base_seed=0)
    return trajlog.annotate_dataset(trajs, gammas=(0.95,))


@pytest.fixture(scope="module")
def trained(dataset):
    return train_return_models(dataset, TINY)


# -- mixture moments -------------------------------------------------------


def test_mixture_moments_identical_members():
    d = ReturnDistribution(2.0, 3.0)
    out = ensemble_moments([d, d, d])
    assert out.mu == pytest.approx(2.0)
    assert out.var == pytest.approx(3.0)


def test_mixture_moments_hand_computed():
    # members N(0, 1) and N(2, 1): mu = 1, var = mean(1+0, 1+4) - 1 = 1.5 + 1
    out = ensemble_moments([ReturnDistribution(0.0, 1.0), ReturnDistribution(2.0, 1.0)])
    assert out.mu == pytest.approx(1.0)
    assert out.var == pytest.approx(2.0)


def test_mixture_moments_match_sampling_oracle():
    rng = np.random.default_rng(0)
    members = [ReturnDistribution(float(rng.normal()), float(rng.uniform(0.5, 2.0)))
               for _ in range(5)]
    out = ensemble_moments(members)
    draws = np.concatenate([
        rng.normal(m.mu, np.sqrt(m.var), size=200_000) for m in members])
    assert out.mu == pytest.approx(draws.mean(), abs=0.01)
    assert out.var == pytest.approx(draws.var(), rel=0.01)


def test_mixture_moments_empty_rejected():
    with pytest.raises(ValueError):
        ensemble_moments([])


def scalar_moments(mus: list, vars_: list) -> tuple:
    """The per-step formula mixture_moments replaces, one step at a time."""
    mus, vars_ = np.array(mus), np.array(vars_)
    mu = mus.mean()
    var = (vars_ + mus**2).mean() - mu**2
    var = max(var, vars_.min() * 1e-12 + 1e-300)
    return float(mu), float(var)


def member_forecasts(K, T, rng, spread=1.0):
    """(K, T) member means and variances over several orders of magnitude;
    ``spread`` scales how far members sit from their common centre."""
    centre = rng.normal(size=T) * 10.0 ** rng.uniform(-3, 4, size=T)
    mu = centre + spread * rng.normal(size=(K, T)) * np.abs(centre)
    var = 10.0 ** rng.uniform(-4, 4, size=(K, T))
    return mu, var


# K = 9 also checks the member order of the sum, which a plain axis-0 mean
# changes from K = 8 on
@pytest.mark.parametrize("K", [1, 2, 5, 9])
@pytest.mark.parametrize("spread", [1.0, 1e-13, 0.0])
def test_mixture_moments_bitwise_equal_scalar_formula(K, spread):
    rng = np.random.default_rng(K)
    mu, var = member_forecasts(K, 4000, rng, spread)
    if spread == 0.0:   # identical members: the cancellation floor decides
        var[:] = var[0]
    mix_mu, mix_var = mixture_moments(mu, var)
    for t in range(mu.shape[1]):
        want = scalar_moments([float(v) for v in mu[:, t]], [float(v) for v in var[:, t]])
        assert (mix_mu[t], mix_var[t]) == want, f"step {t}"
        assert ensemble_moments([ReturnDistribution(m, v) for m, v in
                                 zip(mu[:, t], var[:, t])]) == ReturnDistribution(*want)


def test_mixture_moments_absolute_floor():
    mu = np.full((3, 2), 7.0)
    var = np.full((3, 2), 1e-20)
    _, mix_var = mixture_moments(mu, var, floor=1e-12)
    assert np.all(mix_var == 1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_mixture_moments_rejects_invalid_member_variance(bad):
    mu, var = np.zeros((2, 5)), np.ones((2, 5))
    var[1, 3] = bad
    with pytest.raises(ValueError, match=r"\(1, 3\)"):
        mixture_moments(mu, var)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mixture_moments_rejects_non_finite_member_mean(bad):
    mu, var = np.zeros((2, 5)), np.ones((2, 5))
    mu[0, 2] = bad
    with pytest.raises(ValueError, match="invalid return distribution"):
        mixture_moments(mu, var)


def test_mixture_moments_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        mixture_moments(np.zeros((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        mixture_moments(np.zeros((0, 3)), np.ones((0, 3)))


def test_distribution_validates():
    with pytest.raises(ValueError):
        ReturnDistribution(0.0, -1.0)
    with pytest.raises(ValueError):
        ReturnDistribution(np.nan, 1.0)


# -- untrained member behavior ---------------------------------------------


def test_zero_init_heads_predict_standard_normal():
    member = ReturnMemberModel(TINY, np.random.default_rng(1))
    member.eval()
    ens = ReturnEnsemble(TINY, [member], *IDENTITY, [0])
    rng = np.random.default_rng(2)
    states, actions = rng.normal(size=(4, 12)), rng.normal(size=(4, 2))
    p = ens.predict_trajectory(states, actions)
    assert np.allclose(p["mu_s"], 0.0) and np.allclose(p["var_s"], 1.0)
    assert np.allclose(p["mu_a"], 0.0) and np.allclose(p["var_a"], 1.0)


def _causality_ensemble():
    cfg = TINY
    rng = np.random.default_rng(3)
    member = ReturnMemberModel(cfg, rng)
    # non-trivial heads so predictions actually depend on the trunk output
    member.head_state.weight.data[...] = rng.normal(0, 0.1, member.head_state.weight.shape)
    member.head_action.weight.data[...] = rng.normal(0, 0.1, member.head_action.weight.shape)
    member.eval()
    return ReturnEnsemble(cfg, [member], *IDENTITY, [0])


def test_state_head_sees_current_state_not_current_action():
    ens = _causality_ensemble()
    rng = np.random.default_rng(4)
    states, actions = rng.normal(size=(4, 12)), rng.normal(size=(4, 2))
    base = ens.predict_trajectory(states, actions)
    pert = actions.copy()
    pert[-1] += 1.0  # current action must be invisible to both heads at t
    out = ens.predict_trajectory(states, pert)
    t = states.shape[0] - 1
    assert out["mu_s"][0, t] == base["mu_s"][0, t]
    assert out["mu_a"][0, t] == base["mu_a"][0, t]
    # but a past action must influence both
    pert2 = actions.copy()
    pert2[0] += 1.0
    out2 = ens.predict_trajectory(states, pert2)
    assert out2["mu_s"][0, t] != base["mu_s"][0, t]


def test_action_head_blind_to_current_state():
    ens = _causality_ensemble()
    rng = np.random.default_rng(5)
    states, actions = rng.normal(size=(4, 12)), rng.normal(size=(4, 2))
    base = ens.predict_trajectory(states, actions)
    pert = states.copy()
    pert[-1] += 1.0
    out = ens.predict_trajectory(states=pert, actions=actions)
    t = states.shape[0] - 1
    assert out["mu_a"][0, t] == base["mu_a"][0, t]      # action head: unseen
    assert out["mu_s"][0, t] != base["mu_s"][0, t]      # state head: seen


# -- training ---------------------------------------------------------------


def test_split_train_val_partition(dataset):
    train, val = split_train_val(dataset, 0.25, seed=0)
    assert len(train) + len(val) == len(dataset)
    assert len(val) == round(0.25 * len(dataset))
    ids = {id(t) for t in dataset}
    assert {id(t) for t in train + val} == ids


def test_training_improves_heldout_nll(trained):
    _, history = trained
    assert len(history) == TINY.ensemble_size
    for curve in history:
        assert len(curve) == TINY.epochs + 1  # leading entry is untrained
        assert curve[-1] < curve[0]


def test_members_disagree(trained, dataset):
    ens, _ = trained
    traj = dataset[0]
    p = ens.predict_trajectory(traj.states, traj.actions)
    assert not np.allclose(p["mu_s"][0], p["mu_s"][1])


def test_windows_left_padded_per_step():
    cfg = ReturnModelConfig(seq_length=4)
    ens = ReturnEnsemble(cfg, [], *IDENTITY, [])
    rng = np.random.default_rng(6)
    states, actions = rng.normal(size=(6, 12)), rng.normal(size=(6, 2))
    ws, wa, mask = ens._windows(states, actions)
    na = norm_actions(actions)
    for t in range(6):
        n = min(t + 1, 4)
        assert mask[t].tolist() == [False] * (4 - n) + [True] * n
        assert np.array_equal(ws[t, 4 - n:], states[t + 1 - n:t + 1])
        assert np.array_equal(wa[t, 4 - n:], na[t + 1 - n:t + 1])
        assert not ws[t, :4 - n].any() and not wa[t, :4 - n].any()


def test_checkpoint_roundtrip_bitwise(trained, dataset, tmp_path):
    ens, _ = trained
    ens.save(tmp_path / "ret")
    loaded = ReturnEnsemble.load(tmp_path / "ret")
    assert loaded.mask_seeds == ens.mask_seeds
    traj = dataset[1]
    a = ens.predict_trajectory(traj.states, traj.actions)
    b = loaded.predict_trajectory(traj.states, traj.actions)
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_load_rejects_wrong_kind(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "manifest.json").write_text('{"kind": "other"}')
    with pytest.raises(ValueError, match="not a return-ensemble"):
        ReturnEnsemble.load(d)


def test_divergence_aborts_with_diagnostics(dataset, monkeypatch):
    from segdt import return_model
    from segdt.autodiff import Tensor

    def poisoned_nll(mu, log_var, target, mask=None):
        return Tensor(np.nan) + mu.sum() * 0.0

    monkeypatch.setattr(return_model.nn, "gaussian_nll", poisoned_nll)
    cfg = ReturnModelConfig(
        n_layers=1, n_heads=2, embed_dim=16, seq_length=5, dropout=0.0,
        ensemble_size=1, epochs=1, iters_per_epoch=5, seed=0,
    )
    with pytest.raises(TrainingDiverged, match="member 0"):
        train_return_models(dataset[:10], cfg)


# -- members in parallel workers -------------------------------------------

POOLED = ReturnModelConfig(
    n_layers=1, n_heads=2, embed_dim=16, seq_length=5, dropout=0.1,
    batch_size=16, ensemble_size=3, epochs=2, iters_per_epoch=4, seed=5,
)


def _train_on_cpus(monkeypatch, trajs, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return train_return_models(trajs, POOLED)


def test_parallel_members_match_serial_bitwise(dataset, monkeypatch):
    serial, serial_hist = _train_on_cpus(monkeypatch, dataset[:40], 1)
    pooled, pooled_hist = _train_on_cpus(monkeypatch, dataset[:40], 2)
    assert pooled.mask_seeds == serial.mask_seeds
    assert pooled_hist == serial_hist
    for a, b in zip(serial.members, pooled.members):
        sa, sb = a.state_dict(), b.state_dict()
        assert sa.keys() == sb.keys()
        for name in sa:
            assert sa[name].tobytes() == sb[name].tobytes(), name
    assert multiprocessing.active_children() == []


def test_parallel_divergence_names_lowest_failing_member(dataset, monkeypatch):
    from segdt import nn, return_model
    from segdt.autodiff import Tensor

    current = {}
    real_map, real_nll = nn.map_members, nn.gaussian_nll

    def tagged_map(fn, n):
        return real_map(lambda k: (current.update(k=k), fn(k))[1], n)

    def poisoned_nll(mu, log_var, target, mask=None):
        if current["k"] >= 1:  # members 1 and 2 diverge, member 0 trains
            return Tensor(np.nan) + mu.sum() * 0.0
        return real_nll(mu, log_var, target, mask)

    monkeypatch.setattr(return_model.nn, "map_members", tagged_map)
    monkeypatch.setattr(return_model.nn, "gaussian_nll", poisoned_nll)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(TrainingDiverged, match="member 1:"):
        train_return_models(dataset[:40], POOLED)
    assert multiprocessing.active_children() == []
