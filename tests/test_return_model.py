import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from segdt import archive, nn, return_model, trajlog
from segdt.env import EnvConfig, ExpertConfig, norm_actions
from segdt.nn import Standardizer, TrainingDiverged
from segdt.return_model import (
    ReturnEnsemble, ReturnMemberModel, ReturnModelConfig,
    mixture_moments,
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
    mu, var = mixture_moments(np.full((3, 1), 2.0), np.full((3, 1), 3.0))
    assert mu[0] == pytest.approx(2.0)
    assert var[0] == pytest.approx(3.0)


def test_mixture_moments_hand_computed():
    # members N(0, 1) and N(2, 1): mu = 1, var = mean(1+0, 1+4) - 1 = 1.5 + 1
    mu, var = mixture_moments([[0.0], [2.0]], [[1.0], [1.0]])
    assert mu[0] == pytest.approx(1.0)
    assert var[0] == pytest.approx(2.0)


def test_mixture_moments_match_sampling_oracle():
    rng = np.random.default_rng(0)
    members = [(float(rng.normal()), float(rng.uniform(0.5, 2.0))) for _ in range(5)]
    mu, var = mixture_moments([[m] for m, _ in members], [[v] for _, v in members])
    draws = np.concatenate([
        rng.normal(m, np.sqrt(v), size=200_000) for m, v in members])
    assert mu[0] == pytest.approx(draws.mean(), abs=0.01)
    assert var[0] == pytest.approx(draws.var(), rel=0.01)


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


# -- untrained member behavior ---------------------------------------------


def test_zero_init_heads_predict_standard_normal():
    member = ReturnMemberModel(TINY, np.random.default_rng(1))
    member.eval()
    ens = ReturnEnsemble(TINY, [member], *IDENTITY, [0])
    rng = np.random.default_rng(2)
    states, actions = rng.normal(size=(4, 12)), rng.normal(size=(4, 2))
    p = ens.predict_trajectory(states, actions)
    # exactly: train_return_models scores every untrained member as zero forecasts
    for key, want in (("mu_s", 0.0), ("var_s", 1.0), ("mu_a", 0.0), ("var_a", 1.0)):
        assert np.array_equal(p[key], np.full((1, 4), want)), key
        assert not np.signbit(p[key]).any(), key


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


@pytest.mark.parametrize("val_fraction", [0.0, 0.25])
def test_untrained_nll_is_a_fresh_members(dataset, val_fraction, monkeypatch):
    """Every curve's leading entry, computed once from zero forecasts, is bit
    for bit the held-out NLL of that member freshly initialised, scored on
    the same validation batches (which hold left-padded windows)."""
    config = dataclasses.replace(TINY, epochs=1, iters_per_epoch=1, val_fraction=val_fraction)
    seen = []
    heldout_nll = return_model._heldout_nll

    def recording(member, batches):
        seen.append((member, batches))
        return heldout_nll(member, batches)

    monkeypatch.setattr(return_model, "_heldout_nll", recording)
    ensemble, history = train_return_models(dataset, config)
    batches, = [b for m, b in seen if m is None]    # the one call, before the members train
    assert any(not b["mask"][:, 0].all() for b in batches)
    for k, curve in enumerate(history):
        fresh = ReturnMemberModel(config, np.random.default_rng(ensemble.mask_seeds[k] + 1))
        want = heldout_nll(fresh.eval(), batches)
        assert np.float64(curve[0]).tobytes() == np.float64(want).tobytes(), k


def test_member_matches_a_loop_without_the_pool(dataset):
    """Two epochs of three default-arch steps by hand, with dropout, outside
    ``nn.fit`` (forward, the two heads' NLL sum, backward, AdamW), held out
    through ``infer``, give the member's parameters and curve bit for bit."""
    cfg = ReturnModelConfig(ensemble_size=1, epochs=2, iters_per_epoch=3)
    assert cfg.dropout > 0 and cfg.embed_dim == 64
    trajs = dataset[:40]
    ensemble, (curve,) = train_return_models(trajs, cfg)

    train, val = split_train_val(trajs, cfg.val_fraction, cfg.seed)
    states = Standardizer.fit(np.concatenate([t.states for t in train]))
    returns = Standardizer.fit(np.concatenate([t.returns_for(cfg.discount) for t in train]))

    def batch(ts, rng):
        b = trajlog.sample_window(ts, cfg.seq_length, cfg.batch_size, rng, columns={
            "returns": [returns(t.returns_for(cfg.discount)) for t in ts]})
        mask = b["mask"][..., None]
        return (states(b["states"]) * mask, norm_actions(b["actions"]) * mask, b["mask"],
                b["returns"])

    val_rng = np.random.default_rng(cfg.seed + 999)
    val_batches = [batch(val, val_rng) for _ in range(4)]

    def heldout(heads) -> float:
        total, count = 0.0, 0.0
        for b in val_batches:
            out = heads(b)
            for mu, lv in (out[:2], out[2:]):
                head_total, head_count = nn.masked_nll_sum(mu, lv, b[3], b[2])
                total += head_total
                count += head_count
        return total / max(count, 1.0)

    mseed = int(np.random.default_rng(cfg.seed).integers(2**31))
    include = np.random.default_rng(mseed).random(len(train)) < cfg.data_mask_prob
    subset = [t for t, inc in zip(train, include) if inc]
    member = ReturnMemberModel(cfg, np.random.default_rng(mseed + 1)).train()
    opt = nn.AdamW(member.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    drop_rng = np.random.default_rng(mseed + 2)
    batch_rng = np.random.default_rng(mseed + 3)
    want = [heldout(lambda b: [np.zeros(b[2].shape)] * 4)]   # untrained: zero heads
    for _ in range(cfg.epochs):
        for _ in range(cfg.iters_per_epoch):
            s, a, mask, ret = batch(subset, batch_rng)
            mu_s, lv_s, mu_a, lv_a = member.forward(s, a, mask, drop_rng)
            loss = nn.gaussian_nll(mu_s, lv_s, ret, mask) + nn.gaussian_nll(mu_a, lv_a, ret, mask)
            opt.zero_grad()
            loss.backward()
            opt.step()
        member.eval()
        want.append(heldout(lambda b: member.infer(*b[:3])))
        member.train()

    assert np.array(curve).tobytes() == np.array(want).tobytes()
    for (name, p), (_, q) in zip(ensemble.members[0].named_parameters(),
                                 member.named_parameters(), strict=True):
        assert p.data.tobytes() == q.data.tobytes(), name


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
    assert loaded.mask_seeds == ens.mask_seeds and loaded.config == ens.config
    for member, again in zip(ens.members, loaded.members, strict=True):
        for (name, p), (name2, q) in zip(member.named_parameters(), again.named_parameters()):
            assert name == name2 and p.data.tobytes() == q.data.tobytes()
    traj = dataset[1]
    a = ens.predict_trajectory(traj.states, traj.actions)
    b = loaded.predict_trajectory(traj.states, traj.actions)
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_load_rejects_wrong_kind(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    archive.write(d / ReturnEnsemble.FILE, "other", meta={})
    with pytest.raises(ValueError, match="expected 'return-ensemble-v1', found 'other'"):
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
