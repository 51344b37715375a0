import json

import numpy as np
import pytest

from segdt import nn
from segdt.autodiff import Tensor
from segdt.nn import Standardizer
from segdt.planner import TargetPredictorConfig, TargetReturnPredictor, _TargetMlp
from segdt.policy import Policy, PolicyConfig, PolicyNormalizer, SequencePolicyModel
from segdt.return_model import ReturnEnsemble, ReturnModelConfig


def _columns():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=(1000, 5))
    x[:, 2] = 7.25          # constant column: its std hits the floor
    x[:, 4] *= 1e-9         # tiny spread, under the floor too
    return x


def test_fit_2d_matches_floored_zscore_bitwise():
    x = _columns()
    s = Standardizer.fit(x)
    expected = (x - x.mean(0)) / np.maximum(x.std(0), 1e-6)
    assert s(x).tobytes() == expected.tobytes()
    assert s.std[2] == 1e-6 and s.std[4] == 1e-6
    assert s(x[17]).tobytes() == expected[17].tobytes()


@pytest.mark.parametrize("n", [1, 7, 300, 5000])
def test_fit_1d_keeps_python_floats(n):
    y = np.random.default_rng(n).normal(-4.0, 3.0, size=n)
    s = Standardizer.fit(y)
    assert type(s.mean) is float and type(s.std) is float
    assert s.mean == float(y.mean())
    assert s.std == float(max(y.std(), 1e-6))
    assert s(y).tobytes() == ((y - float(y.mean())) / float(max(y.std(), 1e-6))).tobytes()


def test_fit_1d_constant_hits_floor():
    assert Standardizer.fit(np.full(4, 2.0)).std == 1e-6


def test_inverse_round_trips():
    x = _columns()
    s = Standardizer.fit(x)
    assert np.allclose(s.inverse(s(x)), x, rtol=1e-12, atol=1e-12)
    y = np.linspace(-5.0, 9.0, 50)
    t = Standardizer.fit(y)
    assert np.allclose(t.inverse(t(y)), y, rtol=1e-12, atol=1e-12)
    assert t.inverse(0.5) == 0.5 * t.std + t.mean


def test_dict_round_trip_both_shapes():
    for s in (Standardizer.fit(_columns()), Standardizer.fit(np.arange(9) / 7.0)):
        d = json.loads(json.dumps(s.to_dict("state")))
        assert sorted(d) == ["state_mean", "state_std"]
        back = Standardizer.from_dict(d, "state")
        assert type(back.mean) is type(s.mean) and type(back.std) is type(s.std)
        assert np.asarray(back.mean).tobytes() == np.asarray(s.mean).tobytes()
        assert np.asarray(back.std).tobytes() == np.asarray(s.std).tobytes()


# -- the normalizer layout every checkpoint writes --------------------------

STATE = Standardizer(np.arange(12) / 7.0 - 0.5, np.full(12, 0.25) + np.arange(12))
STATE_D = {
    "state_mean": [k / 7.0 - 0.5 for k in range(12)],
    "state_std": [0.25 + k for k in range(12)],
}


def saved_meta(path) -> dict:
    """The JSON ``meta`` entry of the container at ``path``, read apart from
    the library's reader."""
    with np.load(path) as z:
        return json.loads(z["meta"].tobytes())


def test_return_ensemble_normalizer_layout(tmp_path):
    ReturnEnsemble(ReturnModelConfig(), [], STATE, Standardizer(1 / 3, 2.5), []).save(tmp_path)
    meta = saved_meta(tmp_path / ReturnEnsemble.FILE)
    assert meta["normalizer"] == dict(STATE_D, ret_mean=1 / 3, ret_std=2.5)
    loaded = ReturnEnsemble.load(tmp_path)
    assert loaded.states.mean.tolist() == STATE_D["state_mean"]
    assert loaded.states.std.tolist() == STATE_D["state_std"]
    assert (loaded.returns.mean, loaded.returns.std) == (1 / 3, 2.5)


def test_policy_normalizer_layout(tmp_path):
    cfg = PolicyConfig(kind="bc", n_layers=1, n_heads=2, embed_dim=8, seq_length=3)
    nrm = PolicyNormalizer(STATE, Standardizer(-0.75, 1e-6), Standardizer(12.5, 0.1),
                           R_bounds=(-3.0, 40.0))
    Policy(SequencePolicyModel(cfg, np.random.default_rng(0)), cfg, nrm).save(tmp_path / "p.json")
    saved = saved_meta(tmp_path / "p.json")["normalizer"]
    assert saved == dict(STATE_D, rh_mean=-0.75, rh_std=1e-6, R_mean=12.5, R_std=0.1,
                         R_bounds=[-3.0, 40.0])
    loaded = Policy.load(tmp_path / "p.json").normalizer
    assert loaded.to_dict() == saved and loaded.R_bounds == (-3.0, 40.0)


def _predictor(y: Standardizer) -> TargetReturnPredictor:
    """A one-member predictor over ``STATE`` (a config needs a member)."""
    cfg = TargetPredictorConfig(ensemble_size=1, hidden_dim=4, n_hidden=1)
    return TargetReturnPredictor(cfg, [_TargetMlp(cfg, np.random.default_rng(0))], STATE, y)


def test_target_predictor_normalizer_layout(tmp_path):
    predictor = _predictor(Standardizer(4.5, 0.125))
    cfg = predictor.config
    predictor.save(tmp_path)
    meta = saved_meta(tmp_path / TargetReturnPredictor.FILE)
    assert meta == dict(STATE_D, config=cfg.to_dict(), y_mean=4.5, y_std=0.125)
    loaded = TargetReturnPredictor.load(tmp_path)
    assert loaded.states.std.tolist() == STATE_D["state_std"]
    assert (loaded.y.mean, loaded.y.std) == (4.5, 0.125)


def _checkpoints(tmp_path) -> dict:
    """Each model family: (an instance, where its ``save`` and ``load`` take
    it, the file written)."""
    cfg = PolicyConfig(kind="bc", n_layers=1, n_heads=2, embed_dim=8, seq_length=3)
    nrm = PolicyNormalizer(STATE, Standardizer(0.0, 1.0), Standardizer(0.0, 1.0),
                           R_bounds=(0.0, 1.0))
    policy = Policy(SequencePolicyModel(cfg, np.random.default_rng(0)), cfg, nrm)
    ensemble = ReturnEnsemble(ReturnModelConfig(), [], STATE, Standardizer(0.0, 1.0), [])
    return {
        "policy": (policy, tmp_path / "p.npz", tmp_path / "p.npz"),
        "return-ensemble": (ensemble, tmp_path, tmp_path / ReturnEnsemble.FILE),
        "target-predictor": (_predictor(Standardizer(0.0, 1.0)), tmp_path,
                             tmp_path / TargetReturnPredictor.FILE),
    }


@pytest.mark.parametrize("family", ["policy", "return-ensemble", "target-predictor"])
def test_an_erf_gelu_checkpoint_is_refused(family, tmp_path, monkeypatch):
    """A ``-v1`` checkpoint was trained with the exact (erf) GELU; its
    float32 parameters would load and run another activation, so the tag
    check refuses it with an error that names the file."""
    model, where, path = _checkpoints(tmp_path)[family]
    cls = type(model)
    monkeypatch.setattr(cls, "SCHEMA_VERSION", f"{family}-v1")
    model.save(where)
    monkeypatch.undo()
    with pytest.raises(ValueError, match=f"{path.name}: schema version mismatch: expected "
                                         f"'{family}-v2', found '{family}-v1'"):
        cls.load(where)


# -- the training loop -----------------------------------------------------


def test_fit_steps_in_train_mode_and_hooks_each_epoch_in_eval_mode():
    """Steps run in train mode; each epoch's hook runs in eval mode, gets
    that epoch's step losses, and its values come back in epoch order."""
    model = nn.Linear(3, 1, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(4, 3))
    seen = []

    def loss(b):
        seen.append(model.training)
        return nn.mse_loss(model(Tensor(b)), np.zeros((4, 1)))

    def hook(epoch, losses):
        seen.append(model.training)
        return epoch, losses

    out = nn.fit(model, lambda: x, loss, hook, epochs=2, iters=3, lr=0.1, who="probe")
    assert seen == ([True] * 3 + [False]) * 2 and not model.training
    assert [epoch for epoch, _ in out] == [0, 1]
    assert all(len(losses) == 3 and all(type(v) is float for v in losses) for _, losses in out)


def test_train_step_raises_on_a_non_finite_loss_before_any_update():
    w = nn.Parameter(np.ones(3))
    x = np.array([1.0, np.nan, 1.0])
    with pytest.raises(nn.TrainingDiverged, match="^probe: non-finite loss nan at step 0$"):
        nn.train_step(nn.AdamW([w]), lambda: (w * Tensor(x)).exp().sum(), "probe", "step 0")
    assert np.array_equal(w.data, np.ones(3)) and not np.any(w.grad)


@pytest.mark.parametrize("epochs, iters", [(0, 3), (2, 0), (-1, 1)])
def test_fit_rejects_a_count_below_one_before_any_step(epochs, iters):
    model = nn.Linear(3, 1, np.random.default_rng(0))
    before, drawn = model.state_dict(), []
    with pytest.raises(ValueError, match=f"^probe: training needs epochs >= 1 and iters >= 1, "
                                         f"got epochs={epochs}, iters={iters}$"):
        nn.fit(model, lambda: drawn.append(1), None, None, epochs=epochs, iters=iters,
               lr=0.1, who="probe")
    assert drawn == []
    assert all(np.array_equal(before[k], v) for k, v in model.state_dict().items())
