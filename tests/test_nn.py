import json

import numpy as np
import pytest

from segdt import nn
from segdt.nn import Standardizer
from segdt.planner import TargetPredictorConfig, TargetReturnPredictor
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


def test_return_ensemble_normalizer_layout(tmp_path):
    ReturnEnsemble(ReturnModelConfig(), [], STATE, Standardizer(1 / 3, 2.5), []).save(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["normalizer"] == dict(STATE_D, ret_mean=1 / 3, ret_std=2.5)
    loaded = ReturnEnsemble.load(tmp_path)
    assert loaded.states.mean.tolist() == STATE_D["state_mean"]
    assert loaded.states.std.tolist() == STATE_D["state_std"]
    assert (loaded.returns.mean, loaded.returns.std) == (1 / 3, 2.5)


def test_policy_normalizer_layout(tmp_path):
    cfg = PolicyConfig(kind="bc", n_layers=1, n_heads=2, embed_dim=8, seq_length=3)
    nrm = PolicyNormalizer(STATE, Standardizer(-0.75, 1e-6), Standardizer(12.5, 0.1),
                           R_bounds=(-3.0, 40.0))
    Policy(SequencePolicyModel(cfg, np.random.default_rng(0)), cfg, nrm).save(tmp_path / "p.json")
    saved = nn.load_checkpoint(tmp_path / "p.json")["extras"]["normalizer"]
    assert saved == dict(STATE_D, rh_mean=-0.75, rh_std=1e-6, R_mean=12.5, R_std=0.1,
                         R_bounds=[-3.0, 40.0])
    loaded = Policy.load(tmp_path / "p.json").normalizer
    assert loaded.to_dict() == saved and loaded.R_bounds == (-3.0, 40.0)


def test_target_predictor_normalizer_layout(tmp_path):
    cfg = TargetPredictorConfig(ensemble_size=0)
    TargetReturnPredictor(cfg, [], STATE, Standardizer(4.5, 0.125)).save(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == dict(STATE_D, kind="target-predictor", config=cfg.to_dict(),
                            y_mean=4.5, y_std=0.125)
    loaded = TargetReturnPredictor.load(tmp_path)
    assert loaded.states.std.tolist() == STATE_D["state_std"]
    assert (loaded.y.mean, loaded.y.std) == (4.5, 0.125)
