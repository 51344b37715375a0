import time

import numpy as np
import pytest

from segdt import archive, nn, trajlog
from segdt.env import EnvConfig, ExpertConfig
from segdt.planner import KdUncertaintyIndex, TargetPredictorConfig, TargetReturnPredictor, _TargetMlp
from segdt.policy import Policy, PolicyConfig, PolicyNormalizer, SequencePolicyModel
from segdt.return_model import ReturnEnsemble, ReturnMemberModel, ReturnModelConfig


def _state_standardizer(rng):
    return nn.Standardizer(rng.normal(size=12), rng.uniform(0.5, 2.0, size=12))


def _dataset(rng):
    return trajlog.collect_dataset(EnvConfig(delta=0.1), ExpertConfig(seed=0),
                                   episodes=3, base_seed=100)


def _policy(rng):
    cfg = PolicyConfig(n_layers=1, n_heads=2, embed_dim=8, seq_length=3)
    nrm = PolicyNormalizer(_state_standardizer(rng), nn.Standardizer(0.25, 1.5),
                           nn.Standardizer(-3.0, 7.0), R_bounds=(-1.0, 9.0))
    return Policy(SequencePolicyModel(cfg, rng), cfg, nrm)


def _index(rng):
    return KdUncertaintyIndex(rng.normal(size=(40, 12)), rng.uniform(size=40), k=3,
                              epsilon=0.4)


def _ensemble(rng):
    cfg = ReturnModelConfig(n_layers=1, n_heads=2, embed_dim=8, seq_length=3,
                            ensemble_size=2)
    return ReturnEnsemble(cfg, [ReturnMemberModel(cfg, rng) for _ in range(2)],
                          _state_standardizer(rng), nn.Standardizer(2.0, 3.0), [11, 12])


def _predictor(rng):
    cfg = TargetPredictorConfig(hidden_dim=8, n_hidden=2, ensemble_size=2)
    return TargetReturnPredictor(cfg, [_TargetMlp(cfg, rng) for _ in range(2)],
                                 _state_standardizer(rng), nn.Standardizer(4.5, 0.125))


# kind: (make, save, load, the container a save at ``path`` writes)
KINDS = {
    "dataset": (_dataset, lambda x, path: trajlog.save(x, path), trajlog.load, lambda p: p),
    "policy": (_policy, Policy.save, Policy.load, lambda p: p),
    "index": (_index, KdUncertaintyIndex.save, KdUncertaintyIndex.load, lambda p: p),
    "ensemble": (_ensemble, ReturnEnsemble.save, ReturnEnsemble.load,
                 lambda p: p / ReturnEnsemble.FILE),
    "predictor": (_predictor, TargetReturnPredictor.save, TargetReturnPredictor.load,
                  lambda p: p / TargetReturnPredictor.FILE),
}


@pytest.mark.parametrize("kind", KINDS)
def test_saves_are_byte_identical(kind, tmp_path, monkeypatch):
    make, save, load, container = KINDS[kind]
    save(make(np.random.default_rng(5)), tmp_path / "a")
    # a day later, so an entry stamped with the clock would differ
    later = time.time() + 86400.0
    monkeypatch.setattr(time, "time", lambda: later)
    save(load(tmp_path / "a"), tmp_path / "b")
    assert container(tmp_path / "a").read_bytes() == container(tmp_path / "b").read_bytes()


LAYOUT = {"x": ((None, 2), np.float64)}


@pytest.mark.parametrize("entries, arrays, message", [
    ({"x": np.zeros((3, 2)), "meta": np.frombuffer(b'{"k": ', np.uint8)}, LAYOUT,
     "bad JSON in entry 'meta'"),
    ({"x": np.zeros((3, 2), dtype=np.float32), "meta": {}}, LAYOUT,
     r"entry 'x' has shape \(3, 2\) and dtype float32, expected \(None, 2\) and float64"),
    ({"x": np.zeros((3, 2)), "meta": {"k": 1}}, lambda json: {"x": ((json["meta"]["n"], 2),
                                                                 np.float64)},
     r"JSON entries do not describe this artifact \(KeyError: 'n'\)"),
], ids=["bad-json", "wrong-dtype", "meta-without-layout"])
def test_read_names_the_path_on_each_fault(tmp_path, entries, arrays, message):
    path = tmp_path / "a.npz"
    archive.write(path, "t-v1", **entries)
    with pytest.raises(ValueError, match=rf"a\.npz: {message}"):
        archive.read(path, "t-v1", arrays, json_entries=("meta",))


def test_every_flipped_byte_loads_or_names_the_path(tmp_path):
    """Each byte of a small archive, flipped in turn by a seeded nonzero
    mask, either still loads or raises the ValueError that names the path:
    no fault escapes as another exception type."""
    path = tmp_path / "a.npz"
    archive.write(path, "t-v1", x=np.arange(6.0).reshape(3, 2), meta={"k": 1})
    blob = path.read_bytes()
    masks = np.random.default_rng(11).integers(1, 256, size=len(blob))
    for i, mask in enumerate(masks):
        bad = bytearray(blob)
        bad[i] ^= int(mask)
        path.write_bytes(bytes(bad))
        try:
            archive.read(path, "t-v1", LAYOUT, json_entries=("meta",))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), (i, exc)
