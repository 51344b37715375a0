"""End-to-end pipeline smoke test plus CLI error-path contracts."""

import itertools
import json
import multiprocessing
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from segdt import cli, evaluator, nn, segmenter, trajlog
from segdt.config import parse_flat_file
from segdt.manifest import RunManifest, hash_artifact
from segdt.nn import TrainingDiverged
from segdt.planner import TargetPredictorConfig, TargetReturnPredictor
from segdt.policy import Policy, PolicyConfig, train_policy
from segdt.return_model import (ReturnEnsemble, ReturnModelConfig, split_train_val,
                               train_return_models)

SMOKE = Path(__file__).parents[1] / "configs" / "smoke"
RUSAGE = ("peak_rss_mb", "workers_peak_rss_mb", "minor_faults",
          "workers_minor_faults")   # every manifest's memory and page-fault figures


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every stage once on the in-repo smoke configs (~seconds)."""
    d = tmp_path_factory.mktemp("pipeline")
    p = {
        "dataset": d / "data.npz", "ensemble": d / "ensemble",
        "segmented": d / "seg.npz", "policy": d / "policy.npz",
        "index": d / "index.npz", "predictor": d / "predictor",
        "report": d / "report.json", "calibration": d / "calibration.json",
    }
    stages = [
        ["collect", "--config", SMOKE / "collect.cfg", "--out", p["dataset"]],
        ["train-return", "--config", SMOKE / "return.cfg",
         "--dataset", p["dataset"], "--out", p["ensemble"]],
        ["segment", "--config", SMOKE / "segment.cfg", "--dataset",
         p["dataset"], "--ensemble", p["ensemble"], "--out", p["segmented"]],
        ["train-policy", "--config", SMOKE / "policy.cfg",
         "--segmented", p["segmented"], "--out", p["policy"]],
        ["build-kdtree", "--config", SMOKE / "index.cfg", "--segmented",
         p["segmented"], "--out", p["index"],
         "--predictor-out", p["predictor"]],
        ["evaluate", "--config", SMOKE / "evaluate.cfg", "--policy",
         p["policy"], "--dataset", p["dataset"], "--index", p["index"],
         "--predictor", p["predictor"], "--out", p["report"]],
        ["calibrate", "--config", SMOKE / "calibrate.cfg", "--dataset",
         p["dataset"], "--ensemble", p["ensemble"], "--out", p["calibration"]],
    ]
    for argv in stages:
        assert run(argv) == 0, f"stage failed: {argv[0]}"
    return p


def test_pipeline_artifacts_exist(pipeline):
    for path in pipeline.values():
        assert path.exists(), path


def test_pipeline_report_contents(pipeline):
    report = json.loads(pipeline["report"].read_text())
    (name, entry), = report.items()
    assert name == "unrest"
    assert len(entry["episodes"]) == 3
    assert 0.0 <= entry["aggregates"]["route_completion"]["mean"] <= 1.0

    calib = json.loads(pipeline["calibration"].read_text())
    assert calib["forecast"]["coverage_1sigma"] >= 0.0
    assert len(calib["forecast"]["members"]) == 2
    assert sum(calib["uncertainty"]["counts"]) > 0


def test_manifests_record_inputs_and_outputs(pipeline):
    m = RunManifest.load(RunManifest.manifest_path(pipeline["segmented"]))
    assert m.command == "segment"
    assert set(m.inputs) == {"dataset", "ensemble"}
    assert m.outputs["segmented"]["sha256"] == hash_artifact(pipeline["segmented"])
    assert m.inputs["dataset"]["sha256"] == hash_artifact(pipeline["dataset"])


def test_segment_manifest_records_stage_metrics(pipeline):
    m = RunManifest.load(RunManifest.manifest_path(pipeline["segmented"]))
    u = np.concatenate([s.u for s in segmenter.load_segmented(pipeline["segmented"])])
    epsilon = float(parse_flat_file(SMOKE / "segment.cfg")["epsilon"])
    assert set(m.metrics) == {"load_s", "forecast_s", "save_s", "uncertain_fraction",
                              "u_p50", "u_p90", "u_p99", "u_max", "workers", *RUSAGE}
    assert all(m.metrics[k] >= 0.0 for k in ("load_s", "forecast_s", "save_s"))
    assert m.metrics["uncertain_fraction"] == (u > epsilon).mean()
    for name, q in (("u_p50", 0.5), ("u_p90", 0.9), ("u_p99", 0.99), ("u_max", 1.0)):
        assert m.metrics[name] == np.quantile(u, q), name
    assert m.metrics["u_max"] == u.max()


def test_trainer_manifests_record_stage_metrics(pipeline):
    ret = RunManifest.load(RunManifest.manifest_path(pipeline["ensemble"]))
    pol = RunManifest.load(RunManifest.manifest_path(pipeline["policy"]))
    assert set(ret.metrics) == {"load_s", "train_s", "save_s", *RUSAGE}
    assert set(pol.metrics) == {"load_s", "train_s", "save_s", "loss_curve", *RUSAGE}
    for m in (ret, pol):
        assert all(m.metrics[k] >= 0.0 for k in ("load_s", "train_s", "save_s"))
    config = Policy.load(pipeline["policy"]).config
    _, curve = train_policy(segmenter.load_segmented(pipeline["segmented"]), config)
    assert len(curve) == config.epochs and pol.metrics["loss_curve"] == curve


def test_rerun_reproduces_artifact_hashes(pipeline, tmp_path):
    out = tmp_path / "data2.jsonl"   # any suffix: the file is written where asked
    assert run(["collect", "--config", SMOKE / "collect.cfg",
                "--out", out]) == 0
    assert hash_artifact(out) == hash_artifact(pipeline["dataset"])

    seg2 = tmp_path / "seg2.jsonl"
    assert run(["segment", "--config", SMOKE / "segment.cfg", "--dataset", out,
                "--ensemble", pipeline["ensemble"], "--out", seg2]) == 0
    assert hash_artifact(seg2) == hash_artifact(pipeline["segmented"])
    assert sorted(p.name for p in tmp_path.iterdir() if "manifest" not in p.name) == [
        "data2.jsonl", "seg2.jsonl"]


def test_stage_manifests_record_timings(pipeline):
    metrics = {name: RunManifest.load(RunManifest.manifest_path(pipeline[name])).metrics
               for name in ("dataset", "segmented", "calibration", "index", "report")}
    assert set(metrics["dataset"]) == {"collect_s", "save_s", "steps", "workers", *RUSAGE}
    assert metrics["dataset"]["steps"] == sum(len(t) for t in trajlog.load(pipeline["dataset"]))
    assert set(metrics["calibration"]) == {"load_s", "forecast_s", "save_s", "workers", *RUSAGE}
    assert set(metrics["index"]) == {"load_s", "build_s", "train_s", "save_s", "loss_curves",
                                     *RUSAGE}
    assert set(metrics["report"]) == {"load_s", "rollout_s", "episodes", *RUSAGE}
    assert metrics["report"]["episodes"] == 3
    # the data stages spread over every usable CPU, and never more workers than items
    cpus = len(os.sched_getaffinity(0))
    assert metrics["dataset"]["workers"] == min(30, cpus)
    assert 1 <= metrics["segmented"]["workers"] <= cpus
    assert 1 <= metrics["calibration"]["workers"] <= cpus
    for m in metrics.values():
        assert all(v >= 0.0 for k, v in m.items() if k.endswith("_s"))
        assert m["peak_rss_mb"] > 0.0 and m["workers_peak_rss_mb"] >= 0.0


def test_build_kdtree_records_the_predictor_loss_curves(pipeline):
    metrics = RunManifest.load(RunManifest.manifest_path(pipeline["index"])).metrics
    config = TargetReturnPredictor.load(pipeline["predictor"]).config
    trajs = [s.traj for s in segmenter.load_segmented(pipeline["segmented"])]
    retrained = TargetReturnPredictor.train(trajs, config)
    assert metrics["loss_curves"] == retrained.loss_curves
    assert len(retrained.loss_curves) == config.ensemble_size
    assert all(len(curve) == config.iters and all(np.isfinite(curve))
               for curve in retrained.loss_curves)
    assert TargetReturnPredictor.load(pipeline["predictor"]).loss_curves == []


def test_pooled_calibration_matches_serial_bytes(pipeline, tmp_path, monkeypatch):
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert run(["calibrate", "--config", SMOKE / "calibrate.cfg", "--dataset",
                    pipeline["dataset"], "--ensemble", pipeline["ensemble"],
                    "--out", tmp_path / f"calibration{cpus}.json"]) == 0
        assert multiprocessing.active_children() == []
        metrics = RunManifest.load(
            RunManifest.manifest_path(tmp_path / f"calibration{cpus}.json")).metrics
        assert metrics["workers"] == cpus
    first = (tmp_path / "calibration1.json").read_bytes()
    assert first == (tmp_path / "calibration2.json").read_bytes()
    assert first == pipeline["calibration"].read_bytes()


def test_calibrate_holds_out_the_trainers_validation_split(pipeline, tmp_path,
                                                          monkeypatch):
    cfg = tmp_path / "return.cfg"
    cfg.write_text((SMOKE / "return.cfg").read_text()
                   .replace("epochs = 2", "epochs = 1")
                   .replace("iters_per_epoch = 30", "iters_per_epoch = 2"))
    assert run(["train-return", "--config", cfg, "--dataset", pipeline["dataset"],
                "--out", tmp_path / "ens", "--seed", 3]) == 0
    held_out = []
    real = evaluator.calibrate

    def spy(ensemble, trajs, *args, **kwargs):
        held_out.extend(trajs)
        return real(ensemble, trajs, *args, **kwargs)

    monkeypatch.setattr(evaluator, "calibrate", spy)
    assert run(["calibrate", "--dataset", pipeline["dataset"], "--ensemble",
                tmp_path / "ens", "--out", tmp_path / "calibration.json"]) == 0
    trained = ReturnEnsemble.load(tmp_path / "ens").config
    assert trained.seed == 3
    _, val = split_train_val(trajlog.load(pipeline["dataset"]), trained.val_fraction, 3)
    assert [t.meta["seed"] for t in held_out] == [t.meta["seed"] for t in val]
    manifest = RunManifest.load(RunManifest.manifest_path(tmp_path / "calibration.json"))
    assert manifest.seeds == [3]


def test_flags_override_config_file(tmp_path):
    out = tmp_path / "tiny.npz"
    assert run(["collect", "--config", SMOKE / "collect.cfg",
                "--episodes", 2, "--out", out]) == 0
    assert len(trajlog.load(out)) == 2


def test_overwrite_refused_without_force(pipeline, capsys):
    rc = run(["collect", "--config", SMOKE / "collect.cfg",
              "--episodes", 1, "--out", pipeline["dataset"]])
    assert rc == 2
    assert "error: code=2" in capsys.readouterr().err
    # the artifact is untouched
    assert len(trajlog.load(pipeline["dataset"])) == 30


def test_overwrite_allowed_with_force(tmp_path):
    out = tmp_path / "d.npz"
    for _ in range(2):
        assert run(["collect", "--config", SMOKE / "collect.cfg",
                    "--episodes", 1, "--out", out, "--force"]) == 0


def test_missing_artifact_exit_3(tmp_path, capsys):
    rc = run(["train-return", "--config", SMOKE / "return.cfg",
              "--dataset", tmp_path / "absent.npz", "--out", tmp_path / "e"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error: code=3" in err


def first_array(z) -> str:
    return next(name for name in z.files if name not in ("schema_version", "meta"))


def rewrite_container(path, edit) -> None:
    """Write the container at ``path`` again, its entries passed through ``edit``."""
    with np.load(path) as z:
        entries = edit(z, {name: z[name] for name in z.files})
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def drop_meta_field(path) -> None:
    """Write the container again without the last key of its JSON meta."""
    def edit(z, entries):
        meta = json.loads(z["meta"].tobytes())
        meta.pop(sorted(meta)[-1])
        return dict(entries, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8))

    rewrite_container(path, edit)


def flip_meta_byte(path) -> None:
    with np.load(path) as z:
        meta = z["meta"].tobytes()
    raw = bytearray(path.read_bytes())
    raw[raw.index(meta) + len(meta) // 2] ^= 1
    path.write_bytes(bytes(raw))


def write_parent_format(path) -> None:
    """The layouts the four artifacts had before the one container: a JSON
    checkpoint, a plain savez index, a directory of per-member JSON files."""
    if path.suffix == ".json":
        path.write_text('{"format": "segdt-ckpt-1", "params": {}}')
    elif path.suffix == ".npz":
        np.savez(path, states=np.zeros((3, 12)), values=np.zeros(3), k=5, epsilon=1.0)
    else:
        path.mkdir()
        (path / "manifest.json").write_text('{"kind": "return-ensemble"}')
        (path / "member_0.json").write_text('{"format": "segdt-ckpt-1"}')


# fault: (how it damages a copy of the artifact's container, what the error says
# after its path); a parent-format artifact is written by write_parent_format
FAULTS = {
    "cut": (lambda path: path.write_bytes(path.read_bytes()[:path.stat().st_size // 2]),
            "cut or corrupt archive"),
    "meta": (flip_meta_byte, "cut or corrupt archive"),
    "field": (drop_meta_field, "JSON entries do not describe this artifact (KeyError: '"),
    "shape": (lambda path: rewrite_container(path, lambda z, e: dict(
        e, **{first_array(z): e[first_array(z)][..., :-1]})), "entry '"),
    "missing": (lambda path: rewrite_container(path, lambda z, e: {
        name: value for name, value in e.items() if name != first_array(z)}),
                "missing members ['"),
    "lengths": (lambda path: rewrite_container(path, lambda z, e: dict(
        e, values=e["values"][:-1])), "states vs"),
}


@pytest.mark.parametrize("artifact, fault", [
    pytest.param(artifact, fault, id=artifact if fault == "cut" else f"{artifact}-{fault}")
    for artifact in ("index", "policy", "predictor", "ensemble")
    for fault in ("cut", "meta", "field", "shape", "missing", "parent")
] + [pytest.param("index", "lengths", id="index-lengths")])
def test_evaluate_on_a_cut_artifact_exits_2_naming_it(pipeline, artifact, fault, tmp_path,
                                                      capsys):
    """Every fault of a loaded artifact exits 2 naming the file: evaluate for
    the policy, index and predictor, calibrate for the ensemble."""
    artifact_path = tmp_path / pipeline[artifact].name
    if fault == "parent":
        write_parent_format(artifact_path)
        named, message = artifact_path, "files of an earlier format must be made again"
    else:
        copy = shutil.copytree if pipeline[artifact].is_dir() else shutil.copyfile
        copy(pipeline[artifact], artifact_path)
        named = {"ensemble": artifact_path / ReturnEnsemble.FILE,
                 "predictor": artifact_path / TargetReturnPredictor.FILE}.get(artifact,
                                                                               artifact_path)
        damage, message = FAULTS[fault]
        damage(named)
    paths = dict(pipeline, **{artifact: artifact_path})
    if artifact == "ensemble":
        argv = ["calibrate", "--config", SMOKE / "calibrate.cfg", "--dataset", paths["dataset"],
                "--ensemble", paths["ensemble"], "--out", tmp_path / "calibration.json"]
    else:
        argv = ["evaluate", "--config", SMOKE / "evaluate.cfg", "--policy", paths["policy"],
                "--dataset", paths["dataset"], "--index", paths["index"],
                "--predictor", paths["predictor"], "--out", tmp_path / "report.json"]
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.count("\n") == 1 and f"{named}: " in err and message in err


def test_build_kdtree_writes_the_index_at_the_path_given(pipeline, tmp_path):
    out = tmp_path / "index.bin"
    assert run(["build-kdtree", "--config", SMOKE / "index.cfg", "--segmented",
                pipeline["segmented"], "--out", out, "--predictor-out", tmp_path / "pred"]) == 0
    assert out.read_bytes() == pipeline["index"].read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "index.bin", "index.bin.manifest.json", "pred"]


def test_unknown_config_key_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("episodes = 2\nnot_a_key = 1\n")
    rc = run(["collect", "--config", bad, "--out", tmp_path / "d.npz"])
    assert rc == 2
    assert "not_a_key" in capsys.readouterr().err


def test_bad_config_value_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("episodes = lots\n")
    rc = run(["collect", "--config", bad, "--out", tmp_path / "d.npz"])
    assert rc == 2
    assert "episodes" in capsys.readouterr().err


def test_degenerate_epsilon_warns(pipeline, tmp_path, capsys):
    out = tmp_path / "seg_high.npz"
    rc = run(["segment", "--dataset", pipeline["dataset"], "--ensemble",
              pipeline["ensemble"], "--epsilon", 1e9, "--c", 3, "--out", out])
    assert rc == 0
    assert "warning" in capsys.readouterr().err
    from segdt.segmenter import load_segmented
    segs = load_segmented(out)
    assert all(len(s.parts) == 1 and s.parts[0].label == "certain"
               for s in segs)


def test_divergence_exit_4(pipeline, tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise TrainingDiverged("non-finite loss")

    monkeypatch.setattr(cli, "train_return_models", boom)
    rc = run(["train-return", "--config", SMOKE / "return.cfg", "--dataset",
              pipeline["dataset"], "--out", tmp_path / "ens"])
    assert rc == 4
    assert "error: code=4" in capsys.readouterr().err


ZERO_STEPS = [
    ("train-policy", "epochs", "invalid PolicyConfig: epochs must be >= 1, got 0"),
    ("train-policy", "iters_per_epoch", "invalid PolicyConfig: iters_per_epoch must be >= 1, "
                                        "got 0"),
    ("train-return", "epochs", "invalid ReturnModelConfig: epochs must be >= 1, got 0"),
    ("build-kdtree", "iters", "invalid IndexConfig: iters must be >= 1, got 0"),
]
ZERO_STEP_IDS = ["policy-epochs", "policy-iters", "return-epochs", "predictor-iters"]
CONFIG_FILES = {"train-policy": "policy.cfg", "train-return": "return.cfg",
                "build-kdtree": "index.cfg", "segment": "segment.cfg",
                "collect": "collect.cfg", "calibrate": "calibrate.cfg"}


def _config_with(tmp_path, stage: str, key: str, value: str = "0") -> Path:
    """The smoke config of ``stage`` with ``key = value``."""
    config = CONFIG_FILES[stage]
    lines = (SMOKE / config).read_text().splitlines(keepends=True)
    cfg = tmp_path / config
    cfg.write_text("".join(line for line in lines if not line.startswith(f"{key} ="))
                   + f"{key} = {value}\n")
    return cfg


@pytest.mark.parametrize("stage, key, message", ZERO_STEPS, ids=ZERO_STEP_IDS)
def test_a_trainer_with_zero_steps_exits_2_and_writes_nothing(pipeline, tmp_path, capsys,
                                                              stage, key, message):
    cfg = _config_with(tmp_path, stage, key)
    inputs = {"train-policy": ["--segmented", pipeline["segmented"]],
              "train-return": ["--dataset", pipeline["dataset"]],
              "build-kdtree": ["--segmented", pipeline["segmented"],
                               "--predictor-out", tmp_path / "predictor"]}[stage]
    rc = run([stage, "--config", cfg, "--out", tmp_path / "model", *inputs])
    assert rc == 2
    assert capsys.readouterr().err == f"error: code=2 command={stage}: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("stage, key, message", ZERO_STEPS, ids=ZERO_STEP_IDS)
def test_zero_steps_exit_2_before_the_stage_reads_its_inputs(tmp_path, capsys,
                                                             stage, key, message):
    """The config rejects the count when the stage reads it: a missing input
    file, which would exit 3, is never looked at."""
    cfg = _config_with(tmp_path, stage, key)
    missing = tmp_path / "missing.npz"
    flag = "--dataset" if stage == "train-return" else "--segmented"
    rc = run([stage, "--config", cfg, "--out", tmp_path / "model", flag, missing])
    assert rc == 2
    assert capsys.readouterr().err == f"error: code=2 command={stage}: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


BAD_TRAINER_FIELDS = [
    ("train-policy", "dropout", "1.0", "invalid PolicyConfig: dropout must be in [0, 1), "
                                       "got 1.0"),
    ("train-policy", "learning_rate", "nan", "invalid PolicyConfig: learning_rate must be "
                                             "finite and > 0, got nan"),
    ("train-return", "n_heads", "0", "invalid ReturnModelConfig: n_heads must be >= 1, got 0"),
    ("train-return", "batch_size", "-1", "invalid ReturnModelConfig: batch_size must be >= 1, "
                                         "got -1"),
]


@pytest.mark.parametrize("stage, key, value, message", BAD_TRAINER_FIELDS,
                         ids=["policy-dropout-1", "policy-lr-nan", "return-heads-0",
                              "return-batch-minus-1"])
def test_a_bad_trainer_field_exits_2_before_the_stage_reads_its_inputs(
        tmp_path, capsys, stage, key, value, message):
    """A dropout of 1 (which divided by zero at the first step), a NaN
    learning rate (which exited 4 as a diverged run), no heads or a negative
    batch are config errors when the config is read."""
    cfg = _config_with(tmp_path, stage, key, value)
    flag = "--dataset" if stage == "train-return" else "--segmented"
    rc = run([stage, "--config", cfg, "--out", tmp_path / "model", flag,
              tmp_path / "missing.npz"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: code=2 command={stage}: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


BAD_STAGE_FIELDS = [
    ("segment", "c", "0", "invalid SegmentConfig: c must be >= 1, got 0"),
    ("segment", "epsilon", "nan", "invalid SegmentConfig: epsilon must be finite, got nan"),
    ("build-kdtree", "knn", "0", "invalid IndexConfig: knn must be >= 1, got 0"),
    ("build-kdtree", "ensemble_size", "0", "invalid IndexConfig: ensemble_size must be >= 1, "
                                           "got 0"),
    ("build-kdtree", "span_max", "0", "invalid IndexConfig: span_max must be >= 1, got 0"),
    ("build-kdtree", "learning_rate", "inf", "invalid IndexConfig: learning_rate must be "
                                             "finite and > 0, got inf"),
]


@pytest.mark.parametrize("stage, key, value, message", BAD_STAGE_FIELDS,
                         ids=["segment-c-0", "segment-epsilon-nan", "index-knn-0",
                              "predictor-members-0", "predictor-span-0", "predictor-lr-inf"])
def test_a_bad_segment_or_index_field_exits_2_before_the_stage_reads_its_inputs(
        tmp_path, capsys, stage, key, value, message):
    """``c = 0`` (which failed only inside the segment workers, after the
    forecasts), a NaN epsilon (which marked every step certain), no
    neighbours, no predictor members, no spans or an infinite learning rate
    are config errors when the config is read, before any data work."""
    cfg = _config_with(tmp_path, stage, key, value)
    inputs = {"segment": ["--dataset", tmp_path / "missing.npz",
                          "--ensemble", tmp_path / "missing"],
              "build-kdtree": ["--segmented", tmp_path / "missing.npz",
                               "--predictor-out", tmp_path / "predictor"]}[stage]
    rc = run([stage, "--config", cfg, "--out", tmp_path / "out.npz", *inputs])
    assert rc == 2
    assert capsys.readouterr().err == f"error: code=2 command={stage}: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


BAD_DATA_STAGE_FIELDS = [
    ("collect", "episodes", "0", "invalid CollectConfig: episodes must be >= 1, got 0"),
    ("collect", "delta", "1.5", "invalid CollectConfig: delta must be in [0, 1], got 1.5"),
    ("calibrate", "epsilon", "nan", "invalid CalibrateConfig: epsilon must be finite, got nan"),
    ("calibrate", "bins", "0", "invalid CalibrateConfig: bins must be >= 1, got 0"),
]


@pytest.mark.parametrize("stage, key, value, message", BAD_DATA_STAGE_FIELDS,
                         ids=["collect-episodes-0", "collect-delta-1.5",
                              "calibrate-epsilon-nan", "calibrate-bins-0"])
def test_a_bad_collect_or_calibrate_field_exits_2_before_any_file_work(
        tmp_path, capsys, stage, key, value, message):
    """No episodes (which wrote an empty dataset and exited 0), a delta
    above 1 (which exited 2 only after making the output's directory), a
    NaN epsilon (which wrote ``"epsilon": NaN``, not valid JSON) and no
    bins (which failed after the forecasts) are config errors when the
    config is read: no input is looked at and no directory is made."""
    cfg = _config_with(tmp_path, stage, key, value)
    inputs = {"collect": [],
              "calibrate": ["--dataset", tmp_path / "missing.npz",
                            "--ensemble", tmp_path / "missing"]}[stage]
    rc = run([stage, "--config", cfg, "--out", tmp_path / "out" / "out.npz", *inputs])
    assert rc == 2
    assert capsys.readouterr().err == f"error: code=2 command={stage}: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.fixture(scope="module")
def baselines(pipeline, tmp_path_factory):
    """dt and bc policies trained on the smoke segmented dataset."""
    d = tmp_path_factory.mktemp("baselines")
    for kind in ("dt", "bc"):
        assert run(["train-policy", "--config", SMOKE / "policy.cfg", "--kind", kind,
                    "--segmented", pipeline["segmented"], "--out", d / f"{kind}.npz"]) == 0
    return {kind: d / f"{kind}.npz" for kind in ("dt", "bc")}


@pytest.mark.parametrize("kind, length, message", [
    ("dt", 0, "invalid EvaluateConfig: history_length must be >= 1, got 0"),
    ("bc", -2, "invalid EvaluateConfig: history_length must be >= 1, got -2"),
    ("bc", 8, "history_length 8 exceeds the policy's seq_length 5"),
], ids=["dt-0", "bc-minus-2", "bc-above-seq-length"])
def test_evaluate_rejects_a_bad_history_length_before_the_first_episode(
        pipeline, baselines, tmp_path, capsys, monkeypatch, kind, length, message):
    def no_rollout(*args):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(evaluator, "rollout", no_rollout)
    lines = (SMOKE / "evaluate.cfg").read_text().splitlines(keepends=True)
    cfg = tmp_path / "evaluate.cfg"
    cfg.write_text("".join(line for line in lines if not line.startswith("history_length"))
                   + f"history_length = {length}\n")
    report = tmp_path / "report.json"
    rc = run(["evaluate", "--config", cfg, "--policy", baselines[kind],
              "--dataset", pipeline["dataset"], "--out", report])
    assert rc == 2
    assert capsys.readouterr().err == f"error: code=2 command=evaluate: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("field, value, message", [
    ("span_horizon", 0, "span_horizon must be >= 1, got 0"),
    ("eta", 1.0, "eta must be in (0, 1), got 1.0"),
], ids=["span-horizon-0", "eta-1"])
def test_evaluate_rejects_a_bad_planner_field_before_any_load(tmp_path, capsys, field, value,
                                                              message):
    """The planner's fields are checked with the config, before any artifact
    is read: none of the paths given exists."""
    lines = (SMOKE / "evaluate.cfg").read_text().splitlines(keepends=True)
    cfg = tmp_path / "evaluate.cfg"
    cfg.write_text("".join(line for line in lines if not line.startswith(field))
                   + f"{field} = {value}\n")
    missing = tmp_path / "missing"
    rc = run(["evaluate", "--config", cfg, "--policy", missing / "policy.npz",
              "--dataset", missing / "data.npz", "--index", missing / "index.npz",
              "--predictor", missing / "predictor", "--out", tmp_path / "report.json"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: code=2 command=evaluate: invalid EvaluateConfig: {message}\n")


def _poison_fit(monkeypatch):
    """Make ``nn.fit``'s loss NaN at the third step of the last epoch."""
    real_fit = nn.fit

    def fit(model, batch, loss, after_epoch, *, epochs, iters, **kw):
        steps, poisoned = itertools.count(), (epochs - 1) * iters + 2

        def poisoned_loss(b):
            value = loss(b)
            return value * np.nan if next(steps) == poisoned else value

        return real_fit(model, batch, poisoned_loss, after_epoch, epochs=epochs, iters=iters,
                        **kw)

    monkeypatch.setattr(nn, "fit", fit)


@pytest.mark.parametrize("trainer, message", [
    ("policy", "policy unrest: non-finite loss nan at epoch 1, iter 2"),
    ("return", "member 0: non-finite loss nan at epoch 1, iter 2"),
    ("predictor", "target predictor member 0: non-finite loss nan at epoch 0, iter 2"),
], ids=["policy", "return", "predictor"])
def test_each_trainer_names_the_step_that_diverged(pipeline, monkeypatch, trainer, message):
    _poison_fit(monkeypatch)
    small = dict(n_layers=1, n_heads=2, embed_dim=16, seq_length=5, epochs=2,
                 iters_per_epoch=4)
    train = {
        "policy": lambda: train_policy(segmenter.load_segmented(pipeline["segmented"]),
                                       PolicyConfig(**small)),
        "return": lambda: train_return_models(
            trajlog.annotate_dataset(trajlog.load(pipeline["dataset"]), gammas=(0.95,)),
            ReturnModelConfig(ensemble_size=1, **small)),
        "predictor": lambda: TargetReturnPredictor.train(
            trajlog.load(pipeline["dataset"]),
            TargetPredictorConfig(ensemble_size=1, hidden_dim=8, n_hidden=1, iters=4)),
    }[trainer]
    with pytest.raises(TrainingDiverged) as exc:
        train()
    assert str(exc.value) == message


def test_build_kdtree_trains_the_predictor_with_the_seed_flag(pipeline, tmp_path):
    members = {}
    for seed in (5, 0):
        out, pred = tmp_path / f"index{seed}.npz", tmp_path / f"predictor{seed}"
        assert run(["build-kdtree", "--config", SMOKE / "index.cfg", "--segmented",
                    pipeline["segmented"], "--out", out, "--predictor-out", pred,
                    "--seed", seed]) == 0
        assert RunManifest.load(RunManifest.manifest_path(out)).seeds == [seed]
        predictor = TargetReturnPredictor.load(pred)
        assert predictor.config.seed == seed
        members[seed] = predictor.members[0].state_dict()
    assert any(not np.array_equal(members[5][k], members[0][k]) for k in members[0])


@pytest.mark.parametrize("command", ["segment", "calibrate"])
def test_stages_that_draw_nothing_reject_seed(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--seed", 3])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def write_v2_jsonl(trajs, path):
    """The traj-v2 layout: a JSONL header line, then one line per trajectory
    holding its meta and its per-step columns as whole lists."""
    recs = [{"schema_version": "traj-v2", "trajectory_count": len(trajs)}]
    recs += [{"meta": t.meta, "states": t.states.tolist(), "actions": t.actions.tolist(),
              "rewards": t.rewards.tolist(), "reward_terms": t.reward_terms,
              "infractions": t.infractions} for t in trajs]
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))


def test_train_policy_rejects_other_schemas_exit_2(pipeline, tmp_path, capsys):
    v2 = tmp_path / "seg_v2.jsonl"
    write_v2_jsonl([s.traj for s in segmenter.load_segmented(pipeline["segmented"])], v2)
    for segmented, message in ((v2, "not an npz archive"),
                               (pipeline["dataset"], "schema version mismatch")):
        rc = run(["train-policy", "--config", SMOKE / "policy.cfg", "--segmented",
                  segmented, "--out", tmp_path / "policy.npz", "--force"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{segmented}: {message}" in err


def test_segment_rejects_a_v2_jsonl_dataset_exit_2(pipeline, tmp_path, capsys):
    v2 = tmp_path / "data_v2.jsonl"
    write_v2_jsonl(trajlog.load(pipeline["dataset"]), v2)
    rc = run(["segment", "--config", SMOKE / "segment.cfg", "--dataset", v2,
              "--ensemble", pipeline["ensemble"], "--out", tmp_path / "seg.npz"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{v2}: not an npz archive" in err
    assert not (tmp_path / "seg.npz").exists()


@pytest.mark.parametrize("kind, unread", [("bc", ("dataset", "index", "predictor")),
                                          ("dt", ("index", "predictor")), ("unrest", ())])
def test_evaluate_records_every_input_and_warns_on_unread_ones(
        pipeline, baselines, tmp_path, capsys, kind, unread):
    """Every input path given is in the manifest; one the policy kind does
    not read is also named, by its flag, in a warning on stderr."""
    policy = pipeline["policy"] if kind == "unrest" else baselines[kind]
    report = tmp_path / "report.json"
    rc = run(["evaluate", "--config", SMOKE / "evaluate.cfg", "--policy", policy,
              "--dataset", pipeline["dataset"], "--index", pipeline["index"],
              "--predictor", pipeline["predictor"], "--episodes", 1, "--out", report])
    assert rc == 0
    err = capsys.readouterr().err
    for name in ("dataset", "index", "predictor"):
        assert (f"warning: a {kind} policy does not read --{name};" in err) == (name in unread)
    m = RunManifest.load(RunManifest.manifest_path(report))
    assert set(m.inputs) == {"policy", "dataset", "index", "predictor"}
    for name in ("dataset", "index", "predictor"):
        assert m.inputs[name]["sha256"] == hash_artifact(pipeline[name])
