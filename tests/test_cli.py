"""End-to-end pipeline smoke test plus CLI error-path contracts."""

import json
from pathlib import Path

import numpy as np
import pytest

from segdt import cli, evaluator, segmenter, trajlog
from segdt.config import parse_flat_file
from segdt.manifest import RunManifest, hash_artifact
from segdt.nn import TrainingDiverged
from segdt.planner import TargetReturnPredictor
from segdt.policy import Policy, train_policy
from segdt.return_model import ReturnEnsemble, split_train_val

SMOKE = Path(__file__).parents[1] / "configs" / "smoke"


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every stage once on the in-repo smoke configs (~seconds)."""
    d = tmp_path_factory.mktemp("pipeline")
    p = {
        "dataset": d / "data.npz", "ensemble": d / "ensemble",
        "segmented": d / "seg.npz", "policy": d / "policy.json",
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
                              "u_p50", "u_p90", "u_p99", "u_max"}
    assert all(m.metrics[k] >= 0.0 for k in ("load_s", "forecast_s", "save_s"))
    assert m.metrics["uncertain_fraction"] == (u > epsilon).mean()
    for name, q in (("u_p50", 0.5), ("u_p90", 0.9), ("u_p99", 0.99), ("u_max", 1.0)):
        assert m.metrics[name] == np.quantile(u, q), name
    assert m.metrics["u_max"] == u.max()


def test_trainer_manifests_record_stage_metrics(pipeline):
    ret = RunManifest.load(RunManifest.manifest_path(pipeline["ensemble"]))
    pol = RunManifest.load(RunManifest.manifest_path(pipeline["policy"]))
    assert set(ret.metrics) == {"load_s", "train_s", "save_s"}
    assert set(pol.metrics) == {"load_s", "train_s", "save_s", "loss_curve"}
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
               for name in ("dataset", "calibration", "index")}
    assert set(metrics["dataset"]) == {"collect_s", "save_s", "steps"}
    assert metrics["dataset"]["steps"] == sum(len(t) for t in trajlog.load(pipeline["dataset"]))
    assert set(metrics["calibration"]) == {"load_s", "forecast_s", "save_s"}
    assert set(metrics["index"]) == {"load_s", "build_s", "train_s", "save_s"}
    for m in metrics.values():
        assert all(v >= 0.0 for k, v in m.items() if k.endswith("_s"))


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
                  segmented, "--out", tmp_path / "policy.json", "--force"])
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
