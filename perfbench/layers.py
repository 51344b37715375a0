"""Where each segdt layer is traced, and how its spans become metrics.

Each name is wrapped where its caller looks it up: a method on its class, a
module attribute that callers reach through the module, or the name that
``cli`` or ``evaluator`` imported into its own namespace.
"""

from __future__ import annotations

import os

from segdt import (autodiff, cli, env, evaluator, manifest, nn, planner,
                   policy, return_model, segmenter, trajlog)

from tracing import Tracer


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _steps(args, kwargs, result):
    return {"steps": args[1].shape[0]}


def _flagged(args, kwargs, result):
    return {"flagged": int(args[0].flags.sum()), "steps": args[0].u.size}


def _plan_record(args, kwargs, result):
    rec = result[1].trace[-1]
    return {"dummy": rec["dummy"], "fallback": rec["predictor_failed"],
            "clamped": rec["clamped"]}


# the transformer trainers, whose steps autodiff.tensors_per_iter counts
TRAINERS = ("return_model.train", "policy.train")


def make_tracer() -> Tracer:
    t = Tracer()
    t.count_calls(autodiff.Tensor, "__init__", "autodiff.tensor", TRAINERS)
    t.wrap(autodiff.Tensor, "backward", "autodiff.backward")
    t.wrap(nn.AdamW, "step", "nn.adamw_step")
    t.wrap(nn, "save_checkpoint", "nn.checkpoint_io")
    t.wrap(nn, "load_checkpoint", "nn.checkpoint_io")
    t.wrap(env.HighwayEnv, "step", "env.step")
    t.wrap(env.RuleExpert, "act", "env.expert_act")
    t.wrap(trajlog, "collect_dataset", "trajlog.collect")
    t.wrap(trajlog, "save", "trajlog.save", _file_bytes)
    t.wrap(trajlog, "load", "trajlog.load")
    t.wrap(trajlog, "save_binary", "trajlog.save_binary", _file_bytes)
    t.wrap(trajlog, "load_binary", "trajlog.load_binary")
    t.wrap(trajlog, "sample_window", "trajlog.sample_window")
    t.wrap(cli, "train_return_models", "return_model.train")
    t.wrap(return_model.ReturnMemberModel, "forward", "return_model.forward")
    t.wrap(return_model.ReturnEnsemble, "predict_trajectory",
           "return_model.predict_trajectory", _steps)
    t.wrap(segmenter, "estimate_uncertainty", "segmenter.estimate_uncertainty")
    t.wrap(segmenter, "segment", "segmenter.segment", _flagged)
    t.wrap(segmenter, "relabel", "segmenter.relabel")
    t.wrap(segmenter, "save_segmented", "segmenter.save_segmented", _file_bytes)
    t.wrap(segmenter, "load_segmented", "segmenter.load_segmented")
    t.wrap(cli, "train_policy", "policy.train")
    t.wrap(policy.SequencePolicyModel, "forward", "policy.forward")
    t.wrap(policy.Policy, "act", "policy.act")
    t.wrap(evaluator, "plan_step", "planner.plan_step", _plan_record)
    t.wrap(planner.KdUncertaintyIndex, "query", "planner.kd_query")
    t.wrap(planner.KdUncertaintyIndex, "build", "planner.kd_build")
    t.wrap(planner.TargetReturnPredictor, "predict_target", "planner.predict_target")
    t.wrap(planner.TargetReturnPredictor, "train", "planner.predictor_train")
    t.wrap(evaluator, "run_episode", "evaluator.run_episode")
    t.wrap(evaluator, "calibrate", "evaluator.calibrate")
    t.wrap(cli, "main", "cli.main")
    t.wrap(manifest.RunManifest, "add_input", "cli.manifest_hash")
    t.wrap(manifest.RunManifest, "add_output", "cli.manifest_hash")
    return t


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-layer (value, unit) pairs, per traced unit of work.

    Seconds and counts are totals over the timed phase's traced units divided
    by their number, so runs that fit a different number of units compare.
    ``nn.checkpoint_io_s`` adds the traced set-up's checkpoint IO, since
    ``rollout`` saves and loads every checkpoint it uses there.
    """
    spans = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "within": {}}

    def span(name, phase="timed"):
        return spans.get((name, phase), empty)

    def total(name):
        return span(name)["total_s"] / units

    def own(name):
        return span(name)["self_s"] / units

    def calls(name):
        return span(name)["calls"] / units

    def amount(name, key):
        return tracer.amounts[f"{name}.{key}", "timed"] / units

    def ratio(a, b):
        return a / b if b else 0.0

    adamw = span("nn.adamw_step")["within"]
    trainer_tensors = sum(tracer.counts[f"autodiff.tensor@{t}", "timed"] for t in TRAINERS)
    tensors = tracer.counts["autodiff.tensor", "timed"] / units
    return {
        "autodiff.backward_s": (total("autodiff.backward"), "s"),
        "autodiff.tensors_per_iter": (ratio(trainer_tensors,
                                            sum(adamw.get(t, 0) for t in TRAINERS)), "count"),
        "autodiff.tensors_per_decision": (ratio(tensors, calls("planner.plan_step")), "count"),
        "nn.adamw_step_s": (total("nn.adamw_step"), "s"),
        "nn.checkpoint_io_s": (total("nn.checkpoint_io")
                               + span("nn.checkpoint_io", "setup")["total_s"], "s"),
        "env.step_s": (total("env.step"), "s"),
        "env.steps": (calls("env.step"), "count"),
        "env.expert_act_s": (total("env.expert_act"), "s"),
        "trajlog.save_s": (total("trajlog.save"), "s"),
        "trajlog.load_s": (total("trajlog.load"), "s"),
        "trajlog.save_binary_s": (total("trajlog.save_binary"), "s"),
        "trajlog.load_binary_s": (total("trajlog.load_binary"), "s"),
        "trajlog.bytes": (amount("trajlog.save", "bytes")
                          + amount("trajlog.save_binary", "bytes"), "B"),
        "trajlog.collect_self_s": (own("trajlog.collect"), "s"),
        "trajlog.sample_window_s": (total("trajlog.sample_window"), "s"),
        "return_model.forward_s": (total("return_model.forward"), "s"),
        "return_model.train_iters": (adamw.get("return_model.train", 0) / units, "count"),
        "return_model.predict_trajectory_s": (total("return_model.predict_trajectory"), "s"),
        "return_model.predict_steps": (amount("return_model.predict_trajectory", "steps"),
                                       "count"),
        "segmenter.estimate_uncertainty_self_s": (own("segmenter.estimate_uncertainty"), "s"),
        "segmenter.segment_relabel_s": (total("segmenter.segment")
                                        + total("segmenter.relabel"), "s"),
        "segmenter.save_segmented_s": (total("segmenter.save_segmented"), "s"),
        "segmenter.load_segmented_s": (total("segmenter.load_segmented"), "s"),
        "segmenter.bytes": (amount("segmenter.save_segmented", "bytes"), "B"),
        "segmenter.uncertain_fraction": (ratio(amount("segmenter.segment", "flagged"),
                                               amount("segmenter.segment", "steps")), "1"),
        "policy.forward_s": (total("policy.forward"), "s"),
        "policy.act_s": (total("policy.act"), "s"),
        "policy.act_calls": (calls("policy.act"), "count"),
        "planner.plan_step_self_s": (own("planner.plan_step"), "s"),
        "planner.kd_query_s": (total("planner.kd_query"), "s"),
        "planner.kd_queries": (calls("planner.kd_query"), "count"),
        "planner.predict_target_s": (total("planner.predict_target"), "s"),
        "planner.predict_target_calls": (calls("planner.predict_target"), "count"),
        "planner.dummy_fraction": (ratio(amount("planner.plan_step", "dummy"),
                                         calls("planner.plan_step")), "1"),
        "planner.predictor_fallbacks": (amount("planner.plan_step", "fallback"), "count"),
        "planner.clamped_steps": (amount("planner.plan_step", "clamped"), "count"),
        "planner.predictor_train_s": (total("planner.predictor_train"), "s"),
        "planner.kd_build_s": (total("planner.kd_build"), "s"),
        "evaluator.run_episode_self_s": (own("evaluator.run_episode"), "s"),
        "evaluator.calibrate_s": (total("evaluator.calibrate"), "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "cli.manifest_hash_s": (total("cli.manifest_hash"), "s"),
    }
