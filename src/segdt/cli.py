"""Command-line pipeline: dataset collection through closed-loop evaluation.

Exit codes: 0 success, 2 config error, 3 missing artifact, 4 numeric
divergence.  Every option can come from a flat key=value config file
(--config) or a flag; flags win.  Each subcommand writes a RunManifest next
to its output artifact and refuses to overwrite without --force.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluator, segmenter, trajlog
from .config import ConfigError, build_config, parse_flat_file
from .env import EnvConfig, ExpertConfig
from .manifest import RunManifest
from .nn import TrainingDiverged
from .planner import (KdUncertaintyIndex, PlannerConfig, TargetPredictorConfig,
                      TargetReturnPredictor, initial_global_target)
from .policy import Policy, PolicyConfig, train_policy
from .return_model import (ReturnEnsemble, ReturnModelConfig, split_train_val,
                           train_return_models)
from .segmenter import UncertaintyTrace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_DIVERGED = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Stage configs not owned by a library module
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollectConfig:
    episodes: int = 200
    delta: float = 0.0
    base_seed: int = 0
    episode_horizon: int = 130


@dataclass(frozen=True)
class SegmentConfig:
    epsilon: float = 1.0
    c: int = 3


@dataclass(frozen=True)
class IndexConfig(TargetPredictorConfig):
    """KD-index plus fresh-target predictor (the two planner artifacts)."""
    knn: int = 5


@dataclass(frozen=True)
class EvaluateConfig:
    episodes: int = 100
    base_seed: int = 0
    delta: float = 0.0
    span_horizon: int = 100
    eta: float = 0.7
    history_length: int = 5
    target_quantile: float = 0.7
    initial_target: float = float("nan")   # NaN -> dataset quantile


@dataclass(frozen=True)
class CalibrateConfig:
    """The held-out split is the ensemble's own (its val_fraction and seed)."""
    epsilon: float = 1.0
    bins: int = 30


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _load_stage_config(cls, args, overrides: dict):
    file_values = parse_flat_file(args.config) if args.config else {}
    return build_config(cls, file_values, overrides)


def _require(path, what: str) -> Path:
    if path is None:
        raise CliError(EXIT_CONFIG, f"missing required argument: {what}")
    p = Path(path)
    if not p.exists():
        raise CliError(EXIT_MISSING, f"{what} not found: {p}")
    return p


def _prepare_out(path, force: bool) -> Path:
    if path is None:
        raise CliError(EXIT_CONFIG, "missing required argument: --out")
    p = Path(path)
    if p.exists() and not force:
        raise CliError(EXIT_CONFIG,
                       f"output exists: {p} (pass --force to overwrite)")
    if p.parent != Path("") and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _manifest(command: str, config, seeds=()) -> RunManifest:
    values = dataclasses.asdict(config) if dataclasses.is_dataclass(config) \
        else dict(config)
    return RunManifest.start(command, values, seeds=seeds)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _traces_from_segs(segs) -> list:
    return [UncertaintyTrace(u=s.u, epsilon=s.epsilon) for s in segs]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_collect(args) -> int:
    cfg = _load_stage_config(CollectConfig, args, {
        "episodes": args.episodes, "delta": args.delta,
        "base_seed": args.seed,
    })
    out = _prepare_out(args.out, args.force)
    manifest = _manifest("collect", cfg,
                         seeds=range(cfg.base_seed, cfg.base_seed + cfg.episodes))
    env_config = EnvConfig(delta=cfg.delta, episode_horizon=cfg.episode_horizon)
    t0 = time.perf_counter()
    trajs = trajlog.collect_dataset(env_config, ExpertConfig(),
                                    episodes=cfg.episodes,
                                    base_seed=cfg.base_seed)
    t1 = time.perf_counter()
    trajlog.save(trajs, out)
    manifest.metrics.update(collect_s=t1 - t0, save_s=time.perf_counter() - t1,
                            steps=sum(len(t) for t in trajs))
    manifest.add_output("dataset", out)
    manifest.write(RunManifest.manifest_path(out))
    n_success = sum(t.meta.get("route_completion", 0.0) >= 1.0 for t in trajs)
    print(f"collect: wrote {len(trajs)} episodes to {out} "
          f"({n_success} completed the route)")
    return EXIT_OK


def cmd_train_return(args) -> int:
    cfg = _load_stage_config(ReturnModelConfig, args, {"seed": args.seed})
    dataset = _require(args.dataset, "--dataset")
    out = _prepare_out(args.out, args.force)
    manifest = _manifest("train-return", cfg, seeds=[cfg.seed])
    manifest.add_input("dataset", dataset)
    t0 = time.perf_counter()
    trajs = trajlog.annotate_dataset(trajlog.load(dataset),
                                     gammas=(cfg.discount,))
    t1 = time.perf_counter()
    ensemble, history = train_return_models(trajs, cfg, progress=args.verbose)
    t2 = time.perf_counter()
    ensemble.save(out)
    (out / "training_history.json").write_text(
        json.dumps({"heldout_nll": history}, indent=2))
    manifest.metrics.update(load_s=t1 - t0, train_s=t2 - t1,
                            save_s=time.perf_counter() - t2)
    manifest.add_output("ensemble", out)
    manifest.write(RunManifest.manifest_path(out))
    final = [curve[-1] for curve in history]
    print(f"train-return: {cfg.ensemble_size} members saved to {out}; "
          f"final held-out nll per member: "
          + ", ".join(f"{v:.4f}" for v in final))
    return EXIT_OK


def cmd_segment(args) -> int:
    cfg = _load_stage_config(SegmentConfig, args, {
        "epsilon": args.epsilon, "c": args.c,
    })
    dataset = _require(args.dataset, "--dataset")
    ensemble_dir = _require(args.ensemble, "--ensemble")
    out = _prepare_out(args.out, args.force)
    manifest = _manifest("segment", cfg)
    manifest.add_input("dataset", dataset)
    manifest.add_input("ensemble", ensemble_dir)
    t0 = time.perf_counter()
    trajs = trajlog.annotate_dataset(trajlog.load(dataset), gammas=(1.0,))
    ensemble = ReturnEnsemble.load(ensemble_dir)
    t1 = time.perf_counter()
    segs = segmenter.segment_dataset(trajs, ensemble, cfg.epsilon, cfg.c)
    t2 = time.perf_counter()

    u_all = np.concatenate([s.u for s in segs])
    if u_all.size and cfg.epsilon >= u_all.max():
        print(f"warning: epsilon={cfg.epsilon} is above the dataset's maximum "
              f"uncertainty {u_all.max():.4f}; every step is certain",
              file=sys.stderr)
    elif u_all.size and cfg.epsilon < u_all.min():
        print(f"warning: epsilon={cfg.epsilon} is below the dataset's minimum "
              f"uncertainty {u_all.min():.4f}; every step is uncertain",
              file=sys.stderr)

    segmenter.save_segmented(segs, out)
    frac = float((u_all > cfg.epsilon).mean()) if u_all.size else 0.0
    manifest.metrics.update(load_s=t1 - t0, forecast_s=t2 - t1,
                            save_s=time.perf_counter() - t2, uncertain_fraction=frac)
    if u_all.size:
        for name, q in (("u_p50", 0.5), ("u_p90", 0.9), ("u_p99", 0.99), ("u_max", 1.0)):
            manifest.metrics[name] = float(np.quantile(u_all, q))
    manifest.add_output("segmented", out)
    manifest.write(RunManifest.manifest_path(out))
    print(f"segment: wrote {len(segs)} trajectories to {out} "
          f"(uncertain-step fraction {frac:.3f})")
    return EXIT_OK


def cmd_train_policy(args) -> int:
    cfg = _load_stage_config(PolicyConfig, args, {
        "kind": args.kind, "seed": args.seed,
    })
    segmented = _require(args.segmented, "--segmented")
    out = _prepare_out(args.out, args.force)
    manifest = _manifest("train-policy", cfg, seeds=[cfg.seed])
    manifest.add_input("segmented", segmented)
    t0 = time.perf_counter()
    segs = segmenter.load_segmented(segmented)
    t1 = time.perf_counter()
    trained, curve = train_policy(segs, cfg, progress=args.verbose)
    t2 = time.perf_counter()
    trained.save(out)
    manifest.metrics.update(load_s=t1 - t0, train_s=t2 - t1,
                            save_s=time.perf_counter() - t2, loss_curve=curve)
    manifest.add_output("policy", out)
    manifest.write(RunManifest.manifest_path(out))
    print(f"train-policy: {cfg.kind} policy saved to {out}; "
          f"loss {curve[0]:.4f} -> {curve[-1]:.4f}")
    return EXIT_OK


def cmd_build_kdtree(args) -> int:
    cfg = _load_stage_config(IndexConfig, args, {"knn": args.knn, "seed": args.seed})
    segmented = _require(args.segmented, "--segmented")
    out = _prepare_out(args.out, args.force)
    manifest = _manifest("build-kdtree", cfg, seeds=[cfg.seed])
    manifest.add_input("segmented", segmented)
    pred_out = _prepare_out(args.predictor_out, args.force) if args.predictor_out else None
    t0 = time.perf_counter()
    segs = segmenter.load_segmented(segmented)
    trajs = [s.traj for s in segs]
    t1 = time.perf_counter()
    traces = _traces_from_segs(segs)
    epsilon = segs[0].epsilon if segs else 1.0
    index = KdUncertaintyIndex.build(trajs, traces, k=cfg.knn, epsilon=epsilon)
    t2 = time.perf_counter()
    predictor = None
    if pred_out is not None:
        pred_cfg = TargetPredictorConfig(**{
            f.name: getattr(cfg, f.name)
            for f in dataclasses.fields(TargetPredictorConfig)})
        predictor = TargetReturnPredictor.train(trajs, pred_cfg)
    t3 = time.perf_counter()
    index.save(out)
    manifest.add_output("index", out)
    messages = [f"build-kdtree: index over {len(index)} states saved to {out}"]
    if pred_out is not None:
        predictor.save(pred_out)
        manifest.add_output("predictor", pred_out)
        messages.append(f"target predictor saved to {pred_out}")
    manifest.metrics.update(load_s=t1 - t0, build_s=t2 - t1, train_s=t3 - t2,
                            save_s=time.perf_counter() - t3)
    manifest.write(RunManifest.manifest_path(out))
    print("; ".join(messages))
    return EXIT_OK


def _make_actor(kind: str, trained: Policy, cfg: EvaluateConfig, args,
                manifest: RunManifest):
    if kind in ("bc",):
        return evaluator.ClonedActor(trained, history_length=cfg.history_length)

    dataset = _require(args.dataset, "--dataset")
    manifest.add_input("dataset", dataset)
    trajs = trajlog.load(dataset)
    target = cfg.initial_target
    if not np.isfinite(target):
        target = initial_global_target(trajs, cfg.target_quantile)

    if kind == "dt":
        return evaluator.ReturnConditionedActor(
            trained, initial_target=target, history_length=cfg.history_length)
    if kind == "unrest":
        index = KdUncertaintyIndex.load(_require(args.index, "--index"))
        predictor = TargetReturnPredictor.load(
            _require(args.predictor, "--predictor"))
        manifest.add_input("index", Path(args.index))
        manifest.add_input("predictor", Path(args.predictor))
        planner_cfg = PlannerConfig(
            span_horizon=cfg.span_horizon, eta=cfg.eta, epsilon=index.epsilon,
            knn=index.k, history_length=cfg.history_length)
        return evaluator.PlannedActor(trained, index, predictor, planner_cfg,
                                      initial_target=target)
    raise CliError(EXIT_CONFIG, f"unknown policy kind: {kind}")


def cmd_evaluate(args) -> int:
    cfg = _load_stage_config(EvaluateConfig, args, {
        "episodes": args.episodes, "base_seed": args.seed, "delta": args.delta,
    })
    out = _prepare_out(args.out, args.force)
    manifest = _manifest(
        "evaluate", cfg, seeds=range(cfg.base_seed, cfg.base_seed + cfg.episodes))
    policy_path = _require(args.policy, "--policy")
    manifest.add_input("policy", policy_path)
    trained = Policy.load(policy_path)
    kind = trained.config.kind
    actor = _make_actor(kind, trained, cfg, args, manifest)

    env_config = EnvConfig(delta=cfg.delta)
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.episodes)
    report = evaluator.EvalReport()
    report.add(kind, evaluator.rollout(env_config, actor, seeds))
    out.write_text(json.dumps(_json_safe(report.to_dict()), indent=2))
    manifest.add_output("report", out)
    manifest.write(RunManifest.manifest_path(out))
    print(report.render())
    print(f"evaluate: report written to {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = _load_stage_config(CalibrateConfig, args, {"epsilon": args.epsilon})
    dataset = _require(args.dataset, "--dataset")
    ensemble_dir = _require(args.ensemble, "--ensemble")
    out = _prepare_out(args.out, args.force)
    manifest = _manifest("calibrate", cfg)
    manifest.add_input("dataset", dataset)
    manifest.add_input("ensemble", ensemble_dir)
    t0 = time.perf_counter()
    ensemble = ReturnEnsemble.load(ensemble_dir)
    manifest.seeds = [ensemble.config.seed]
    gamma = ensemble.config.discount
    trajs = trajlog.annotate_dataset(trajlog.load(dataset), gammas=(gamma,))
    t1 = time.perf_counter()
    # hold out the validation split the ensemble's trainer used
    _, val = split_train_val(trajs, ensemble.config.val_fraction, ensemble.config.seed)
    held_out = val if val else trajs

    forecasts = [ensemble.predict_trajectory(t.states, t.actions) for t in held_out]
    forecast = evaluator.calibrate(ensemble, held_out, gamma=gamma, forecasts=forecasts)
    traces = [UncertaintyTrace(segmenter.forecast_uncertainty(p), cfg.epsilon)
              for p in forecasts]
    histogram = evaluator.uncertainty_histogram(traces, bins=cfg.bins)
    payload = _json_safe({
        "forecast": {k: forecast[k] for k in
                     ("ensemble", "members", "coverage_1sigma")},
        "uncertainty": histogram,
        "epsilon": cfg.epsilon,
        "flagged_fraction": float(np.mean(
            np.concatenate([tr.u for tr in traces]) > cfg.epsilon)),
    })
    t2 = time.perf_counter()
    out.write_text(json.dumps(payload, indent=2))
    manifest.metrics.update(load_s=t1 - t0, forecast_s=t2 - t1,
                            save_s=time.perf_counter() - t2)
    manifest.add_output("calibration", out)
    manifest.write(RunManifest.manifest_path(out))
    qs = histogram["quantiles"]
    print(f"calibrate: ensemble nll {forecast['ensemble']['nll']:.4f}, "
          f"rmse {forecast['ensemble']['rmse']:.4f}, "
          f"1-sigma coverage {forecast['coverage_1sigma']:.3f}")
    print("uncertainty quantiles: "
          + ", ".join(f"p{int(100 * q)}={v:.4f}" for q, v in qs.items()))
    print(f"calibrate: report written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segdt", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--verbose", action="store_true",
                        help="log training progress")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, seeded=True, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output artifact path")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        if seeded:  # segment and calibrate draw nothing
            p.add_argument("--seed", type=int, default=None)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("collect", cmd_collect,
        **{"--episodes": dict(type=int, default=None),
           "--delta": dict(type=float, default=None)})
    add("train-return", cmd_train_return,
        **{"--dataset": dict(default=None)})
    add("segment", cmd_segment, seeded=False,
        **{"--dataset": dict(default=None),
           "--ensemble": dict(default=None),
           "--epsilon": dict(type=float, default=None),
           "--c": dict(type=int, default=None)})
    add("train-policy", cmd_train_policy,
        **{"--segmented": dict(default=None),
           "--kind": dict(choices=("unrest", "dt", "bc"), default=None)})
    add("build-kdtree", cmd_build_kdtree,
        **{"--segmented": dict(default=None),
           "--knn": dict(type=int, default=None),
           "--predictor-out": dict(default=None)})
    add("evaluate", cmd_evaluate,
        **{"--policy": dict(default=None),
           "--dataset": dict(default=None),
           "--index": dict(default=None),
           "--predictor": dict(default=None),
           "--episodes": dict(type=int, default=None),
           "--delta": dict(type=float, default=None)})
    add("calibrate", cmd_calibrate, seeded=False,
        **{"--dataset": dict(default=None),
           "--ensemble": dict(default=None),
           "--epsilon": dict(type=float, default=None)})
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: code={exc.code} command={args.command}: {exc}",
              file=sys.stderr)
        return exc.code
    except ConfigError as exc:
        print(f"error: code={EXIT_CONFIG} command={args.command}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: code={EXIT_MISSING} command={args.command}: {exc}",
              file=sys.stderr)
        return EXIT_MISSING
    except TrainingDiverged as exc:
        print(f"error: code={EXIT_DIVERGED} command={args.command}: {exc}",
              file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, KeyError) as exc:
        print(f"error: code={EXIT_CONFIG} command={args.command}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
