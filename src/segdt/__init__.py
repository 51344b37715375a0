"""Segmented decision-transformer pipeline for a stochastic toy driving task.

Layers, bottom to top: `archive` (the one artifact container); `autodiff`
(reverse-mode tensors) and `nn` (transformer building blocks); `env`
(driving simulator and rule expert); `trajlog` (datasets); `return_model`
(twin return-forecast ensembles); `segmenter` (uncertainty estimation and
sequence segmentation); `policy` (conditioned sequence policies); `planner`
(closed-loop target planning); `evaluator` (rollout metrics and
diagnostics); `cli` (pipeline commands).
"""

from . import (archive, autodiff, cli, config, env, evaluator, manifest, nn, planner,
               policy, return_model, segmenter, trajlog)

__version__ = "0.1.0"

__all__ = [
    "archive", "autodiff", "cli", "config", "env", "evaluator", "manifest", "nn",
    "planner", "policy", "return_model", "segmenter", "trajlog",
    "__version__",
]
