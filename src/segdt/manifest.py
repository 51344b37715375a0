"""Run manifests: provenance records written next to every pipeline artifact."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import subprocess
import time
from pathlib import Path

MANIFEST_VERSION = "run-manifest-1"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_artifact(path) -> str:
    """Hash a file, or a directory as the sorted hash of its files."""
    path = Path(path)
    if path.is_dir():
        h = hashlib.sha256()
        for sub in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(sub.relative_to(path).as_posix().encode())
            h.update(bytes.fromhex(sha256_file(sub)))
        return h.hexdigest()
    return sha256_file(path)


def hash_config(values: dict) -> str:
    blob = json.dumps(values, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def revision_string() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


@dataclasses.dataclass
class RunManifest:
    command: str
    config_hash: str
    inputs: dict = dataclasses.field(default_factory=dict)
    outputs: dict = dataclasses.field(default_factory=dict)
    seeds: list = dataclasses.field(default_factory=list)
    wall_clock_s: float = 0.0
    # stage figures: phase timings in seconds and what the data looked like
    metrics: dict = dataclasses.field(default_factory=dict)
    revision: str = dataclasses.field(default_factory=revision_string)
    version: str = MANIFEST_VERSION

    @classmethod
    def start(cls, command: str, config_values: dict, seeds=()) -> "RunManifest":
        m = cls(command=command, config_hash=hash_config(config_values),
                seeds=list(seeds))
        m._t0 = time.monotonic()
        return m

    def add_input(self, name: str, path) -> None:
        self.inputs[name] = {"path": str(path), "sha256": hash_artifact(path)}

    def add_output(self, name: str, path) -> None:
        self.outputs[name] = {"path": str(path), "sha256": hash_artifact(path)}

    def write(self, path) -> None:
        """Write the record, with the process's and its finished workers'
        peak resident memory so far (``ru_maxrss``, KiB on Linux) in MB, and
        the minor page faults each has taken so far (``ru_minflt``)."""
        if hasattr(self, "_t0"):
            self.wall_clock_s = time.monotonic() - self._t0
        own = resource.getrusage(resource.RUSAGE_SELF)
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.metrics.update(
            peak_rss_mb=own.ru_maxrss / 1024, workers_peak_rss_mb=workers.ru_maxrss / 1024,
            minor_faults=own.ru_minflt, workers_minor_faults=workers.ru_minflt)
        payload = {k: v for k, v in dataclasses.asdict(self).items()}
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @staticmethod
    def manifest_path(artifact_path) -> Path:
        p = Path(artifact_path)
        return p.parent / (p.name + ".manifest.json")

    @classmethod
    def load(cls, path) -> "RunManifest":
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version: {payload.get('version')}")
        return cls(**payload)
