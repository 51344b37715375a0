import hashlib
import json
import resource

import pytest

from segdt.manifest import (MANIFEST_VERSION, RunManifest, hash_artifact,
                            hash_config, sha256_file)


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"abc" * 1000)
    assert sha256_file(path) == hashlib.sha256(b"abc" * 1000).hexdigest()


def test_directory_hash_sensitive_to_content_and_names(tmp_path):
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        (d / "x.txt").write_text("same")
    assert hash_artifact(tmp_path / "a") == hash_artifact(tmp_path / "b")
    (tmp_path / "b" / "x.txt").write_text("different")
    assert hash_artifact(tmp_path / "a") != hash_artifact(tmp_path / "b")
    (tmp_path / "b" / "x.txt").write_text("same")
    (tmp_path / "b" / "x.txt").rename(tmp_path / "b" / "y.txt")
    assert hash_artifact(tmp_path / "a") != hash_artifact(tmp_path / "b")


def test_config_hash_order_insensitive():
    assert hash_config({"a": 1, "b": 2.5}) == hash_config({"b": 2.5, "a": 1})
    assert hash_config({"a": 1}) != hash_config({"a": 2})


def test_manifest_roundtrip(tmp_path):
    artifact = tmp_path / "data.bin"
    artifact.write_bytes(b"payload")
    m = RunManifest.start("collect", {"episodes": 3}, seeds=[0, 1, 2])
    m.add_input("prior", artifact)
    m.add_output("dataset", artifact)
    m.metrics["load_s"] = 0.25
    out = RunManifest.manifest_path(artifact)
    m.write(out)
    assert out.name == "data.bin.manifest.json"

    loaded = RunManifest.load(out)
    assert loaded.command == "collect"
    assert loaded.seeds == [0, 1, 2]
    assert loaded.config_hash == hash_config({"episodes": 3})
    assert loaded.outputs["dataset"]["sha256"] == sha256_file(artifact)
    assert loaded.wall_clock_s >= 0.0
    assert loaded.version == MANIFEST_VERSION
    assert set(loaded.metrics) == {"load_s", "peak_rss_mb", "workers_peak_rss_mb",
                                   "minor_faults", "workers_minor_faults"}
    assert loaded.metrics["load_s"] == 0.25
    # high-water marks so far, in MB
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert 0.0 < loaded.metrics["peak_rss_mb"] <= peak
    assert loaded.metrics["workers_peak_rss_mb"] >= 0.0
    # minor page faults so far, of the process and of its finished workers
    for key in ("minor_faults", "workers_minor_faults"):
        assert type(loaded.metrics[key]) is int and loaded.metrics[key] >= 0, key


def test_manifest_without_metrics_still_loads(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"version": MANIFEST_VERSION, "command": "collect",
                                "config_hash": "y", "wall_clock_s": 1.5}))
    loaded = RunManifest.load(path)
    assert loaded.metrics == {}
    assert loaded.wall_clock_s == 1.5


def test_manifest_version_check(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"version": "other", "command": "x",
                                "config_hash": "y"}))
    with pytest.raises(ValueError, match="version"):
        RunManifest.load(path)
