"""segdt benchmark: one workload in one process, its result on the last line.

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0

Run it from the root of a segdt checkout: the library is imported from
``src/``.  The run sets the workload up several times (``setup_s`` is the
median), then repeats the workload's unit of work while the next one still
fits in ``--seconds`` of timed work.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced units and prints the per-layer
metrics, plus ``trace.overhead_s``: traced minus untraced ``wall_s``.
``--quick`` shrinks every size, for a seconds-long check of the same code.

A line ``{"record": ...}`` before the result holds the environment, the
error rate and the determinism digests; ``.perfbench/results/`` keeps a copy.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1   # 2 threads measured slower for the default-arch trainers
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
STATE = Path(".perfbench")      # scratch space and records, inside the checkout


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "rollout", "dataset"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes: checks the metrics' shape in seconds")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0: it seeds numpy generators")
    return args


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "segdt").rglob("*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except OSError:   # no git on this machine
        git_rev = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev,
        "source_sha256": source_digest(root),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS, "blas_threads": blas_threads(),
        "seed": seed,
        "load": "closed loop: one process, one client, each call waits for the last",
    }


def finite_or_none(value):
    """JSON has no NaN: a metric that could not be measured is null."""
    return value if math.isfinite(value) else None


def check_against_earlier_runs(key: str, run_digest: str) -> bool:
    """Two runs of the same code on the same seed must produce equal digests."""
    store = STATE / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return known[key] == run_digest
    known[key] = run_digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return True


def run(args, root: Path, work: Path) -> tuple:
    from segdt.manifest import hash_artifact
    import layers
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    tracer = layers.make_tracer() if args.trace else None

    setup_s, setup_digests = [], []
    for i in range(SETUP_REPEATS):
        d = work / f"setup{i}"
        d.mkdir(parents=True)
        traced = tracer is not None and i == SETUP_REPEATS - 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            state = workload.setup(d)
        finally:
            setup_s.append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
        setup_digests.append(digest(*map(hash_artifact, state["artifacts"])))

    # closed loop: untraced units, or untraced and traced units in turn; the
    # budget counts timed work only, not the checks between units
    if tracer is not None:
        tracer.phase = "timed"
    plain, traced_units = [], []
    while True:
        traced = tracer is not None and len(plain) > len(traced_units)
        gc.collect()   # no unit pays for the garbage of the one before
        if traced:
            tracer.install()
        try:
            done = workload.work(state)
        finally:
            if traced:
                tracer.uninstall()
        unit = workload.check(state, done, first=not plain)
        (traced_units if traced else plain).append(unit)
        seconds = [u.seconds for u in plain + traced_units]
        if (len(seconds) >= (2 if tracer is not None else 1)
                and sum(seconds) + statistics.median(seconds) > args.seconds):
            break

    units = plain + traced_units
    run_digest = digest(setup_digests[0], units[0].digest)
    env = environment(root, args.seed)
    checks = ([d == setup_digests[0] for d in setup_digests[1:]]
              + [u.digest == units[0].digest for u in units[1:]]
              + [check_against_earlier_runs(
                  f"{args.workload}/{args.seed}/{'quick' if args.quick else 'full'}/"
                  f"{env['source_sha256']}", run_digest)])
    attempted = sum(u.attempted for u in units) + len(checks)
    failed = sum(u.failed for u in units) + checks.count(False)

    wall_s = statistics.median(u.seconds for u in plain)
    named = {   # the workload's own figures, by the names its README uses
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (failed / attempted, "1"),
        **workload.metrics(plain),
    }
    if tracer is None:
        metrics = {name: named[name][:2] for name in ("setup_s", "wall_s", "peak_rss_mb")}
    else:
        traced_wall_s = statistics.median(u.seconds for u in traced_units)
        metrics = {**layers.layer_metrics(tracer, len(traced_units)),
                   "trace.overhead_s": (traced_wall_s - wall_s, "s")}

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "quick": args.quick, "environment": env,
        "metrics": {name: dict(zip(("value", "unit", "samples"), (finite_or_none(v[0]), *v[1:])))
                    for name, v in named.items()},
        "setup_s": setup_s,
        "unit_s": [u.seconds for u in plain],
        "traced_unit_s": [u.seconds for u in traced_units],
        "unit_stage_s": [u.figures["stages"] for u in plain if "stages" in u.figures],
        "digest": run_digest, "setup_digests": setup_digests,
        "unit_digests": [u.digest for u in units],
    }
    return record, attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "segdt" / "__init__.py").is_file():
        print(f"error: no segdt sources under {root / 'src'}; run this from the "
              "root of a segdt checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:   # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))

    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record, attempted, failed, metrics = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    finite = all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": finite_or_none(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
