#!/bin/sh
# Run a config directory's pipeline, collect through evaluate, in a work
# directory with BLAS pinned to one thread, then print the sha256 of its
# nine outputs and of each manifest's loss curve(s).  The dt and bc
# baselines are trained on the same seg.npz and evaluated too, and their
# reports' sha256 follow.  Two checkouts that print the same lines produced
# the same bits.
#
# Usage: scripts/chain_digests.sh CONFIG_DIR WORK_DIR
#   e.g. scripts/chain_digests.sh configs/smoke /tmp/smoke-chain
# WORK_DIR must not exist yet; the stages' logs go to WORK_DIR/chain.log.
set -eu
[ $# -eq 2 ] || { echo "usage: $0 CONFIG_DIR WORK_DIR" >&2; exit 2; }
cfg=$(cd "$1" && pwd)
src=$(cd "$(dirname "$0")/../src" && pwd)
mkdir "$2"
cd "$2"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$src"

stage() { python -m segdt "$@" >>chain.log 2>&1 || { tail -n 20 chain.log >&2; exit 1; }; }
stage collect      --config "$cfg/collect.cfg"   --out data.npz
stage train-return --config "$cfg/return.cfg"    --dataset data.npz --out ensemble/
stage calibrate    --config "$cfg/calibrate.cfg" --dataset data.npz --ensemble ensemble/ \
                   --out calibration.json
stage segment      --config "$cfg/segment.cfg"   --dataset data.npz --ensemble ensemble/ \
                   --out seg.npz
stage train-policy --config "$cfg/policy.cfg"    --segmented seg.npz --out policy.npz
stage build-kdtree --config "$cfg/index.cfg"     --segmented seg.npz --out index.npz \
                   --predictor-out predictor/
stage evaluate     --config "$cfg/evaluate.cfg"  --policy policy.npz --dataset data.npz \
                   --index index.npz --predictor predictor/ --out report.json
for kind in dt bc; do
    stage train-policy --config "$cfg/policy.cfg" --kind $kind --segmented seg.npz \
                       --out policy_$kind.npz
    stage evaluate     --config "$cfg/evaluate.cfg" --policy policy_$kind.npz \
                       --dataset data.npz --out report_$kind.json
done

sha256sum data.npz ensemble/ensemble.npz ensemble/training_history.json calibration.json \
          seg.npz policy.npz index.npz predictor/predictor.npz report.json \
          report_dt.json report_bc.json
python - <<'PY'
import hashlib, json
for name, key in (("policy.npz", "loss_curve"), ("index.npz", "loss_curves")):
    curve = json.load(open(f"{name}.manifest.json"))["metrics"][key]
    digest = hashlib.sha256(json.dumps(curve).encode()).hexdigest()
    print(f"{digest}  {name}.manifest.json:metrics.{key}")
PY
