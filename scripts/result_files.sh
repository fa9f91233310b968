#!/usr/bin/env bash
# Write the result files of every sdm-bench run that must be reproducible,
# from the source tree TREE into the directory OUT, and drop the
# timing-only sidecars (run.log, pose_timings_*.csv), so that two output
# trees compare byte for byte with `diff -r`.
#
#   scripts/result_files.sh TREE OUT
#
# The runs: verify at six settings (certificates.csv and the printed
# table), analytic --function all (analytic_*.csv and the printed
# summary), pose --model all at a coarse grid and at the default grid
# (pose_results_*.csv), online-demo at forgetting 1 and 0.9 (the printed
# deviations), and train for exp, the cube, the body and the face (the
# model files). Each runs with PYTHONPATH=TREE/src, from TREE, in the
# caller's environment (OPENBLAS_NUM_THREADS, say).
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 TREE OUT" >&2
  exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

sdm() { (cd "$tree" && PYTHONPATH=src python -m sdm.cli "$@"); }

settings=("" "--seed 7 --grid 301" "--radius 0.5" "--epsilon 0.1" "--seed 3 --grid 5"
          "--radius 1e-5 --grid 101")
for i in "${!settings[@]}"; do
  # shellcheck disable=SC2086  # a setting is several words
  sdm verify ${settings[$i]} --output-dir "$out/verify-$i" > "$out/verify-$i.txt"
done
sdm analytic --function all --output-dir "$out/analytic" > "$out/analytic.txt"
sdm pose --model all --subsample 200 --train-rot-step 15 --train-trans-step 400 \
  --test-rot-step 11 --test-trans-step 270 --output-dir "$out/pose" > /dev/null
sdm pose --model all --output-dir "$out/pose-default" > /dev/null
for lam in 1 0.9; do
  sdm online-demo --forgetting "$lam" --output-dir "$out/online" > "$out/online_demo_$lam.txt"
done
# the printed lines name the output path, so only the model files are kept
sdm train --problem analytic --function exp --out "$out/model_exp.sdm" \
  --output-dir "$out/train" > /dev/null
for model in cube body face; do
  sdm train --problem pose --model "$model" --out "$out/model_$model.sdm" \
    --output-dir "$out/train" > /dev/null
done
find "$out" \( -name run.log -o -name 'pose_timings_*.csv' \) -delete
