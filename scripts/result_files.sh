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
# deviations), train for exp, the cube, the body and the face (the
# model files), and apply on the exp and cube model files (apply_*.csv),
# which reads the model files back. The apply inputs are fixed rows that
# this script writes (apply/inputs_*.csv), so every tree reads the same
# bytes. Each runs with PYTHONPATH=TREE/src, from TREE, in the caller's
# environment (OPENBLAS_NUM_THREADS, say), and a RuntimeWarning fails it.
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 TREE OUT" >&2
  exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

sdm() { (cd "$tree" && PYTHONPATH=src python -W error::RuntimeWarning -m sdm.cli "$@"); }

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
mkdir -p "$out/apply"
printf '%s\n' target 1.0 1.1 1.5 2.718281828459045 3.9 4.5 > "$out/apply/inputs_exp.csv"
{
  printf 'c%s,' {0..14}; echo c15
  echo 481.938,415.474,582.042,425.933,569.806,523.506,471.612,513.735,480.905,404.445,572.036,414.017,561.057,503.209,471.511,494.211
  echo 356.466,494.337,457.758,461.894,488.326,569.371,385.270,599.809,391.818,498.528,483.876,469.353,511.675,566.252,418.169,593.794
  echo 523.790,547.617,607.001,549.276,619.000,622.915,538.459,618.930,549.846,505.776,628.293,505.964,638.755,576.352,562.692,574.033
} > "$out/apply/inputs_cube.csv"
sdm apply --problem analytic --function exp --model-file "$out/model_exp.sdm" \
  --inputs "$out/apply/inputs_exp.csv" --out "$out/apply/apply_exp.csv" \
  --output-dir "$out/apply" > /dev/null
sdm apply --problem pose --model cube --model-file "$out/model_cube.sdm" \
  --inputs "$out/apply/inputs_cube.csv" --out "$out/apply/apply_cube.csv" \
  --output-dir "$out/apply" > /dev/null
find "$out" \( -name run.log -o -name 'pose_timings_*.csv' \) -delete
