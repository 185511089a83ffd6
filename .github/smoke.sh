#!/bin/sh
# Smoke test of `bdml score-pairs` and `bdml eval`, run in an empty directory:
# score-pairs of every scorer strategy in the installed package's strategy
# table on two synthetic CSVs, with the model saved and evaluated where the
# strategy's row fits one and the scores alone where it fits none, one
# score-pairs to stdout, which must match the bytes of its --out file, one
# eval on a copy of train.csv that numpy's C reader refuses (CRLF line ends, a
# quoted field, an underscored number) and one on a copy whose header names
# are quoted, each of which must print the plain file's accuracy, one eval of
# a model file without its threshold, which must exit 1 naming the missing
# entry (its stderr goes to a file), one MLE_ACT score-pairs at --reg 0 on
# train.csv, separable there, which must exit 0 and warn (to a file) that its
# fit did not converge, and one eval large enough (4,000 x 1,000
# rows, K=5) for a multi-leaf 1NN search.  Then one `bdml run` on
# big_train.csv, whose 3,950 training rows, more than LEAF_ROWS, send EUCLID's
# raw search and the fit groups' searches through the kd leaves end to end,
# two `bdml run`s on train.csv, whose energy rule gives the repeats basis
# sizes 5, 6, 5, 5, so each iteration fits two groups of one fit kind, and two
# of the README's `bdml run` command verbatim, at full size, the first through
# the `bdml` script and the second through `python -m bdml.cli`; each pair's
# results.csv, summary.csv and results.json must match byte for byte.  Exits
# nonzero at the first failing command.
set -e
python -c "
import bdml
def save(name, per_class, seed, classes=3, spread=0.3):
    spec = bdml.SynthSpec(classes=classes, per_class=per_class, dim=10, spread=spread)
    bdml.save_csv(bdml.synth_data(spec, seed), name)
save('train.csv', 20, 0)
save('test.csv', 20, 1)
save('big_train.csv', 1000, 2, classes=4, spread=0.5)
save('big_test.csv', 250, 3, classes=4, spread=0.5)
"
python -c "
from bdml.config import STRATEGY_TABLE as table
for tag in sorted({row.scorer for row in table.values()} - {None}):
    print(tag, table[tag].fit or '')
" > scorers.txt
while read -r strategy fit; do
  if [ -z "$fit" ]; then
    bdml score-pairs --data train.csv --strategy "$strategy" --k 2 \
        --no-standardize --out "scores_$strategy.csv"
    continue
  fi
  bdml score-pairs --data train.csv --strategy "$strategy" --k 2 \
      --no-standardize --out "scores_$strategy.csv" \
      --save-model "model_$strategy.json"
  bdml eval --model "model_$strategy.json" --train train.csv --test test.csv
done < scorers.txt
bdml score-pairs --data train.csv --strategy BAYES_VAR --k 2 \
    --no-standardize > stdout_BAYES_VAR.csv
cmp stdout_BAYES_VAR.csv scores_BAYES_VAR.csv
python - <<'EOF'
import re
with open('train.csv', newline='') as fh:
    rows = [line.split(',') for line in fh.read().splitlines()]
# 0.1234 -> 0.1_234 and "0.5": the same numbers to Python, refused by numpy
rows[1][0] = re.sub(r'(\d)(\d)', r'\1_\2', rows[1][0], count=1)
assert '_' in rows[1][0]
rows[2][1] = '"' + rows[2][1] + '"'
with open('odd_train.csv', 'w', newline='') as fh:
    fh.write(''.join(','.join(row) + '\r\n' for row in rows))
with open('train.csv', newline='') as fh:
    header, body = fh.read().split('\r\n', 1)
with open('quoted_train.csv', 'w', newline='') as fh:
    fh.write(','.join('"' + name + '"' for name in header.split(',')) + '\r\n' + body)
EOF
plain=$(bdml eval --model model_BAYES_VAR.json --train train.csv --test test.csv)
for copy in odd_train.csv quoted_train.csv; do
  got=$(bdml eval --model model_BAYES_VAR.json --train "$copy" --test test.csv)
  echo "$got"
  if [ "$got" != "$plain" ]; then
    echo "$copy gives '$got', train.csv '$plain'" >&2
    exit 1
  fi
done
python -c "
import json
with open('model_BAYES_VAR.json') as fh:
    doc = json.load(fh)
del doc['threshold']
with open('no_threshold.json', 'w') as fh:
    json.dump(doc, fh)
"
status=0
bdml eval --model no_threshold.json --train train.csv --test test.csv \
    2> no_threshold.err || status=$?
if [ "$status" -ne 1 ] || ! grep -q "no 'threshold' entry" no_threshold.err; then
  echo "eval of no_threshold.json exits $status: $(cat no_threshold.err)" >&2
  exit 1
fi
status=0
bdml score-pairs --data train.csv --strategy MLE_ACT --k 2 --no-standardize --reg 0 \
    --out scores_reg0.csv 2> reg0.err || status=$?
if [ "$status" -ne 0 ] || ! grep -q "mle fit did not converge" reg0.err; then
  echo "score-pairs at --reg 0 exits $status: $(cat reg0.err)" >&2
  exit 1
fi
bdml score-pairs --data train.csv --strategy BAYES_ACT --k 5 \
    --no-standardize --out scores_k5.csv --save-model model_k5.json
bdml eval --model model_k5.json --train big_train.csv --test big_test.csv
bdml run --data big_train.csv --pool-size 20 --test-size 50 --initial-pairs 5 \
    --batch 5 --iterations 1 --repeats 2 --k 3 --no-standardize \
    --strategies EUCLID,MLE_ACT,BAYES_VAR --out big_run/
for out in csv_run csv_rerun; do
  bdml run --data train.csv --pool-size 20 --test-size 20 --initial-pairs 5 \
      --batch 5 --iterations 2 --repeats 4 --energy 0.7 --out "$out/"
done
readme_pass() {  # the README's command into directory $1, run by the entry the rest names
  out=$1
  shift
  "$@" run --synth classes=3,per_class=20,dim=10,spread=0.3 \
      --pool-size 40 --test-size 20 --initial-pairs 10 --batch 20 \
      --iterations 5 --repeats 20 --k 2 --no-standardize --reg 5 \
      --strategies RANDOM_MLE,MLE_ACT,BAYES_ACT,BAYES_VAR,EUCLID \
      --out "$out/"
}
readme_pass readme_run bdml
readme_pass readme_rerun python -m bdml.cli
for f in results.csv summary.csv results.json; do
  cmp "csv_run/$f" "csv_rerun/$f"
  cmp "readme_run/$f" "readme_rerun/$f"
done
