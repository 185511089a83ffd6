#!/bin/sh
# Smoke test of `bdml score-pairs` and `bdml eval`, run in an empty directory:
# every scorer strategy on two synthetic CSVs, eval of each saved model, and
# one eval large enough (4,000 x 1,000 rows, K=5) for a multi-leaf 1NN search.
# Exits nonzero at the first failing command.
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
for strategy in BAYES_VAR BAYES_ACT MLE_ACT; do
  bdml score-pairs --data train.csv --strategy "$strategy" --k 2 \
      --no-standardize --out "scores_$strategy.csv" \
      --save-model "model_$strategy.json"
  bdml eval --model "model_$strategy.json" --train train.csv --test test.csv
done
bdml score-pairs --data train.csv --strategy RANDOM --k 2 \
    --no-standardize --out scores_RANDOM.csv
bdml score-pairs --data train.csv --strategy BAYES_ACT --k 5 \
    --no-standardize --out scores_k5.csv --save-model model_k5.json
bdml eval --model model_k5.json --train big_train.csv --test big_test.csv
