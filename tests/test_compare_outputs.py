import pytest

from bdml.active import RULES
from bdml.config import STRATEGY_TABLE
from conftest import benchmark_module

compare_outputs = benchmark_module("compare_outputs")


def test_number_diff_pairs_csv_rows_by_their_non_float_fields():
    old = (b"i,j,p_plus,entropy,strategy\r\n"
           b"0,1,0.5,0.6931471805599453,MLE_ACT\r\n"
           b"2,3,0.25,0.5623351446188083,MLE_ACT\r\n"
           b"4,5,0.125,0.37677016125643675,MLE_ACT\r\n")
    # (2, 3) moved up the ranking; only (0, 1) changed its numbers
    new = (b"i,j,p_plus,entropy,strategy\r\n"
           b"2,3,0.25,0.5623351446188083,MLE_ACT\r\n"
           b"0,1,0.4,0.6730116670092565,MLE_ACT\r\n"
           b"4,5,0.125,0.37677016125643675,MLE_ACT\r\n")
    max_abs, max_rel, changed = compare_outputs.number_diff("s.csv", old, new)
    assert max_abs == pytest.approx(0.1)
    assert max_rel == pytest.approx(0.1 / 0.5)
    assert changed == [("0,1,MLE_ACT p_plus", 0.5, 0.4),
                       ("0,1,MLE_ACT entropy", 0.6931471805599453, 0.6730116670092565)]
    assert compare_outputs.number_diff("s.csv", old, old) == (0.0, 0.0, [])


def test_number_diff_walks_json_key_paths():
    old = b'{"weights": [1.0, 2.0], "threshold": 0.5, "kind": "mle", "n": 3}'
    new = b'{"weights": [1.0, 2.5], "threshold": 0.5, "kind": "vb", "extra": 1e-3}'
    max_abs, max_rel, changed = compare_outputs.number_diff("m.json", old, new)
    assert max_abs == 0.5
    assert max_rel == 0.5 / 2.5
    assert changed == [("weights[1]", 2.0, 2.5), ("kind", "mle", "vb"),
                       ("n", 3, None), ("extra", None, 1e-3)]
    assert compare_outputs.describe_diff("m.json", old, new) == [
        "  4 values differ, max abs 0.5, max rel 0.2",
        "  weights[1]: 2.0 -> 2.5", "  kind: 'mle' -> 'vb'", "  n: 3 -> None",
        "  extra: None -> 0.001"]


def test_scorers_and_saved_models_are_read_from_the_checked_tree(tmp_path):
    scorers, fitted = compare_outputs.strategy_choices(compare_outputs.ROOT)
    assert scorers == sorted(RULES)
    cmds = compare_outputs.commands([0], tmp_path, scorers, fitted)
    saves = {cmd[cmd.index("--strategy") + 1]: "--save-model" in cmd
             for cmd in cmds if cmd[0] == "score-pairs"}
    # a tag whose row fits nothing writes the scores only
    assert saves == {tag: STRATEGY_TABLE[tag].fit is not None for tag in RULES}
