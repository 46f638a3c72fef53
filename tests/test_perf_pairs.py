"""The paired-run verdict of tools/perf_pairs.py, on synthetic readings."""
import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("perf_pairs", Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)
verdict = perf_pairs.verdict

PARENT = [0.50, 0.52, 0.48, 0.51, 0.49, 0.50, 0.53, 0.47, 0.50, 0.51]  # quartiles 0.4925, 0.5100


def test_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parents_spread():
    faster = [p - 0.1 for p in PARENT]
    v = verdict(PARENT, faster, "lower", 0.25)
    assert (v["wins"], v["pairs"], v["verdict"]) == (10, 10, "gain shown")
    assert v["parent"][1] == pytest.approx(0.50) and v["change"][1] == pytest.approx(0.40)
    # one loss still shows it, two do not
    one_loss = [*faster[:9], PARENT[9] + 0.01]
    assert verdict(PARENT, one_loss, "lower", 0.25)["verdict"] == "gain shown"
    two_losses = [*faster[:8], PARENT[8] + 0.01, PARENT[9] + 0.01]
    v = verdict(PARENT, two_losses, "lower", 0.25)
    assert (v["wins"], v["verdict"]) == (8, "within bound")
    # every pair won, but by less than the parent's interquartile range
    slightly = [p - 0.01 for p in PARENT]
    v = verdict(PARENT, slightly, "lower", 0.25)
    assert (v["wins"], v["verdict"]) == (10, "within bound")


def test_ties_count_for_neither_side():
    v = verdict(PARENT, list(PARENT), "lower", 0.25)
    assert (v["wins"], v["verdict"]) == (0, "within bound")


def test_worse_is_a_median_past_the_bound_as_a_share_of_the_parents():
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)["verdict"] == "worse"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25)["verdict"] == "within bound"
    # a metric where higher is better turns both rules round
    assert verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25)["verdict"] == "worse"
    assert verdict(PARENT, [p * 1.5 for p in PARENT], "higher", 0.25)["verdict"] == "gain shown"


def test_a_spread_wider_than_the_bound_is_unresolved():
    bimodal = [0.42, 0.61, 0.43, 0.60, 0.42, 0.61, 0.44, 0.60, 0.43, 0.59]
    assert verdict(bimodal, [p + 0.01 for p in bimodal], "lower", 0.1)["verdict"] == "unresolved"
    # unless every change reading beats every parent reading
    assert verdict(bimodal, [0.40] * 10, "lower", 0.1)["verdict"] == "within bound"


def test_rejects_unpaired_readings():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0, 2.0], "faster", 0.25)


def test_bytecode_in_only_one_tree_is_refused(tmp_path):
    # a tree that holds compiled bytecode skips compiling in every child
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "src" / "pkg").mkdir(parents=True)
    assert perf_pairs.bytecode_skew(parent, change) is None
    (change / "src" / "pkg" / "__pycache__").mkdir()
    msg = perf_pairs.bytecode_skew(parent, change)
    assert msg.startswith(f"{change}: src/ holds __pycache__")
    (parent / "src" / "__pycache__").mkdir()
    assert perf_pairs.bytecode_skew(parent, change) is None
    (change / "src" / "pkg" / "__pycache__").rmdir()
    assert perf_pairs.bytecode_skew(parent, change).startswith(f"{parent}: src/ holds __pycache__")
