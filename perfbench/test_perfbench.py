"""Tests for the benchmark's own code: span arithmetic, output checks,
determinism ledger and the transparency of the timer-wrapped map.

Run from the repository root:  python3 -m pytest perfbench -q
"""
import json
import math
from itertools import count

import numpy as np
import pytest

import chaosrng.cli as cli
from chaosrng import maps
from chaosrng.bitstream import BitstreamConfig, generate_bits
from chaosrng.density import fp_fixed_point
from chaosrng.entropy import block_probabilities
from chaosrng.intervals import IntervalSet
from chaosrng.partition import SymbolPartition, refinement_ladder

import spans as sp
from checks import KNOWN_DEFECTS, check_analyze, check_bitgen, check_verify, digest_outputs
from run import Ledger, Op, OpResult
from traced import instrument, timed_map


# ---------------------------------------------------------------------------
# span arithmetic


def _span(name, start, end, parent=None):
    return sp.Span(name, start, end, parent, "op")


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 6.0, 0),
        _span("leaf", 2.0, 3.0, 1),
    ]
    assert sp.self_time(spans, 0) == pytest.approx(6.0)  # 10 - (3 + 1); the leaf is inside a
    assert sp.self_time(spans, 1) == pytest.approx(2.0)
    assert sp.self_time(spans, 3) == pytest.approx(1.0)


def test_inclusive_and_exclusive_of():
    spans = [
        _span("root", 0.0, 20.0),
        _span("ladder", 0.0, 10.0, 0),
        _span("inverse", 1.0, 3.0, 1),
        _span("inverse", 4.0, 5.0, 1),
        _span("outputs", 11.0, 15.0, 0),
        _span("inverse", 16.0, 18.0, 0),  # outside the ladder
    ]
    assert sp.inclusive(spans, "outputs") == pytest.approx(4.0)
    assert sp.inclusive(spans, "inverse") == pytest.approx(5.0)
    assert sp.exclusive_of(spans, "ladder", "inverse") == pytest.approx(7.0)
    assert sp.call_count(spans, "inverse") == 3
    assert sp.roots(spans) == [0]


def test_recorder_links_parents_and_closes_on_error():
    ticks = count()
    rec = sp.Recorder(clock=lambda: float(next(ticks)))
    rec.run = "op1"
    with rec.span("root"):
        with rec.span("child"):
            pass
        with pytest.raises(ValueError):
            with rec.span("failing"):
                raise ValueError
    rec.count("n", 2)
    rec.count("n")
    spans = sp.load_spans(rec.dump()["spans"])
    assert [(s.name, s.parent, s.run) for s in spans] == [("root", None, "op1"), ("child", 0, "op1"), ("failing", 0, "op1")]
    assert all(s.end > s.start for s in spans)
    assert rec.dump()["counters"] == {"n": 3}


# ---------------------------------------------------------------------------
# output checks and hashing

GOOD_REPORT = {"bias": 0.0696, "h": [0.98575, 0.9835, 0.9822, 0.9811], "h_estimate": 0.9811}
GOOD_SUMMARY = {
    "length": 1000,
    "patterns": {"1": {"0": 0.5709, "1": 0.4291}, "2": {"00": 0.3425, "01": 0.2285, "10": 0.2285, "11": 0.2006}},
    "von_neumann": {"monobit_frequency": 0.5006},
}


def _write(path, payload):
    path.write_text(json.dumps(payload))


def test_analyze_check_accepts_landmarks_and_rejects_perturbed_report(tmp_path):
    _write(tmp_path / "report.json", GOOD_REPORT)
    checks, values = check_analyze(tmp_path)
    assert all(c.ok for c in checks)
    assert values["landmark_dev"] == pytest.approx(max(abs(0.5696 - 0.57), abs(0.98575 - 0.9859)))

    for key, bad, failing in (("bias", 0.1, "P(0)"), ("h_estimate", 0.97, "h_estimate")):
        _write(tmp_path / "report.json", {**GOOD_REPORT, key: bad})
        checks, _ = check_analyze(tmp_path)
        assert [c.name for c in checks if not c.ok] == [failing]
    _write(tmp_path / "report.json", {**GOOD_REPORT, "h": [0.9859, 0.9835, 0.9836, 0.9811]})
    checks, _ = check_analyze(tmp_path)
    assert [c.name for c in checks if not c.ok] == ["monotone defect"]


def test_bitgen_check_rejects_perturbed_summary(tmp_path):
    _write(tmp_path / "bitgen_summary.json", GOOD_SUMMARY)
    checks, values = check_bitgen(tmp_path, 1000)
    assert all(c.ok for c in checks)
    assert values["landmark_dev"] == pytest.approx(0.0085)
    bad = json.loads(json.dumps(GOOD_SUMMARY))
    bad["patterns"]["2"]["01"] = 0.25
    bad["von_neumann"]["monobit_frequency"] = 0.51
    _write(tmp_path / "bitgen_summary.json", bad)
    checks, values = check_bitgen(tmp_path, 1000)
    assert [c.name for c in checks if not c.ok] == ["P(01)", "Von Neumann monobit"]
    assert values["landmark_dev"] == pytest.approx(0.03)
    checks, _ = check_bitgen(tmp_path, 999)
    assert not checks[0].ok


VERIFY_OUT = """L1(mc, fp)              value=0.131975  tolerance=0.05  FAIL
max|h_N(mc) - h_N(fp)|  value=0.001349  tolerance=0.01  PASS
max TV(blocks, stream)  value=0.009736  tolerance=0.01  PASS
structural invariants   value=0.000000  tolerance=0  PASS
"""


def test_verify_check_separates_known_defects_from_new_failures():
    assert ("cubic_sample", "L1(mc, fp)") in KNOWN_DEFECTS
    checks, values = check_verify("cubic_sample", 1, VERIFY_OUT)
    failed = [c for c in checks if not c.ok]
    assert [c.name for c in failed] == ["L1(mc, fp)"] and failed[0].known_defect
    assert values == {"l1_mc_fp": 0.131975, "tv_stream": 0.009736}
    # a known defect above its ceiling is a new failure, and the run reads incorrect
    assert not OpResult(Op("verify-cubic_sample", ()), 1, checks=checks).unexpected
    worse = VERIFY_OUT.replace("value=0.131975", f"value={KNOWN_DEFECTS[('cubic_sample', 'L1(mc, fp)')] + 0.01}")
    checks, _ = check_verify("cubic_sample", 1, worse)
    assert [c.known_defect for c in checks if not c.ok] == [False]
    assert OpResult(Op("verify-cubic_sample", ()), 1, checks=checks).unexpected
    # the same failure on a map where it is not a known defect
    checks, _ = check_verify("tent", 1, VERIFY_OUT)
    assert [c.known_defect for c in checks if not c.ok] == [False]
    # an exit code that disagrees with the printed lines
    checks, _ = check_verify("cubic_sample", 0, VERIFY_OUT)
    assert [c.name for c in checks if not c.ok] == ["L1(mc, fp)", "exit code"]
    # a missing line fails
    checks, _ = check_verify("tent", 1, VERIFY_OUT.splitlines()[1])
    assert [c.name for c in checks if not c.ok] == ["L1(mc, fp)", "max TV(blocks, stream)", "structural invariants"]


def test_changed_output_fails_determinism(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text('{"h": 1}')
    first = digest_outputs(out, "printed")
    assert digest_outputs(out, "printed") == first
    assert digest_outputs(out, "printed differently") != first
    ledger = Ledger(tmp_path / "ledger.json", "src1")
    op = Op("analyze", ("analyze",))
    assert ledger.check("w", op, 0, first).ok
    ledger.save()
    (out / "report.json").write_text('{"h": 2}')
    changed = digest_outputs(out, "printed")
    assert changed != first
    reloaded = Ledger(tmp_path / "ledger.json", "src1")
    assert not reloaded.check("w", op, 0, changed).ok
    assert reloaded.check("w", op, 1, changed).ok  # another seed
    assert Ledger(tmp_path / "ledger.json", "src2").check("w", op, 0, changed).ok  # another source


# ---------------------------------------------------------------------------
# wrapped-map transparency


@pytest.mark.parametrize("name", ["cubic_sample", "tent"])
def test_timed_map_gives_identical_outputs(name):
    m = maps.BUILTIN_MAPS[name]()
    rec = sp.Recorder()
    wm = timed_map(rec, m)
    cut = m.branches[0].hi
    s = SymbolPartition.from_s0(IntervalSet([(0.0, cut)]))

    f, wf = fp_fixed_point(m, 512, tol=1e-10), fp_fixed_point(wm, 512, tol=1e-10)
    assert np.array_equal(f.weights, wf.weights)
    ladder, wladder = refinement_ladder(m, s, 6), refinement_ladder(wm, s, 6)
    assert [p.cells for p in ladder] == [p.cells for p in wladder]
    tables = [block_probabilities(p, f, warn_below_bin=False).probs for p in ladder]
    assert tables == [block_probabilities(p, wf, warn_below_bin=False).probs for p in wladder]
    cfg = BitstreamConfig(seed=3, length=20_000, L=4096)
    assert np.array_equal(generate_bits(m, s, cfg), generate_bits(wm, s, cfg))
    assert sp.call_count(rec.spans, "maps.inverse") > 0
    assert rec.counters["maps.raw_eval.points"] == 4097  # one table over the stream grid


def test_instrumented_cli_writes_identical_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["analyze", "--map", "cubic_sample", "--depth", "5", "--L", "1024", "--seed", "0",
            "--workers", "1", "--out-dir", "out"]
    assert cli.main(argv) == 0
    plain = digest_outputs(tmp_path / "out", capsys.readouterr().out)

    rec = sp.Recorder()
    remove = instrument(rec)
    try:
        with rec.span("cli.main"):
            assert cli.main(argv) == 0
    finally:
        remove()
    assert digest_outputs(tmp_path / "out", capsys.readouterr().out) == plain
    assert cli._config_from_args.__module__ == "chaosrng.cli"  # wrappers removed

    names = {s.name for s in rec.spans}
    assert {"cli.config", "analysis.run_analysis", "partition.refinement_ladder", "maps.inverse",
            "density.fp_fixed_point", "entropy.block_probabilities", "cli.outputs"} <= names
    # sp.inclusive sums spans by name: no traced stage may nest in one of its own name
    for s in rec.spans:
        p = s.parent
        while p is not None:
            assert rec.spans[p].name != s.name
            p = rec.spans[p].parent
    root = sp.roots(rec.spans)
    assert len(root) == 1
    assert sp.self_time(rec.spans, root[0]) < 0.05 * sp.duration(rec.spans[root[0]])
    assert rec.counters["intervals.components"] > 0
    assert math.isclose(rec.counters["partition.deepest_cells"], 2 ** 5)
