"""The end-to-end pipeline and its always-on invariant suite."""
import pytest

import chaosrng as cr
from chaosrng.analysis import check_invariants, run_analysis
from chaosrng.entropy import ProbabilityTable


def test_tent_pipeline_is_ideal(tent, sym_part):
    res = run_analysis(tent, sym_part, depth=8, density=cr.fp_fixed_point(tent, 512))
    r = res.report
    assert r.bias == pytest.approx(0.0, abs=1e-9)
    for h in r.h:
        assert h == pytest.approx(1.0, abs=1e-9)
    assert r.h_estimate == pytest.approx(1.0, abs=1e-9)
    assert len(res.ladder) == 8
    assert len(res.tables) == 8


def test_cubic_pipeline_provenance(cubic, branch_part):
    res = run_analysis(cubic, branch_part, depth=6, density=cr.fp_fixed_point(cubic, 1024, grid_factor=4))
    r = res.report
    assert r.provenance["map"] == "cubic_sample"
    assert r.provenance["density_method"] == "fp_operator"
    assert r.provenance["depth"] == 6
    assert 0.9 < r.h_estimate < 1.0
    assert 0.05 < r.bias < 0.09


def test_rate_budget_wiring(tent, sym_part):
    res = run_analysis(tent, sym_part, depth=4, density=cr.fp_fixed_point(tent, 256), input_rate=2.0e6)
    r = res.report
    assert r.recommended_rate == pytest.approx(2.0e6, rel=1e-6)
    assert r.overhead == pytest.approx(1.0, abs=1e-6)


def test_precomputed_density_short_circuit(tent, sym_part):
    f = cr.fp_fixed_point(tent, 256)
    res = run_analysis(tent, sym_part, depth=3, density=f)
    assert res.density is f


def test_montecarlo_route(tent, sym_part):
    res = run_analysis(tent, sym_part, depth=4, density=cr.mc_density(tent, 256, seed=3, K=1_000_000))
    assert res.report.bias < 0.005
    assert res.density.meta["rng"] == "PCG64"


def test_invariant_suite_catches_bad_tables(tent, sym_part):
    res = run_analysis(tent, sym_part, depth=3, density=cr.fp_fixed_point(tent, 256))
    # corrupt one deep table: marginal consistency must trip
    bad = ProbabilityTable(depth=3, p=res.tables[2].p.copy())
    bad.p[0] += 0.01  # word 000
    bad.p[7] -= 0.01  # word 111
    with pytest.raises(cr.InvariantViolation):
        check_invariants(tent, res.ladder, [res.tables[0], res.tables[1], bad], res.report)


def test_invariant_suite_catches_broken_curve(tent, sym_part):
    res = run_analysis(tent, sym_part, depth=3, density=cr.fp_fixed_point(tent, 256))
    report = res.report
    report.H = [0.5, 1.0, 1.5]  # no longer telescopes against report.h
    with pytest.raises(cr.InvariantViolation):
        check_invariants(tent, res.ladder, res.tables, report)
    report.h = [1.5, 0.5, 0.5]  # telescopes, but H_1 exceeds one bit
    report.H = [1.5, 2.0, 2.5]
    with pytest.raises(cr.InvariantViolation, match=r"H_1 = 1.5 outside \[0, 1\]"):
        check_invariants(tent, res.ladder, res.tables, report)


def test_invariant_suite_runs_the_forward_check(tent, sym_part):
    res = run_analysis(tent, sym_part, depth=3, density=cr.fp_fixed_point(tent, 256))
    p = res.ladder[-1]
    codes = p.codes.copy()
    codes[0] ^= 1  # a wrong last bit keeps every prefix intact
    bad = cr.SymbolPartition(depth=p.depth, cuts=p.cuts, codes=codes)
    with pytest.raises(cr.InvariantViolation, match="last N-1 bits"):
        check_invariants(tent, res.ladder[:-1] + [bad], res.tables, res.report)
