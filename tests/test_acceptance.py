"""Headline checks for the whole analyzer, one per published landmark.

Each test prints a single PASS/FAIL line with the measured value so the
suite doubles as a results table.  Tolerances are fixed here, not tuned.
"""
import math
import time

import numpy as np
import pytest

import chaosrng as cr
from chaosrng.analysis import check_invariants, run_analysis
from chaosrng.bitstream import (
    empirical_pattern_probs,
    generate_bits,
    monobit_frequency,
    total_variation,
    von_neumann_extract,
)
from chaosrng.density import (
    DensityHistogram,
    fp_fixed_point,
    l1_distance,
    mc_density,
)
from chaosrng.entropy import ProbabilityTable, block_probabilities
from chaosrng.partition import SymbolPartition, refinement_ladder

XB = 1.0 / math.sqrt(3.0)

# frozen: -(0.57 log2 0.57 + 0.43 log2 0.43)
H_057 = 0.9858150371789198
# frozen: pair-acceptance rate of the extractor on an independent 0.57/0.43 source
VN_RATIO = 0.57 * 0.43  # 0.2451


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def cubic():
    return cr.cubic_sample_map()


@pytest.fixture(scope="module")
def part(cubic):
    return SymbolPartition.from_pairs([(0.0, XB)])


@pytest.fixture(scope="module")
def mc_run(cubic):
    """The shared single-run density: L = 4096, K = 4e6 dithered visits."""
    t0 = time.perf_counter()
    f = mc_density(cubic, 4096, seed=12345, K=4_000_000)
    return f, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cubic_stream(cubic, part):
    """The cubic 1e7-bit stream that acceptance 7 and 9 share, and its build time."""
    t0 = time.perf_counter()
    bits = generate_bits(cubic, part, 10_000_000, seed=99, L=1 << 24)
    return bits, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ladder2(cubic, part):
    return refinement_ladder(cubic, part, 2)


def test_acceptance_1_single_bit_probabilities(mc_run, ladder2):
    f, seconds = mc_run
    t = block_probabilities(ladder2[0], f).probs
    ok = abs(t["0"] - 0.57) < 0.02 and abs(t["1"] - 0.43) < 0.02 and seconds < 30.0
    report(
        "acceptance 1 (single-bit probabilities)",
        ok,
        f"P(0)={t['0']:.4f} (want 0.57±0.02), P(1)={t['1']:.4f} (want 0.43±0.02), density run {seconds:.1f}s < 30s",
    )


def test_acceptance_2_two_bit_probabilities(mc_run, ladder2):
    f, _ = mc_run
    t = block_probabilities(ladder2[1], f).probs
    want = {"00": 0.35, "01": 0.22, "10": 0.23, "11": 0.20}
    errs = {w: abs(t[w] - want[w]) for w in want}
    ok = all(e < 0.02 for e in errs.values())
    got = ", ".join(f"P({w})={t[w]:.4f}" for w in sorted(want))
    report("acceptance 2 (two-bit probabilities)", ok, f"{got} (each within ±0.02 of 0.35/0.22/0.23/0.20)")


def test_acceptance_3_refinement_landmarks(cubic, ladder2):
    cuts = sorted(
        {round(e, 9) for c in ladder2[1].cells.values() for a, b in c for e in (a, b)}
        - {0.0, 1.0, round(XB, 9)}
    )
    assert len(cuts) == 2
    x1, x2 = cuts
    back1 = abs(cubic(x1) - XB)
    back2 = abs(cubic(x2) - XB)
    ok = abs(x1 - 0.24) < 0.005 and abs(x2 - 0.86) < 0.005 and back1 < 1e-9 and back2 < 1e-9
    report(
        "acceptance 3 (refinement landmarks)",
        ok,
        f"x_t1={x1:.5f} (want 0.24±0.005), x_t2={x2:.5f} (want 0.86±0.005), "
        f"|M(x_t)-1/sqrt(3)| = {max(back1, back2):.1e} < 1e-9",
    )


def test_acceptance_4_entropy_curve(cubic, part):
    # deterministic operator density, resolved finely enough that the
    # stationarity defect sits well under the monotonicity slack
    f = fp_fixed_point(cubic, 16384, tol=1e-11, max_iter=20000)
    res = run_analysis(cubic, part, depth=14, density=f)
    r = res.report
    defect = r.monotone_defect()
    ok = defect <= 1e-6 and r.h_estimate > 0.98 and abs(r.h[0] - 0.9859) < 0.002
    report(
        "acceptance 4 (entropy curve)",
        ok,
        f"max h_N increase = {defect:.2e} (slack 1e-6), h_estimate = {r.h_estimate:.4f} > 0.98, "
        f"h_1 = {r.h[0]:.4f} (want 0.9859±0.002)",
    )


def test_acceptance_5_cross_method_density():
    from chaosrng.maps import BUILTIN_MAPS

    L = 1024
    worst = ("", 0.0)
    d_closed = None
    for name in ("cubic_sample", "tent", "bernoulli", "logistic"):
        m = BUILTIN_MAPS[name]()
        fp = fp_fixed_point(m, L, tol=1e-11, max_iter=20000, grid_factor=16)
        mc = mc_density(m, L, seed=7, K=40_000_000, grid_factor=4096)
        d = l1_distance(mc, fp)
        if d > worst[1]:
            worst = (name, d)
        assert d < 0.05, f"{name}: L1(mc, fp) = {d:.4f}"
        if name == "logistic":
            edges = np.arange(L + 1) / L
            F = (2.0 / np.pi) * np.arcsin(np.sqrt(edges))
            w = (F[1:] - F[:-1]) * L
            closed = DensityHistogram(L=L, weights=w / (w.sum() / L), method="fp_operator")
            d_closed = l1_distance(fp, closed)
            assert d_closed < 0.05, f"logistic vs closed form: {d_closed:.4f}"
    report(
        "acceptance 5 (cross-method density)",
        True,
        f"all four maps L1(mc, fp) < 0.05 at L=1024; worst = {worst[0]} at {worst[1]:.4f}; "
        f"logistic operator density within {d_closed:.4f} of the arcsine law",
    )


def test_acceptance_6_analytic_baselines():
    fails = []
    detail = []
    for name, m in (("tent", cr.tent_map()), ("bernoulli", cr.bernoulli_map())):
        res = run_analysis(m, cr.symmetric_partition(), depth=12, density=fp_fixed_point(m, 4096, tol=1e-11))
        r = res.report
        dh = max(abs(h - 1.0) for h in r.h)
        detail.append(f"{name}: bias={r.bias:.1e}, max|h_N - 1|={dh:.1e}")
        if not (r.bias < 0.005 and dh < 0.01):
            fails.append(name)
    report("acceptance 6 (analytic baselines)", not fails, "; ".join(detail) + " (want bias<0.005, |h_N-1|<0.01)")


def test_acceptance_7_oracle_equivalence(cubic, part, cubic_stream):
    t0 = time.perf_counter()
    cases = {
        "cubic_sample": (cubic, part),
        "tent": (cr.tent_map(), cr.symmetric_partition()),
        "bernoulli": (cr.bernoulli_map(), cr.symmetric_partition()),
        "logistic": (cr.logistic_map(), cr.symmetric_partition()),
    }
    worst = ("", 0.0)
    for name, (m, s) in cases.items():
        f = fp_fixed_point(m, 4096, tol=1e-11, max_iter=20000, grid_factor=16)
        ladder = refinement_ladder(m, s, 8)
        if name == "cubic_sample":
            bits = cubic_stream[0]
        else:
            bits = generate_bits(m, s, 10_000_000, seed=99, L=1 << 24)
        for N in range(1, 9):
            tab = block_probabilities(ladder[N - 1], f)
            tv = total_variation(tab, empirical_pattern_probs(bits, N))
            if tv > worst[1]:
                worst = (f"{name} N={N}", tv)
            assert tv < 0.01, f"{name} N={N}: TV = {tv:.4f}"
    # the shared cubic stream was built outside this test; its time counts here
    seconds = time.perf_counter() - t0 + cubic_stream[1]
    ok = seconds < 120.0
    report(
        "acceptance 7 (oracle equivalence)",
        ok,
        f"all maps, N<=8: TV < 0.01 on 1e7-bit streams; worst = {worst[0]} at {worst[1]:.4f}; total {seconds:.0f}s < 120s",
    )


def test_acceptance_8_structural_properties(cubic, part):
    res = run_analysis(cubic, part, depth=10, density=fp_fixed_point(cubic, 2048, tol=1e-11, grid_factor=4))
    # the pipeline already ran check_invariants; re-verify each guarantee here
    for i, p in enumerate(res.ladder):
        p.validate(cubic, parent=res.ladder[i - 1] if i else None)
    worst_marg = max(
        np.abs(deep.marginalize().p - shallow.p).max() for shallow, deep in zip(res.tables, res.tables[1:])
    )
    worst_chain = max(abs(H - sum(res.report.h[:n + 1])) for n, H in enumerate(res.report.H))
    bounds_ok = all(0.0 <= H <= n + 1e-9 for n, H in enumerate(res.report.H, start=1))
    # and the suite must actually be enforced, not advisory
    broken = ProbabilityTable(depth=res.tables[-1].depth, p=res.tables[-1].p.copy())
    broken.p[0] += 0.01
    with pytest.raises(cr.InvariantViolation):
        check_invariants(cubic, res.ladder, res.tables[:-1] + [broken], res.report)
    ok = worst_marg < 1e-6 and worst_chain < 1e-12 and bounds_ok
    report(
        "acceptance 8 (structural properties)",
        ok,
        f"marginal consistency {worst_marg:.1e} < 1e-6, chain identity {worst_chain:.1e} < 1e-12, "
        f"0 <= H_N <= N, partition invariants enforced",
    )


def test_acceptance_9_extractor_sanity(cubic_stream):
    # monobit on the generator's own stream
    bits = cubic_stream[0]
    out = von_neumann_extract(bits)
    mono = monobit_frequency(out)
    # throughput against the pair-acceptance formula, which models the bits
    # as independent: measured on an independent source with the same
    # single-bit law (the map's serial correlation lowers its own rate)
    rng = np.random.default_rng(5)
    p0 = 1.0 - monobit_frequency(bits)
    iid = (rng.random(10_000_000) >= p0).astype(np.uint8)
    iid_out = von_neumann_extract(iid)
    ratio = iid_out.size / iid.size
    mono_iid = monobit_frequency(iid_out)
    ok = abs(mono - 0.5) < 0.005 and abs(ratio - VN_RATIO) < 0.01 and abs(mono_iid - 0.5) < 0.005
    report(
        "acceptance 9 (extractor sanity)",
        ok,
        f"stream monobit = {mono:.4f} (want 0.5±0.005); independent 0.57-source throughput = "
        f"{ratio:.4f} (want {VN_RATIO:.4f}±0.01), monobit = {mono_iid:.4f}",
    )
