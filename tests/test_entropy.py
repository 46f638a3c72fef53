"""Probability tables, entropy curves, and the rate budget."""
import math
import warnings
from contextlib import nullcontext
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import chaosrng as cr
from chaosrng.bitstream import total_variation
from chaosrng.entropy import (
    AccuracyError,
    EntropyReport,
    ProbabilityTable,
    TableError,
    bias,
    block_entropy,
    block_probabilities,
    entropy_rate_estimate,
    per_bit_entropies,
    rate_budget,
)
from chaosrng.partition import SymbolPartition, refinement_ladder
from reference import uniform_density

# frozen: -(0.57 log2 0.57 + 0.43 log2 0.43)
H_057 = 0.9858150371789198


def table_from(probs):
    n = int(math.log2(len(probs)))
    return ProbabilityTable(depth=n, p=np.array(probs))


prob_vectors = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=4, max_size=4
).map(lambda v: [x / sum(v) for x in v])


def test_table_validation():
    t = table_from([0.25, 0.25, 0.25, 0.25])
    t.validate()
    with pytest.raises(TableError):
        table_from([0.5, 0.5, 0.5, 0.5]).validate()
    with pytest.raises(TableError):
        ProbabilityTable(depth=2, p=np.array([1.0])).validate()
    with pytest.raises(TableError):
        table_from([1.5, -0.5, 0.0, 0.0]).validate()


def test_marginalize_drops_last_bit():
    t = table_from([0.4, 0.1, 0.2, 0.3])
    m = t.marginalize()
    assert m.depth == 1
    assert m.probs["0"] == pytest.approx(0.5)
    assert m.probs["1"] == pytest.approx(0.5)
    with pytest.raises(TableError):
        m.marginalize()


def test_block_entropy_known_values():
    assert block_entropy(table_from([0.25] * 4)) == pytest.approx(2.0, abs=1e-12)
    t = table_from([0.57, 0.43])
    assert block_entropy(t) == pytest.approx(H_057, abs=1e-12)
    assert block_entropy(table_from([1.0, 0.0])) == 0.0


def test_bias():
    assert bias(table_from([0.57, 0.43])) == pytest.approx(0.07)
    with pytest.raises(TableError):
        bias(table_from([0.25] * 4))


def test_per_bit_entropies_telescope():
    H = [0.9, 1.7, 2.4]
    h = per_bit_entropies(H)
    assert h == pytest.approx([0.9, 0.8, 0.7])
    assert sum(h) == pytest.approx(H[-1])
    with pytest.raises(ValueError):
        per_bit_entropies([])


@given(prob_vectors)
def test_block_entropy_bounds(probs):
    # adding one binary coordinate: H_1 <= H_2 <= H_1 + 1
    t2 = table_from(probs)
    t1 = t2.marginalize()
    H1, H2 = block_entropy(t1), block_entropy(t2)
    assert H1 - 1e-9 <= H2 <= H1 + 1.0 + 1e-9


# ---------------------------------------------------------------------------
# the array operations against the string-keyed {word: probability} route
# they replaced


def ref_marginalize(probs):
    out = {}
    for w in probs:
        out[w[:-1]] = out.get(w[:-1], 0.0) + probs[w]
    return out


def ref_block_entropy(probs):
    vals = np.array(list(probs.values()))
    vals = vals[vals > 0]
    return float(-(vals * np.log2(vals)).sum())


def ref_bias(probs):
    return abs(probs["0"] - 0.5)


def ref_total_variation(a, b):
    return 0.5 * sum(abs(a[w] - b[w]) for w in a)


@st.composite
def table_pairs(draw):
    """Two tables of one depth in 1..8, with zero entries allowed."""
    n = draw(st.integers(min_value=1, max_value=8))
    pair = []
    for _ in range(2):
        w = draw(arrays(np.float64, 2**n, elements=st.floats(min_value=0.0, max_value=1.0)))
        assume(w.sum() > 0)
        pair.append(ProbabilityTable(depth=n, p=w / w.sum()))
    return pair


@given(table_pairs())
def test_array_table_ops_match_string_keyed_reference(pair):
    a, b = pair
    assert abs(block_entropy(a) - ref_block_entropy(a.probs)) <= 1e-15
    # the reference adds 2^N terms one by one and errs by up to ~2^N ulp of
    # its sum (1.6e-15 on a depth-6 pair); numpy's pairwise sum errs less
    tv_slack = 2**a.depth * np.finfo(float).eps
    assert abs(total_variation(a, b) - ref_total_variation(a.probs, b.probs)) <= tv_slack
    if a.depth == 1:
        assert abs(bias(a) - ref_bias(a.probs)) <= 1e-15
    else:
        assert a.marginalize().probs == ref_marginalize(a.probs)


def test_block_probabilities_uniform_oracle():
    s = SymbolPartition.from_pairs([(0.0, 0.7)])
    t = block_probabilities(s, uniform_density(256))
    assert t.probs["0"] == pytest.approx(0.7, abs=1e-9)
    assert bias(t) == pytest.approx(0.2, abs=1e-9)


def test_block_probabilities_warns_below_bin():
    # only a Monte Carlo histogram's bins limit the resolution of a cell
    s = cr.symmetric_partition()
    p = refinement_ladder(cr.bernoulli_map(), s, 9)[-1]  # cells 2^-9, bins 1/64
    with pytest.warns(RuntimeWarning, match="below one density bin"):
        block_probabilities(p, uniform_density(64, method="montecarlo"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block_probabilities(refinement_ladder(cr.bernoulli_map(), s, 6)[-1], uniform_density(64, method="montecarlo"))
        block_probabilities(p, uniform_density(64))


def test_operator_density_cells_below_bin_do_not_warn(cubic, branch_part):
    # the cubic's depth-14 cells are far narrower than 1/1024, yet its
    # operator-density h_N do not depend on L (see
    # test_fp_cubic_entropies_independent_of_L)
    p = refinement_ladder(cubic, branch_part, 14)[13]
    f = cr.fp_fixed_point(cubic, 1024, tol=1e-11)
    assert p.min_cell_width() < 1.0 / 1024
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block_probabilities(p, f)


def test_block_probabilities_renormalization_guard():
    s = cr.symmetric_partition()
    p = refinement_ladder(cr.tent_map(), s, 2)[-1]
    # drop the last interval: the cut points stop at 3/4 and a quarter of the mass is lost
    broken = cr.SymbolPartition(depth=2, cuts=p.cuts[:-1], codes=p.codes[:-1])
    with pytest.raises(AccuracyError):
        block_probabilities(broken, uniform_density(64))


def test_block_probabilities_renormalize_the_raw_cell_masses(cubic, branch_part):
    # the cubic's Monte Carlo cell masses sum to 1 + 2.2e-16 at every depth,
    # and the division moves every entry, so a table that skipped it would differ
    f = cr.mc_density(cubic, 1024, K=409_600, burn_in=1000, seed=0)
    for p in refinement_ladder(cubic, branch_part, 8):
        raw = np.bincount(p.codes, weights=np.diff(f.cumulative(p.cuts)), minlength=2**p.depth)
        assert raw.sum() != 1.0
        # at depth 8 the narrowest cell is below one Monte Carlo bin
        with pytest.warns(RuntimeWarning, match="below one density bin") if p.depth == 8 else nullcontext():
            t = block_probabilities(p, f)
        assert np.array_equal(t.p, raw / raw.sum()), p.depth
        assert t.meta["renormalization"] == 1.0 / raw.sum()


def test_entropy_rate_estimate():
    spread = entropy_rate_estimate([1.0, 0.9851, 0.985, 0.9849, 0.98488], window=4)
    assert spread == pytest.approx(0.9851 - 0.98488)
    with pytest.raises(ValueError):
        entropy_rate_estimate([1.0], window=4)
    with pytest.warns(RuntimeWarning):
        entropy_rate_estimate([1.0, 0.9, 0.8, 0.7], window=4)


def test_rate_budget():
    rate, overhead = rate_budget(1e6, 0.98)
    assert rate == pytest.approx(0.98e6)
    assert overhead == pytest.approx(1.0 / 0.98)
    assert rate_budget(100.0, 0.0) == (0.0, float("inf"))  # no extractable entropy
    with pytest.raises(ValueError):
        rate_budget(-1.0, 0.5)
    with pytest.raises(ValueError):
        rate_budget(1.0, 1.5)


def test_report_validation_and_output(tmp_path):
    r = EntropyReport(
        H=[0.99, 1.97], h=[0.99, 0.98], h_estimate=0.98, spread=0.01, bias=0.07
    )
    r.validate()
    assert r.monotone_defect() == 0.0
    r.to_csv(tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "N,H_N,h_N"
    assert len(lines) == 3
    r.to_json(tmp_path / "r.json")
    assert '"h_estimate"' in (tmp_path / "r.json").read_text()


def test_report_flags_entropy_increase():
    r = EntropyReport(
        H=[0.9, 1.85], h=[0.9, 0.95], h_estimate=0.95, spread=0.0, bias=0.1
    )
    assert r.monotone_defect() == pytest.approx(0.05)
    with pytest.warns(RuntimeWarning):
        r.validate()
    bad = EntropyReport(H=[1.5], h=[1.5], h_estimate=1.5, spread=0.0, bias=0.0)
    with pytest.raises(TableError):
        bad.validate()


@pytest.mark.parametrize("K", [409_600, 4_000_000, 16_000_000])
def test_monte_carlo_slack_follows_the_visit_count(K):
    # the slack of a Monte Carlo report is 0.5 / sqrt(K): an increase just
    # above it still warns, one just below it, or above the operator's 1e-6
    # slack, does not
    slack = 0.5 / math.sqrt(K)
    for rise, warns in ((1.01 * slack, True), (0.99 * slack, False)):
        h = [0.99, 0.98, 0.98 + rise]
        r = EntropyReport(
            H=list(accumulate(h)), h=h, h_estimate=h[-1], spread=rise, bias=0.07,
            provenance={"density_method": "montecarlo", "K": K},
        )
        assert r.monotone_defect() == pytest.approx(rise) and rise > 1e-6
        if warns:
            with pytest.warns(RuntimeWarning, match="per-bit entropy increased"):
                r.validate()
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r.validate()
        r.provenance["density_method"] = "fp_operator"
        with pytest.warns(RuntimeWarning, match="per-bit entropy increased"):
            r.validate()


@pytest.mark.parametrize(
    "method, lever",
    [("fp_operator", "raise L or lower tol"), ("montecarlo", "raise L, keeping K >= 100 L")],
)
def test_monotone_warning_names_the_lever_of_its_method(method, lever):
    # K means nothing to the operator; on Monte Carlo a larger K alone leaves
    # the resolution bias where it is
    h = [0.99, 0.98, 0.99]
    r = EntropyReport(
        H=list(accumulate(h)), h=h, h_estimate=h[-1], spread=0.01, bias=0.07,
        provenance={"density_method": method, "K": 4_000_000},
    )
    with pytest.warns(RuntimeWarning, match="per-bit entropy increased") as record:
        r.validate()
    (message,) = [str(w.message) for w in record]
    assert message.endswith(f"at this depth ({lever})")
