"""Invariant densities: Monte Carlo route, operator route, and their agreement."""
import math

import numpy as np
import pytest

import chaosrng as cr
from chaosrng.density import (
    DensityHistogram,
    DitherConfig,
    NonConvergenceError,
    ResolutionError,
    density_for,
    fp_fixed_point,
    fp_step,
    l1_distance,
    mc_density,
    scaled_map_table,
    uniform_density,
)
from chaosrng.intervals import IntervalSet


def arcsine_histogram(L):
    """Bin-averaged 1/(pi*sqrt(x(1-x))): the logistic map's stationary law."""
    edges = np.arange(L + 1) / L
    F = (2.0 / np.pi) * np.arcsin(np.sqrt(edges))
    w = (F[1:] - F[:-1]) * L
    return DensityHistogram(L=L, weights=w / (w.sum() / L), method="fp_operator")


# ---------------------------------------------------------------------------
# histogram container


def test_histogram_validation():
    h = uniform_density(128)
    h.validate()
    bad = DensityHistogram(L=128, weights=np.ones(64), method="montecarlo")
    with pytest.raises(ValueError):
        bad.validate()
    neg = DensityHistogram(L=4, weights=np.array([2.0, 2.0, 1.0, -1.0]), method="montecarlo")
    with pytest.raises(ValueError):
        neg.validate()


def test_cumulative_and_set_mass():
    h = uniform_density(64)
    assert h.cumulative(0.0) == 0.0
    assert h.cumulative(1.0) == pytest.approx(1.0)
    assert h.cumulative(0.3) == pytest.approx(0.3, abs=1e-12)
    s = IntervalSet([(0.1, 0.2), (0.5, 0.75)])
    assert h.set_mass(s) == pytest.approx(0.35, abs=1e-12)
    assert h.set_mass(IntervalSet()) == 0.0


def test_set_mass_nonuniform():
    h = arcsine_histogram(512)
    # F(3/4) - F(1/4) = (2/pi)(pi/3 - pi/6) = 1/3 under the arcsine law
    got = h.set_mass(IntervalSet([(0.25, 0.75)]))
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_l1_distance_grid_mismatch():
    with pytest.raises(ValueError):
        l1_distance(uniform_density(64), uniform_density(128))
    assert l1_distance(uniform_density(64), uniform_density(64)) == 0.0


def test_csv_and_json_output(tmp_path):
    h = uniform_density(16)
    h.to_csv(tmp_path / "d.csv")
    rows = (tmp_path / "d.csv").read_text().strip().splitlines()
    assert rows[0] == "t,f"
    assert len(rows) == 17
    h.to_json(tmp_path / "d.json")
    assert '"L": 16' in (tmp_path / "d.json").read_text()


# ---------------------------------------------------------------------------
# Monte Carlo route


def test_mc_requires_enough_samples(tent):
    with pytest.raises(ResolutionError):
        mc_density(tent, 1024, DitherConfig(seed=0, K=1024 * 10))
    with pytest.raises(ValueError):
        mc_density(tent, 1024, DitherConfig(seed=0, K=200_000, burn_in=10))
    with pytest.raises(ValueError):
        mc_density(tent, 32, DitherConfig(seed=0, K=200_000))


def test_mc_deterministic_given_seed(tent):
    cfg = DitherConfig(seed=42, K=200_000, burn_in=2_000)
    a = mc_density(tent, 256, cfg)
    b = mc_density(tent, 256, cfg)
    assert np.array_equal(a.weights, b.weights)
    c = mc_density(tent, 256, DitherConfig(seed=43, K=200_000, burn_in=2_000))
    assert not np.array_equal(a.weights, c.weights)


def test_mc_metadata_and_normalization(tent):
    h = mc_density(tent, 256, DitherConfig(seed=1, K=200_000, burn_in=2_000), shards=4)
    h.validate()
    assert h.method == "montecarlo"
    assert h.meta["rng"] == "PCG64"
    assert h.meta["shards"] == 4
    assert h.meta["seed"] == 1
    assert h.weights.sum() / h.L == pytest.approx(1.0, abs=1e-12)


def test_mc_tent_near_uniform(tent):
    h = mc_density(tent, 256, DitherConfig(seed=3, K=2_000_000))
    assert l1_distance(h, uniform_density(256)) < 0.02


def test_mc_sharded_close_but_not_identical(tent):
    serial = mc_density(tent, 256, DitherConfig(seed=5, K=1_000_000))
    sharded = mc_density(tent, 256, DitherConfig(seed=5, K=1_000_000), shards=4)
    assert not np.array_equal(serial.weights, sharded.weights)
    assert l1_distance(serial, sharded) < 0.05


def test_scaled_map_table(tent):
    table = scaled_map_table(tent, 100)
    # table[j] = L * M(j/L); tent peaks at j = 50
    assert table[50] == pytest.approx(100.0, abs=1e-6)
    assert table[25] == pytest.approx(50.0, abs=1e-6)


# ---------------------------------------------------------------------------
# operator route


def test_fp_tent_uniform_is_fixed(tent):
    h = fp_fixed_point(tent, 256, tol=1e-12)
    assert h.meta["iterations"] == 1
    assert np.abs(h.weights - 1.0).max() < 1e-12


def test_fp_step_reads_the_map_it_is_given():
    # maps built and freed in turn can reuse each other's id(); a step must
    # never pick up pull-back data of an earlier, freed map
    u = uniform_density(256)
    for i in range(1000):
        m = cr.tent_map() if i % 2 == 0 else cr.logistic_map()
        f = fp_step(m, u)
        if i % 2 == 0:
            assert np.allclose(f.weights, 1.0, atol=1e-9), f"step {i}"
        del m, f


def test_fp_bernoulli_uniform_is_fixed(bernoulli):
    h = fp_fixed_point(bernoulli, 256, tol=1e-12)
    assert np.abs(h.weights - 1.0).max() < 1e-10


def test_fp_step_mass_preserving(cubic):
    f = fp_step(cubic, uniform_density(512))
    f.validate()
    assert f.method == "fp_operator"


def test_fp_step_piles_mass_near_critical_value(cubic):
    # one pull-back of the uniform density: 1/|M'| diverges where the map
    # is flat, so bins near y = 1 exceed 1.5
    f = fp_step(cubic, uniform_density(512))
    assert f.weights[-8:].max() > 1.5


def test_fp_logistic_matches_closed_form(logistic):
    h = fp_fixed_point(logistic, 1024, tol=1e-11, max_iter=20000)
    assert l1_distance(h, arcsine_histogram(1024)) < 0.05
    fine = fp_fixed_point(logistic, 1024, tol=1e-11, max_iter=20000, grid_factor=16)
    assert l1_distance(fine, arcsine_histogram(1024)) < 0.015


def test_fp_fixed_point_is_stationary(cubic):
    h = fp_fixed_point(cubic, 1024, tol=1e-11, max_iter=20000)
    again = fp_step(cubic, h)
    assert l1_distance(h, again) < 2e-11


def test_fp_nonconvergence_reported(cubic):
    with pytest.raises(NonConvergenceError) as exc:
        fp_fixed_point(cubic, 256, tol=1e-30, max_iter=50)
    assert exc.value.iterations == 50


def test_fp_rejects_bad_arguments(cubic):
    with pytest.raises(ValueError):
        fp_fixed_point(cubic, 256, tol=0.0)
    with pytest.raises(ValueError):
        fp_fixed_point(cubic, 256, grid_factor=0)


# ---------------------------------------------------------------------------
# cross-route agreement


def test_density_for_dispatch(tent):
    mc = density_for(tent, "montecarlo", 256, seed=2, K=200_000, burn_in=2_000)
    fp = density_for(tent, "fp_operator", 256)
    assert mc.method == "montecarlo"
    assert fp.method == "fp_operator"
    with pytest.raises(ValueError):
        density_for(tent, "quadrature", 256)


def test_routes_agree_on_cubic(cubic):
    fp = fp_fixed_point(cubic, 512, tol=1e-11, max_iter=20000, grid_factor=8)
    mc = mc_density(cubic, 512, DitherConfig(seed=11, K=8_000_000, grid_factor=512))
    assert l1_distance(mc, fp) < 0.05
