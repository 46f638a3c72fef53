"""Map models: evaluation, branch decomposition, preimages, config loading."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaosrng as cr
from chaosrng.maps import EPS, DomainError, MapConfigError
from reference import IntervalSet, preimage_of_set
from strategies import builtin_maps, map_models, piecewise_linear_maps, polynomial_configs

XB = 1.0 / math.sqrt(3.0)

interior = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


def test_cubic_known_values(cubic):
    assert abs(cubic(XB) - 1.0) < 1e-12
    # peak location and a fixed interior value of (3*sqrt(3)/2) x (1 - x^2)
    assert abs(cubic(0.5) - 0.9742785792574935) < 1e-12
    assert abs(cubic.branches[0].hi - XB) < 1e-15


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@example(0.5)
@example(math.nextafter(0.5, 0.0))
def test_bernoulli_matches_np_mod(bernoulli, x):
    xs = np.array([x])
    assert bernoulli.raw_eval(xs).tobytes() == np.mod(2.0 * xs, 1.0).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    m=map_models,
    xs=st.lists(st.floats(0.0, 1.0), max_size=20),
    grid=st.tuples(st.integers(1, 2**40), st.integers(1, 2**40)),
)
def test_raw_eval_scalar_path_matches_array_path(m, xs, grid):
    # random x, a grid point j/L, the clamp ends, and the left end of every
    # branch (each breakpoint of a piecewise-linear map) with its neighbouring floats
    j, L = min(grid), max(grid)
    pts = [*xs, j / L, EPS, 1.0 - EPS, 0.0, 1.0]
    for b in (br.lo for br in m.branches):
        pts += [b, math.nextafter(b, 0.0), math.nextafter(b, 1.0)]
    want = m.raw_eval(np.array(pts))
    for x, w in zip(pts, want):
        y = m.raw_eval(x)
        assert type(y) is float, (x, type(y))
        assert np.array([y]).tobytes() == np.array([w]).tobytes(), (x, y, w)


def test_eval_domain_and_clamp(cubic):
    with pytest.raises(DomainError):
        cubic(0.0)
    with pytest.raises(DomainError):
        cubic(1.0)
    with pytest.raises(DomainError):
        cubic(np.array([0.5, 1.5]))
    # at the maximum the output clamps strictly inside (0,1)
    assert 0.0 < cubic(XB) < 1.0


def test_branch_structure(cubic, tent, bernoulli, logistic):
    for m, cuts in ((cubic, [XB]), (tent, [0.5]), (logistic, [0.5]), (bernoulli, [0.5])):
        assert len(m.branches) == 2
        assert m.branches[0].hi == pytest.approx(cuts[0])
        assert m.branches[1].lo == pytest.approx(cuts[0])
    assert cubic.branches[0].increasing and not cubic.branches[1].increasing
    assert bernoulli.branches[0].increasing and bernoulli.branches[1].increasing


@given(interior)
def test_tent_preimages_closed_form(y):
    m = cr.tent_map()
    roots = cr.preimages(m, y)
    expect = sorted({y / 2.0, 1.0 - y / 2.0})
    assert len(roots) == len(expect)
    for r, e in zip(roots, expect):
        assert abs(r - e) < 1e-12


@given(interior)
def test_logistic_preimages_closed_form(y):
    m = cr.logistic_map()
    roots = cr.preimages(m, y)
    s = math.sqrt(1.0 - y)
    expect = sorted({(1.0 - s) / 2.0, (1.0 + s) / 2.0})
    assert len(roots) == len(expect)
    for r, e in zip(roots, expect):
        assert abs(r - e) < 1e-9


@given(interior)
def test_preimages_invert_the_map(y):
    m = cr.cubic_sample_map()
    roots = cr.preimages(m, y)
    assert 1 <= len(roots) <= 2
    for r in roots:
        assert abs(m(r) - y) < 1e-9


def test_preimage_of_set_vs_pointwise(cubic):
    target = IntervalSet([(0.2, 0.4), (0.7, 0.8)])
    pre = preimage_of_set(cubic, target)
    xs = np.linspace(1e-4, 1.0 - 1e-4, 4001)
    for x in xs:
        in_pre = pre.contains(x)
        in_target = target.contains(cubic(float(x)))
        # agreement away from cell boundaries (ties resolve by convention)
        near_edge = any(abs(x - e) < 1e-6 for a, b in pre for e in (a, b))
        if not near_edge:
            assert in_pre == in_target


def test_preimage_measure_for_linear_maps(tent, bernoulli):
    target = IntervalSet([(0.1, 0.6)])
    # both slope-2 maps halve measure per branch, two branches: preserved
    for m in (tent, bernoulli):
        assert preimage_of_set(m, target).measure == pytest.approx(0.5, abs=1e-12)


def test_full_interval_preimage_is_full(cubic, logistic):
    full = IntervalSet([(0.0, 1.0)])
    for m in (cubic, logistic):
        assert preimage_of_set(m, full).measure == pytest.approx(1.0, abs=1e-7)


def test_polynomial_map_matches_builtin():
    m = cr.polynomial_map([0.0, 4.0, -4.0], critical_points=[0.5], name="logi2")
    ref = cr.logistic_map()
    xs = np.linspace(0.01, 0.99, 101)
    assert np.allclose(m(xs), ref(xs), atol=1e-12)


def test_polynomial_requires_declared_critical_points():
    with pytest.raises(MapConfigError):
        cr.map_from_config({"type": "polynomial", "coefficients": [0, 4, -4]})


@pytest.mark.parametrize(
    "coefficients, critical_points",
    [
        ([0.0, 4.0, -4.0], [0.5]),  # the logistic map
        ([0.0, 1.5 * math.sqrt(3.0), 0.0, -1.5 * math.sqrt(3.0)], [XB]),  # the cubic, peak 1 + 2e-16
        ([0.0, 0.0, 1.0], []),  # x^2: monotone without a critical point
        ([0.0, 0.0, 1.0], [0.3]),  # a declared point where the slope does not vanish
        ([0.0, 3.0, -6.0, 4.0], []),  # 0.5 + 4 (x - 1/2)^3: a flat inflection at 1/2
    ],
)
def test_polynomial_configs_with_monotone_branches_build(coefficients, critical_points):
    # the config checks reject only what leaves [0, 1] or turns inside a branch
    m = cr.polynomial_map(coefficients, critical_points)
    assert len(m.branches) == len(critical_points) + 1


@settings(max_examples=300, deadline=None)
@given(
    m=st.one_of(builtin_maps, polynomial_configs(), piecewise_linear_maps()),
    inner=st.lists(st.floats(0.0, 1.0), max_size=20),
)
def test_every_branch_inverse_keeps_the_contract(m, inner):
    for br in m.branches:
        a, b = br.image
        # the image, in the branch's direction, is the map at the branch ends
        # (at a jump such as the Bernoulli map's, its limit one ulp inside)
        for x, inside, want in ((br.lo, br.hi, a if br.increasing else b), (br.hi, br.lo, b if br.increasing else a)):
            assert min(abs(m.raw_eval(v) - want) for v in (x, math.nextafter(x, inside))) <= 1e-12, (br, x)
        ys = [a, b, math.nextafter(a, b), math.nextafter(b, a), *(a + t * (b - a) for t in inner)]
        arr = np.array(ys)
        xs = br.inverse(arr)
        assert type(xs) is np.ndarray and xs.dtype == np.float64 and xs.shape == arr.shape
        assert not np.shares_memory(xs, arr)  # refine_once writes into it
        assert np.all((br.lo <= xs) & (xs <= br.hi)), (br, ys, xs)
        for y in ys:
            x = br.inverse(y)
            assert type(x) is float and br.lo <= x <= br.hi, (br, y, x)


def test_piecewise_linear_map_and_errors():
    m = cr.piecewise_linear_map([0.0, 0.25, 1.0], [0.0, 1.0, 0.0])
    assert m(0.125) == pytest.approx(0.5)
    assert len(m.branches) == 2
    with pytest.raises(MapConfigError):
        cr.piecewise_linear_map([0.0, 0.5], [0.2, 0.2, 0.2])
    with pytest.raises(MapConfigError):
        cr.piecewise_linear_map([0.1, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        cr.piecewise_linear_map([0.0, 0.5, 1.0], [0.0, 0.0, 1.0])  # flat segment


def test_map_config_roundtrip():
    m = cr.map_from_config({"type": "builtin", "name": "tent"})
    assert m.name == "tent"
    with pytest.raises(MapConfigError):
        cr.map_from_config({"type": "builtin", "name": "nope"})
    with pytest.raises(MapConfigError):
        cr.map_from_config({"type": "spline"})


def test_branch_inverse_consistency(cubic):
    for br in cubic.branches:
        ys = np.linspace(br.image[0] + 1e-9, br.image[1] - 1e-9, 100)
        xs = np.asarray(br.inverse(ys))
        assert np.all((xs >= br.lo - 1e-12) & (xs <= br.hi + 1e-12))
        assert np.allclose(np.clip(cubic.raw_eval(xs), 0, 1), ys, atol=1e-9)


# ---------------------------------------------------------------------------
# closed-form branch inverses against the bisection they replace

image_point = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-6).map(lambda d: 1.0 - d),  # next to the critical value 1
    st.sampled_from([0.0, 1.0, 1e-300, math.nextafter(1.0, 0.0), 0.75]),
)


@pytest.mark.parametrize("name", ["cubic_sample", "logistic"])
@given(ys=st.lists(image_point, min_size=1, max_size=40))
def test_closed_form_inverse_matches_bisection(name, ys):
    m = cr.maps.BUILTIN_MAPS[name]()
    y = np.sort(np.array(ys))
    for br in m.branches:
        assert br.image == (0.0, 1.0)
        x = br.inverse(y)
        assert np.all((x >= br.lo) & (x <= br.hi))
        ref = cr.maps._bisect_inverse(m.raw_eval, br.lo, br.hi, br.increasing)(y)
        err = np.abs(x - ref)
        assert np.all(err <= 2e-8)
        assert np.all(err[np.abs(y - 1.0) > 1e-6] <= 1e-12)
        assert np.all(np.abs(m.raw_eval(x) - y) <= 1e-14)
        step = np.diff(x) if br.increasing else -np.diff(x)
        assert np.all(step >= 0.0)
        assert isinstance(br.inverse(float(y[0])), float)
        ends = (br.lo, br.hi) if br.increasing else (br.hi, br.lo)
        assert abs(br.inverse(0.0) - ends[0]) <= 1e-15
        assert abs(br.inverse(1.0) - ends[1]) <= 1e-15


def test_smooth_builtins_never_bisect(monkeypatch):
    """cubic_sample and logistic refine and solve their density without bisection."""

    def refuse(*args, **kwargs):
        raise AssertionError("bisection used")

    monkeypatch.setattr(cr.maps, "_bisect_inverse", refuse)
    with pytest.raises(AssertionError):
        cr.polynomial_map([0.0, 4.0, -4.0], critical_points=[0.5])
    for m in (cr.cubic_sample_map(), cr.logistic_map()):
        s = cr.SymbolPartition.from_pairs([(0.0, m.branches[0].hi)])
        cr.fp_fixed_point(m, 256, tol=1e-9)
        assert cr.refinement_ladder(m, s, 11)[-1].nonempty_count() == 2**11
