"""One-dimensional chaotic maps on the open unit interval.

A map model bundles the transformation function x -> M(x) with its
decomposition into strictly monotone branches.  Each map declares its
branches once, each with its own inverse, which is what makes exact interval
preimages (and hence symbolic partition refinement) possible: a closed form
for the built-ins and for piecewise-linear maps, bisection for polynomial
configs.  Every inverse lands inside its branch and pulls the image ends back
onto the branch ends exactly, so no caller clips or snaps again.

Built-ins:

* ``cubic_sample`` : M(x) = (3*sqrt(3)/2) * x * (1 - x^2), maximum at 1/sqrt(3)
* ``tent``         : M(x) = 1 - |1 - 2x|
* ``bernoulli``    : M(x) = 2x mod 1
* ``logistic``     : M(x) = 4x(1 - x)

Custom maps come from a JSON config (polynomial coefficients with declared
critical points, or piecewise-linear breakpoint/value lists).
"""
from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: Map outputs are clamped to [EPS, 1-EPS] so the domain stays the open
#: unit interval even at the maximum point where M(x) = 1.
EPS = 1e-15

_BISECT_ITER = 90


class DomainError(ValueError):
    """Argument outside the open unit interval."""


class ArgumentError(ValueError):
    """An argument outside its domain; `param` names its config field."""

    def __init__(self, param: str, reason: str):
        super().__init__(f"{param}: {reason}")
        self.param, self.reason = param, reason


@dataclass(frozen=True)
class Branch:
    """A maximal strictly monotone piece of a map.

    ``increasing`` and ``image`` agree with the map's values at lo and hi
    (its limits from inside the branch, at a jump).
    ``inverse`` maps any point of the branch image back to its preimage.
    Every inverse, closed form, linear or bisection, keeps one contract
    (``_branch``): it lands in [lo, hi], it pulls the image ends back onto
    exactly lo and hi, and it returns a Python float for a scalar and a new
    float array, the caller's to write, for an array.
    ``linear`` marks a branch of constant slope, on which the transfer
    operator is exact on a uniform grid (see ``density.solve_grid``).
    """

    lo: float
    hi: float
    increasing: bool
    inverse: Callable[[np.ndarray | float], np.ndarray | float]
    image: tuple[float, float]
    linear: bool = False


@dataclass(frozen=True, eq=False)
class MapModel:
    """Immutable map on (0,1) with its monotone-branch decomposition.

    ``raw_eval`` is M itself, unclamped.  On a float array it returns the
    array of values; on a Python float it returns a Python float, bit for
    bit the element the array path gives for that x.  The scalar path is
    what a serial chain steps (``bitstream.chain_states``), so it stays free
    of numpy calls.
    """

    name: str
    raw_eval: Callable[[np.ndarray | float], np.ndarray | float]
    branches: tuple[Branch, ...]

    def __call__(self, x):
        """M(x), clamped into [EPS, 1-EPS].

        Accepts scalars or arrays; raises :class:`DomainError` outside (0,1).
        """
        arr = np.asarray(x, dtype=float)
        if np.any((arr <= 0.0) | (arr >= 1.0)):
            raise DomainError(f"map argument outside (0,1): {x!r}")
        y = np.clip(self.raw_eval(arr), EPS, 1.0 - EPS)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(y)
        return y


def preimages(m: MapModel, y: float) -> list[float]:
    """All x in (0,1) with M(x) = y, sorted ascending.

    One candidate per branch whose image contains y; near-duplicate roots
    from branches meeting at a shared extremum are merged.
    """
    if not 0.0 < y < 1.0:
        raise DomainError(f"target outside (0,1): {y!r}")
    roots = sorted(br.inverse(y) for br in m.branches if br.image[0] <= y <= br.image[1])
    out: list[float] = []
    for r in roots:
        if not out or r - out[-1] > 1e-9:
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# Branch construction


def _branch(lo: float, hi: float, g, y_lo: float, y_hi: float, linear: bool = False) -> Branch:
    """The branch of M on [lo, hi] with end values y_lo = M(lo) and y_hi =
    M(hi) (its limits from inside, at a jump), inverted by the array function g.

    Its inverse keeps the contract every ``Branch`` promises: y_lo and y_hi
    pull back to exactly lo and hi, and any other y to g(y) clipped into
    [lo, hi], so the preimages of a set that covers the image tile the branch.
    """
    if y_lo == y_hi:
        raise MapConfigError(f"flat segment on ({lo}, {hi}): map must be strictly monotone per branch")

    def inverse(y):
        if np.ndim(y) == 0:
            return lo if y == y_lo else hi if y == y_hi else float(np.clip(g(np.asarray(y, dtype=float)), lo, hi))
        y = np.asarray(y, dtype=float)
        x = np.clip(g(y), lo, hi)
        x[y == y_lo] = lo
        x[y == y_hi] = hi
        return x

    return Branch(lo, hi, y_hi > y_lo, inverse, (min(y_lo, y_hi), max(y_lo, y_hi)), linear)


def _bisect_inverse(f, lo: float, hi: float, increasing: bool):
    """Derivative-free inverse of a strictly monotone f on [lo, hi], as an
    array function."""

    def g(y):
        a = np.full(y.shape, lo)
        b = np.full(y.shape, hi)
        for _ in range(_BISECT_ITER):
            mid = 0.5 * (a + b)
            go_right = f(mid) < y if increasing else f(mid) > y
            a = np.where(go_right, mid, a)
            b = np.where(go_right, b, mid)
        return 0.5 * (a + b)

    return g


def _linear_branch(x0: float, x1: float, y0: float, y1: float) -> Branch:
    slope_ = (y1 - y0) / (x1 - x0)
    return _branch(x0, x1, lambda y: x0 + (y - y0) / slope_, y0, y1, linear=True)


# ---------------------------------------------------------------------------
# Built-in maps

_XB = 1.0 / math.sqrt(3.0)


def cubic_sample_map() -> MapModel:
    """The cubic map M(x) = (3*sqrt(3)/2) x (1 - x^2): two branches split at 1/sqrt(3).

    With x = (2/sqrt(3)) sin(t) the map is M = sin(3t) (Viete's trigonometric
    cubic root), so the branches invert as t = arcsin(y)/3 and t = (pi - arcsin(y))/3.
    """
    c = 1.5 * math.sqrt(3.0)
    r = 2.0 * _XB

    def f(x):
        return c * x * (1.0 - x * x)

    return MapModel(
        name="cubic_sample",
        raw_eval=f,
        branches=(
            _branch(0.0, _XB, lambda y: r * np.sin(np.arcsin(y) / 3.0), 0.0, 1.0),
            _branch(_XB, 1.0, lambda y: r * np.sin((np.pi - np.arcsin(y)) / 3.0), 1.0, 0.0),
        ),
    )


def tent_map() -> MapModel:
    def f(x):
        return 1.0 - abs(1.0 - 2.0 * x)

    return MapModel(
        name="tent",
        raw_eval=f,
        branches=(_linear_branch(0.0, 0.5, 0.0, 1.0), _linear_branch(0.5, 1.0, 1.0, 0.0)),
    )


def bernoulli_map() -> MapModel:
    """Bernoulli shift 2x mod 1; discontinuous at 1/2, both branches slope 2."""

    def f(x):
        # for x in [0, 1): y - 1 is exact on [1, 2) (Sterbenz), so this is np.mod(y, 1.0)
        y = 2.0 * x
        return y - (y >= 1.0)

    return MapModel(
        name="bernoulli",
        raw_eval=f,
        branches=(_linear_branch(0.0, 0.5, 0.0, 1.0), _linear_branch(0.5, 1.0, 0.0, 1.0)),
    )


def logistic_map() -> MapModel:
    """M(x) = 4x(1 - x), inverted as x = (1 -+ sqrt(1 - y))/2.  The left root is
    written y / (2(1 + sqrt(1 - y))) so that it does not cancel near y = 0."""

    def f(x):
        return 4.0 * x * (1.0 - x)

    return MapModel(
        name="logistic",
        raw_eval=f,
        branches=(
            _branch(0.0, 0.5, lambda y: y / (2.0 * (1.0 + np.sqrt(1.0 - y))), 0.0, 1.0),
            _branch(0.5, 1.0, lambda y: 0.5 * (1.0 + np.sqrt(1.0 - y)), 1.0, 0.0),
        ),
    )


BUILTIN_MAPS: dict[str, Callable[[], MapModel]] = {
    "cubic_sample": cubic_sample_map,
    "tent": tent_map,
    "bernoulli": bernoulli_map,
    "logistic": logistic_map,
}


# ---------------------------------------------------------------------------
# Config-driven construction


class MapConfigError(ValueError):
    """Malformed or unsupported map configuration."""


def _numbers(name: str, values, *, empty: bool = False) -> list[float]:
    """`values` as floats, or MapConfigError unless it is a list of finite
    numbers (a non-empty one unless `empty`)."""
    if isinstance(values, (list, tuple, np.ndarray)) and (empty or len(values) > 0):
        if all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
            try:
                out = [float(v) for v in values]
            except OverflowError:  # an integer beyond the float range
                out = [math.inf]
            if all(map(math.isfinite, out)):
                return out
    kind = "a list" if empty else "a non-empty list"
    raise MapConfigError(f"{name} must be {kind} of finite numbers, got {values!r}")


def _horner(coeffs: list[float]):
    """x -> sum_k coeffs[k] x^k on floats and float arrays: the Horner steps of
    np.polynomial.polynomial.polyval, written out so that a float costs no
    numpy call."""

    def f(x):
        acc = coeffs[-1] + x * 0
        for c in coeffs[-2::-1]:
            acc = c + acc * x
        return acc

    return f


def polynomial_map(coefficients: Sequence[float], critical_points: Sequence[float], name: str = "polynomial") -> MapModel:
    """The polynomial sum_k coefficients[k] x^k, split into monotone branches
    at the declared critical points.

    Raises MapConfigError unless the critical points are distinct and lie in
    (0, 1), the values at the branch ends lie in [0, 1] (up to the 1e-12 that
    the branch images snap), and the polynomial is monotone on every
    declared branch: its values at the branch ends and at the real parts of
    the roots of its derivative inside the branch, in order, never step the
    other way by more than 1e-12.  Together these hold M((0, 1)) in [0, 1].
    """
    coeffs = _numbers("coefficients", coefficients)
    cuts = sorted(_numbers("critical_points", critical_points, empty=True))
    for cp in cuts:
        if not 0.0 < cp < 1.0:
            raise MapConfigError(f"critical point outside (0,1): {cp}")
    if len(set(cuts)) < len(cuts):
        raise MapConfigError(f"critical points repeat: {cuts}")

    f = _horner(coeffs)
    edges = [0.0, *cuts, 1.0]
    for x in edges:
        if not -1e-12 <= f(x) <= 1.0 + 1e-12:
            raise MapConfigError(f"value {f(x)!r} at x = {x} lies outside [0, 1]")
    P = np.polynomial.polynomial
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            stationary = P.polyroots(P.polyder(coeffs)).real.tolist()
    except np.linalg.LinAlgError as e:  # a leading coefficient so small that the companion matrix overflows
        raise MapConfigError(f"cannot find the critical points of {coeffs}: {e}") from e
    branches = []
    for lo, hi in zip(edges, edges[1:]):
        y0, y1 = f(lo), f(hi)
        steps = np.diff([y0, *(f(r) for r in sorted(r for r in stationary if lo < r < hi)), y1])
        if y0 == y1 or (steps.min() < -1e-12 and steps.max() > 1e-12):
            raise MapConfigError(f"not monotone on the branch ({lo}, {hi}); declare every critical point")
        # float evaluation at a critical point can miss an exact extremum of
        # 0 or 1 by a few ulp; snap the end values to the exact bound
        ends = (0.0 if v < 1e-12 else 1.0 if v > 1.0 - 1e-12 else v for v in (y0, y1))
        branches.append(_branch(lo, hi, _bisect_inverse(f, lo, hi, y1 > y0), *ends))
    return MapModel(name, f, tuple(branches))


def piecewise_linear_map(breakpoints: Sequence[float], values: Sequence[float], name: str = "piecewise_linear") -> MapModel:
    """Continuous piecewise-linear map through (breakpoints[i], values[i])."""
    xs = _numbers("breakpoints", breakpoints)
    ys = _numbers("values", values)
    if len(xs) != len(ys) or len(xs) < 2:
        raise MapConfigError("breakpoints and values must be equal-length lists (>= 2 entries)")
    if xs[0] != 0.0 or xs[-1] != 1.0 or any(a >= b for a, b in zip(xs, xs[1:])):
        raise MapConfigError("breakpoints must increase strictly from 0 to 1")
    if any(not 0.0 <= y <= 1.0 for y in ys):
        raise MapConfigError("values must lie in [0,1]")

    xs_arr = np.array(xs)
    ys_arr = np.array(ys)
    slopes = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]

    def f(x):
        if not isinstance(x, float):
            return np.interp(x, xs_arr, ys_arr)
        # np.interp's own steps: the segment x_j <= x < x_{j+1}, y_j on a
        # breakpoint, the end values outside
        j = bisect.bisect_right(xs, x) - 1
        if j < 0:
            return ys[0]
        if j >= len(slopes):
            return ys[-1]
        if x == xs[j]:
            return ys[j]
        return slopes[j] * (x - xs[j]) + ys[j]

    branches = tuple(
        _linear_branch(xs[i], xs[i + 1], ys[i], ys[i + 1]) for i in range(len(xs) - 1)
    )
    return MapModel(
        name=name,
        raw_eval=f,
        branches=branches,
    )


#: the keys each map type reads; a map config holds no others
_MAP_KEYS = {
    "builtin": ("type", "name"),
    "polynomial": ("type", "name", "coefficients", "critical_points"),
    "piecewise_linear": ("type", "name", "breakpoints", "values"),
}


def map_from_config(cfg: dict) -> MapModel:
    """Build a map from its JSON config dict.

    Schema: {"type": "builtin"|"polynomial"|"piecewise_linear",
             "name"/"coefficients"/"breakpoints", "critical_points": [...]}
    """
    kind = cfg.get("type")
    if not isinstance(kind, str) or kind not in _MAP_KEYS:
        raise MapConfigError(f"unknown map type {kind!r}")
    unknown = sorted(set(cfg) - set(_MAP_KEYS[kind]))
    if unknown:
        raise MapConfigError(f"unknown key(s) {unknown} in a {kind} map; want {list(_MAP_KEYS[kind])}")
    name = cfg.get("name", kind)
    if kind == "builtin":
        if not isinstance(name, str) or name not in BUILTIN_MAPS:
            raise MapConfigError(f"unknown builtin map {cfg.get('name')!r}; choose from {sorted(BUILTIN_MAPS)}")
        return BUILTIN_MAPS[name]()
    if not isinstance(name, str):
        raise MapConfigError(f"name must be a string, got {name!r}")
    if kind == "polynomial":
        if "coefficients" not in cfg:
            raise MapConfigError("polynomial map needs 'coefficients'")
        if "critical_points" not in cfg:
            raise MapConfigError("polynomial map needs 'critical_points' (declared, not inferred)")
        return polynomial_map(cfg["coefficients"], cfg["critical_points"], name)
    if "breakpoints" not in cfg or "values" not in cfg:
        raise MapConfigError("piecewise_linear map needs 'breakpoints' and 'values'")
    return piecewise_linear_map(cfg["breakpoints"], cfg["values"], name)
