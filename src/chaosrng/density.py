"""Asymptotic (invariant) density of a map, by two independent routes.

1. Noisy Monte Carlo: iterate x <- M(x) + sigma*u with small uniform noise,
   reflected into the unit interval, count visits after a burn-in, and
   normalize the histogram.
2. Transfer-operator fixed point: evolve a density histogram with the
   pull-back rule f'(y) = sum over preimages x of f(x)/|M'(x)| until it
   stops changing in L1.  It is solved on the map's own grid (see
   :func:`solve_grid`) and read off onto the uniform bins.

Both produce a :class:`DensityHistogram` with the same uniform bins, so their
L1 distance is a built-in cross-check of either route.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import maps as _maps
from .maps import ArgumentError, MapModel

RNG_ALGORITHM = "PCG64"

DEFAULT_L = 4096
DEFAULT_K = 4_000_000
DEFAULT_BURN_IN = 10_000
DEFAULT_TOL = 1e-9
#: the Monte Carlo noise scale is sigma = 1 / (MC_GRID_FACTOR * L), a cell of a
#: grid that much finer than the L output bins (see :func:`mc_density`)
MC_GRID_FACTOR = 16


class ResolutionError(ArgumentError):
    """Requested resolution is below the method's floor (K must be >> L)."""


class NonConvergenceError(RuntimeError):
    def __init__(self, distance: float, iterations: int):
        super().__init__(
            f"operator iteration did not converge: L1 change {distance:.3e} after {iterations} iterations"
        )
        self.distance = distance
        self.iterations = iterations


def check_arguments(*, L=None, K=None, burn_in=None, tol=None, grid_factor=None) -> None:
    """Raise :class:`ArgumentError` for the first argument outside its domain; None skips a check."""
    if L is not None and L < 64:
        raise ArgumentError("L", f"need an integer >= 64, got {L!r}")
    if K is not None and K < 100 * L:
        raise ResolutionError("K", f"need an integer >= 100*L = {100 * L}, got {K!r}")
    if burn_in is not None and burn_in < 1_000:
        raise ArgumentError("burn_in", f"need >= 1000, got {burn_in!r}")
    if tol is not None and not 0 < tol < np.inf:
        raise ArgumentError("tol", f"must be positive and finite, got {tol!r}")
    if grid_factor is not None and grid_factor < 1:
        raise ArgumentError("grid_factor", f"need a positive integer, got {grid_factor!r}")


#: bin edges of a density grid with n bins: uniform in x ("uniform"), or
#: uniform in theta = (2/pi) arcsin(sqrt(x)), at x_i = sin^2(pi i / 2n) ("arcsine")
GRIDS = ("uniform", "arcsine")


def solve_grid(m: MapModel) -> str:
    """The grid the transfer operator of m is solved on.

    On a map whose branches are all linear, a density that is constant on
    uniform bins stays so, and the uniform grid is exact.  A critical point
    gives the density 1/sqrt singularities at the ends, where uniform bins
    converge like 1/sqrt(L).  In theta the logistic density is exactly
    uniform (the Ulam-von Neumann conjugacy to the tent map) and the others
    are regular at the ends, so every other map is solved on the arcsine grid.
    """
    return "uniform" if all(br.linear for br in m.branches) else "arcsine"


def _grid_edges(grid: str, n: int) -> np.ndarray:
    i = np.arange(n + 1)
    return i / n if grid == "uniform" else np.sin(i * (0.5 * np.pi / n)) ** 2


def _locate(grid: str, x, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin of each x on an n-bin grid, x clipped into [0, 1], and the
    fraction of that bin below x in the grid's coordinate; x = 1 is the
    whole last bin."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    if grid == "arcsine":
        x = np.arcsin(np.sqrt(x)) * (2.0 / np.pi)
    pos = x * n
    b = np.minimum(pos.astype(np.int64), n - 1)
    return b, pos - b


class _Cumulative:
    """F(b, frac) of grid weights w (n times the bin masses): the mass below
    fraction frac of bin b (see :func:`_locate`), linear within each bin.  A
    class, not a closure, so that a histogram that caches one still pickles."""

    def __init__(self, w: np.ndarray):
        self.w = w
        self.cum = np.concatenate(([0.0], np.cumsum(w / w.size)))

    def __call__(self, b, frac):
        # cum[b] + frac * (w[b] / n) in place: the operator's loop keeps no
        # n-array of masses and makes two temporaries a call, not four
        f = self.w[b]
        f /= self.w.size
        f *= frac
        f += self.cum[b]
        return f


@dataclass
class DensityHistogram:
    """Grid density: weights[i] approximates f on bin [i/L, (i+1)/L).

    ``grid_weights`` holds n times the mass of each of the n bins of
    ``grid``, which the cumulative is read from.  An operator density keeps
    the grid it was solved on and reads ``weights`` off it at the uniform
    edges j/L (pass ``weights=None``); one passed without ``grid_weights``,
    as a Monte Carlo histogram is, is its own grid.  Treated as immutable
    once built (the cumulative table is cached).
    """

    L: int
    weights: np.ndarray | None
    method: str  # "montecarlo" | "fp_operator"
    meta: dict = field(default_factory=dict)
    grid: str = "uniform"
    grid_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.grid_weights is None:
            self.grid_weights = self.weights
        if self.weights is None:
            self.weights = self.L * np.diff(self.cumulative(np.arange(self.L + 1) / self.L))

    def validate(self) -> None:
        if self.weights.shape != (self.L,):
            raise ValueError("weights length must equal L")
        if self.grid not in GRIDS:
            raise ValueError(f"unknown density grid {self.grid!r}")
        for w in (self.weights, self.grid_weights):
            if np.any(w < 0):
                raise ValueError("negative density weight")
            total = w.sum() / w.size
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"density not normalized: integral = {total!r}")

    @cached_property
    def _cdf(self):
        return _Cumulative(self.grid_weights)

    def cumulative(self, x) -> np.ndarray:
        """Integral of the density over (0, x) for each x, clipped into
        [0, 1]: linear within each bin of ``grid_weights`` in the grid's
        coordinate (x, or theta on the arcsine grid)."""
        return self._cdf(*_locate(self.grid, x, self.grid_weights.size))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "f"])
            for i, val in enumerate(self.weights):
                w.writerow([f"{(i + 1) / self.L:.12g}", f"{val:.12g}"])

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "method": self.method,
            "weights": self.weights.tolist(),
            **{k: v for k, v in self.meta.items() if k in ("seed", "K", "burn_in", "rng", "iterations", "lanes")},
        }


def l1_distance(a: DensityHistogram, b: DensityHistogram) -> float:
    """Integral of |f_a - f_b| over (0,1)."""
    if a.L != b.L:
        raise ValueError("histograms live on different grids")
    return float(np.abs(a.weights - b.weights).sum() / a.L)


# ---------------------------------------------------------------------------
# Monte Carlo route


#: lockstep chains of both lane samplers, :func:`mc_density` and verify's
#: check stream (``bitstream.generate_bits`` with ``lanes``), a constant so
#: that no output depends on the machine.  Each fans its lanes out of one
#: burned-in lead chain, so burn-in is paid once and a wider row costs only
#: its own numpy work.  On a 2-core Xeon a verify-size cubic Monte Carlo run
#: (K = 4e6) took 0.063 s at 1024 lanes, 0.046 s at 4096 and 0.043 s at
#: 8192, best of 5 rounds that rotate the order of the three lane counts
LANES = 4096
#: noise values per draw of every chain sampler: the grid chain's chunks
#: (``bitstream.bit_chunks`` and the stream lanes' lead chain), the noisy
#: lead chain's blocks, and the lane blocks of max(NOISE_BLOCK // lanes, 1)
#: rows (128 KiB of float64 noise).  A serial chunk's Python list and ints
#: cost about 40 bytes a state, so 2^14 keeps it near 1 MB; chunks of 2^12
#: to 2^16 stepped a 2e6-state chain equally fast, within noise
NOISE_BLOCK = 1 << 14


def uniform_noise(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` with noise uniform on (-1, 1) and return it.

    The same doubles as ``rng.uniform(-1.0, 1.0, size=out.shape)``, which
    computes -1 + 2r from one double r per value as well (2r is exact), and
    `rng` ends in the same state; but drawn into the caller's float64 buffer
    through ``rng.random(out=...)``, numpy's faster path.
    """
    rng.random(out=out)
    out *= 2.0
    out -= 1.0
    return out


def _noisy_lane_starts(m: MapModel, lanes: int, burn_in: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Start states of `lanes` noisy chains (:func:`mc_density`), fanned out
    of one lead chain.

    The lead chain starts at a uniform x, drawn first, and steps over the
    next burn_in + lanes - 1 noise values of `rng` on Python floats; its
    states burn_in .. burn_in + lanes - 1 are returned, so lane k starts
    burn_in + k steps after a uniform start.  The noise is drawn
    ``NOISE_BLOCK`` values at a time and no other state is kept, so the
    memory does not grow with `burn_in`; the draws equal one
    uniform(size=burn_in + lanes - 1) draw.
    """
    f = m.raw_eval
    lo, hi = _maps.EPS, 1.0 - _maps.EPS
    x = rng.uniform()
    starts = np.empty(lanes)
    n = burn_in + lanes - 1
    buf = np.empty(min(NOISE_BLOCK, n))
    for b0 in range(0, n, NOISE_BLOCK):
        noise = uniform_noise(rng, buf[: n - b0])
        for k, u in enumerate(memoryview(noise), b0 + 1 - burn_in):
            y = 1.0 - abs(1.0 - abs(f(x) + sigma * u))
            x = lo if y < lo else hi if y > hi else y
            if k >= 0:
                starts[k] = x
    return starts


def mc_density(
    m: MapModel,
    L: int,
    *,
    seed: int,
    K: int = DEFAULT_K,
    burn_in: int = DEFAULT_BURN_IN,
    grid_factor: int = MC_GRID_FACTOR,
) -> DensityHistogram:
    """Invariant density by noisy iteration, as one seeded run.

    Each chain steps x <- M(x) + sigma * u, with u uniform on (-1, 1) and
    sigma = 1 / (grid_factor * L), reflected into the unit interval
    (y -> |y|, then y -> 1 - |1 - y|) and clamped to [EPS, 1 - EPS].  Small,
    absolutely continuous noise keeps the invariant density stable (Kifer
    1988; Boyarsky and Gora, *Laws of Chaos*, 1997), on maps of any slope.

    ``LANES`` chains step in lockstep in numpy from the last states of one
    lead chain (:func:`_noisy_lane_starts`), the lanes' noise drawn in
    blocks of max(NOISE_BLOCK // LANES, 1) rows.  The K counted visits are
    their ceil(K / LANES) steps, of which the last counts only the first
    K - (ceil(K / LANES) - 1) * LANES chains.  Each counted state x goes to
    bin floor(x * L), which is at most L - 1 because x <= 1 - EPS.  Every
    lane equals a scalar chain over its own column of the noise, and the run
    is deterministic for a given seed.
    """
    check_arguments(L=L, K=K, burn_in=burn_in, grid_factor=grid_factor)
    sigma = 1.0 / (grid_factor * L)
    # spawned, not SeedSequence(seed) itself: the stream every earlier Monte Carlo output drew from
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    x = _noisy_lane_starts(m, LANES, burn_in, sigma, rng)
    lo, hi = _maps.EPS, 1.0 - _maps.EPS
    rows, block = -(-K // LANES), max(NOISE_BLOCK // LANES, 1)
    counts = np.zeros(L, dtype=np.int64)
    left = K
    buf = np.empty((min(block, rows), LANES))
    for r0 in range(0, rows, block):
        # each row of noise is stepped in place into the states it leads to
        states = uniform_noise(rng, buf[: rows - r0])
        states *= sigma
        for y in states:
            y += m.raw_eval(x)
            np.abs(y, out=y)
            np.subtract(1.0, y, out=y)
            np.abs(y, out=y)
            np.subtract(1.0, y, out=y)
            np.maximum(y, lo, out=y)
            np.minimum(y, hi, out=y)
            x = y
        x = states[-1].copy()
        # the first `left` states in row-major order are whole rows, then the
        # last step of the first chains only.  A state lies in [EPS, 1 - EPS],
        # so its bin needs no clamp to L - 1: EPS = 1e-15 > 2^-53, so
        # (1 - EPS) * L rounds below L at every L, and truncates to L - 1 at
        # most
        counted = states.ravel()[:left]
        counted *= L
        counts += np.bincount(counted.astype(np.int64), minlength=L)
        left -= counted.size

    weights = counts * (L / K)
    hist = DensityHistogram(
        L=L,
        weights=weights,
        method="montecarlo",
        meta={"K": K, "burn_in": burn_in, "seed": seed, "rng": RNG_ALGORITHM, "lanes": LANES},
    )
    hist.validate()
    return hist


# ---------------------------------------------------------------------------
# Transfer-operator route

def _fp_data(m: MapModel, grid: str, n: int) -> list:
    """Precompute, per monotone branch, where every edge of the n-bin grid
    pulls back to.

    For edge e the branch contributes +-(F(g(e)) - F(g(base))), with g the
    branch inverse and F the cumulative of the current density; the sign
    flips on decreasing branches.  Each preimage point is stored as a bin
    index and a fraction inside that bin so F can be read off a cumsum with
    linear interpolation in the grid's coordinate.  Integrating the
    pull-back rule f(g(e))/|M'(g(e))| in closed form this way keeps every
    bin's new mass equal to the exact measure of its preimage under the
    piecewise-linear cumulative, so no slope stencil or quadrature error
    enters.
    """
    edges = _grid_edges(grid, n)
    terms = []
    for br in m.branches:
        ylo, yhi = br.image
        sign = 1.0 if br.increasing else -1.0
        # preimage interval of (0, e) starts at the branch end mapping to y=0
        base = br.lo if br.increasing else br.hi
        located = _locate(grid, br.inverse(np.clip(edges, ylo, yhi)), n)
        terms.append((sign, located, _locate(grid, base, n)))
    return terms


def _fp_apply(terms: list, w: np.ndarray) -> np.ndarray:
    """Grid weights (n times the bin masses) after one operator step.

    A Markov step: every branch pulls its image ends back onto its own ends,
    so phi runs from 0 to the total mass, and each bin's mass is the mass of
    its preimage, never negative; nothing is clamped or rescaled.
    """
    F = _Cumulative(w)
    phi = np.zeros(w.size + 1)
    for sign, located, base in terms:
        phi += sign * (F(*located) - F(*base))
    return w.size * np.diff(phi)


def fp_fixed_point(
    m: MapModel,
    L: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = 2000,
    grid_factor: int = 1,
) -> DensityHistogram:
    """Fixed point of the transfer operator, from equal mass in every bin.

    Solved on ``grid_factor * L`` bins of the map's :func:`solve_grid`.
    Iterates until the L1 change between successive iterates, summed over
    those bins, drops below `tol`; raises :class:`NonConvergenceError` when
    max_iter runs out.  The histogram keeps the solve grid for its
    cumulative and reads its L uniform-bin weights off it.
    """
    check_arguments(tol=tol, grid_factor=grid_factor)
    grid = solve_grid(m)
    n = L * grid_factor
    terms = _fp_data(m, grid, n)
    w = np.ones(n)
    dist = np.inf
    for it in range(1, max_iter + 1):
        nxt = _fp_apply(terms, w)
        dist = float(np.abs(w - nxt).sum() / n)
        w = nxt
        if dist < tol:
            meta = {"iterations": it, "l1_change": dist, "tol": tol, "grid_factor": grid_factor}
            f = DensityHistogram(L=L, weights=None, method="fp_operator", meta=meta, grid=grid, grid_weights=w)
            f.validate()
            return f
    raise NonConvergenceError(dist, max_iter)


def density_for(
    m: MapModel,
    method: str,
    L: int = DEFAULT_L,
    *,
    seed: int = 0,
    K: int = DEFAULT_K,
    burn_in: int = DEFAULT_BURN_IN,
    tol: float = DEFAULT_TOL,
    grid_factor: int | None = None,
) -> DensityHistogram:
    """Dispatch on method name ("montecarlo" | "fp_operator"); a `grid_factor`
    of None takes the method's own default.  It sets the Monte Carlo noise
    scale sigma = 1 / (grid_factor * L), and the operator's solve grid of
    grid_factor * L bins."""
    if method == "montecarlo":
        gf = MC_GRID_FACTOR if grid_factor is None else grid_factor
        return mc_density(m, L, seed=seed, K=K, burn_in=burn_in, grid_factor=gf)
    if method == "fp_operator":
        return fp_fixed_point(m, L, tol=tol, grid_factor=1 if grid_factor is None else grid_factor)
    raise ValueError(f"unknown density method {method!r}")
