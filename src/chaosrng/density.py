"""Asymptotic (invariant) density of a map, by two independent routes.

1. Digitized Monte Carlo: iterate the map on an L-point grid with uniform
   dither noise, count visits after a burn-in, and normalize the histogram.
2. Transfer-operator fixed point: evolve a density histogram with the
   pull-back rule f'(y) = sum over preimages x of f(x)/|M'(x)| until it
   stops changing in L1.  It is solved on the map's own grid (see
   :func:`solve_grid`) and read off onto the uniform bins.

Both produce a :class:`DensityHistogram` with the same uniform bins, so their
L1 distance is a built-in cross-check of either route.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import maps as _maps
from .maps import MapModel

RNG_ALGORITHM = "PCG64"

DEFAULT_L = 4096
DEFAULT_K = 4_000_000
DEFAULT_BURN_IN = 10_000
DEFAULT_TOL = 1e-9
#: the Monte Carlo chain grid is MC_GRID_FACTOR * L points (see :func:`mc_density`)
MC_GRID_FACTOR = 16


class ResolutionError(ValueError):
    """Requested resolution is below the method's floor (K must be >> L)."""


class NonConvergenceError(RuntimeError):
    def __init__(self, distance: float, iterations: int):
        super().__init__(
            f"operator iteration did not converge: L1 change {distance:.3e} after {iterations} iterations"
        )
        self.distance = distance
        self.iterations = iterations


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


def _grid_position(grid: str, x, n: int) -> np.ndarray:
    """Bin index plus fraction inside the bin of each x on an n-bin grid."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    if grid == "arcsine":
        x = np.arcsin(np.sqrt(x)) * (2.0 / np.pi)
    return x * n


@dataclass
class DensityHistogram:
    """Grid density: weights[i] approximates f on bin [i/L, (i+1)/L).

    An operator density keeps the grid it was solved on: ``grid_weights``
    holds n times the mass of each of the n bins of ``grid``, and ``weights``
    are read off its cumulative at the uniform edges j/L (pass
    ``weights=None``).  Without ``grid_weights`` the L uniform bins are the
    grid.  Treated as immutable once built (the cumulative table is cached).
    """

    L: int
    weights: np.ndarray | None
    method: str  # "montecarlo" | "fp_operator"
    meta: dict = field(default_factory=dict)
    grid: str = "uniform"
    grid_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.weights is None:
            self.weights = self.L * np.diff(self.cumulative(np.arange(self.L + 1) / self.L))

    def validate(self) -> None:
        if self.weights.shape != (self.L,):
            raise ValueError("weights length must equal L")
        if self.grid not in GRIDS:
            raise ValueError(f"unknown density grid {self.grid!r}")
        for w in (self.weights, self._solve_weights):
            if np.any(w < 0):
                raise ValueError("negative density weight")
            total = w.sum() / w.size
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"density not normalized: integral = {total!r}")

    @property
    def _solve_weights(self) -> np.ndarray:
        return self.weights if self.grid_weights is None else self.grid_weights

    def _cum_table(self) -> np.ndarray:
        cum = getattr(self, "_cum_cache", None)
        if cum is None:
            w = self._solve_weights
            cum = np.concatenate(([0.0], np.cumsum(w / w.size)))
            self._cum_cache = cum
        return cum

    def cumulative(self, x) -> np.ndarray:
        """Integral of the density over (0, x), linear within each bin of the
        grid in that grid's coordinate (x, or theta on the arcsine grid)."""
        cum = self._cum_table()
        w = self._solve_weights
        n = w.size
        pos = _grid_position(self.grid, x, n)
        b = np.minimum(pos.astype(np.int64), n - 1)
        return cum[b] + (pos - b) * (w[b] / n)

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


#: lockstep chains of :func:`mc_density`, a constant so that the output does
#: not depend on the machine; verify's check stream takes as many.  The lanes
#: start from one burned-in lead chain (:func:`lane_states`), so burn-in is
#: paid once and a wider row costs only its own numpy work.  On a 2-core Xeon
#: a verify-size Monte Carlo run (K = 4e6, 65536 chain states) took 0.089 s
#: at 1024 lanes and 0.081-0.083 s at 2048-8192, against 0.10-0.15 s for 256
#: lanes that each paid their own burn-in
_LANES = 4096
#: noise values per draw of every chain sampler: the serial stream's chunks
#: (``bitstream.bit_chunks``), the lead chain's burn-in blocks, and the lane
#: blocks of max(NOISE_BLOCK // lanes, 1) rows (128 KiB of float64 noise).  A
#: serial chunk's Python list and ints cost about 40 bytes a state, so 2^14
#: keeps it near 1 MB; chunks of 2^12 to 2^16 stepped a 2e6-state chain
#: equally fast, within noise
NOISE_BLOCK = 1 << 14
#: largest grid on which :func:`lane_states` steps its lanes by gathering from
#: :func:`scaled_map_table`; finer grids evaluate the map on the lanes.  At
#: 4096 lanes on a 2-core Xeon a gather step took 10-21 us at L = 2^16 and
#: 20-34 us at 2^19, against 36-60 us for an evaluated step, on all four
#: built-in maps; from 2^20 the gather lost on some maps (logistic 45 us
#: against 37 us) and from 2^22 on all, as the table (8 L bytes) outgrows the
#: cache
_GATHER_MAX_L = 1 << 19
#: grid points per map evaluation in :func:`scaled_map_table`; a slice's
#: float64 temporaries (128 KiB each) stay in cache.  A 2^24-point cubic table
#: took 0.25-0.38 s in a fresh process with 2^16-point slices, whose 512 KiB
#: temporaries did not, and 0.15 s with 2^14
_TABLE_CHUNK = 1 << 14


def chain_states(m: MapModel, noise, j0: int, L: int) -> np.ndarray:
    """Run the dithered grid chain j <- clip(floor(L * M(j/L) + u), 1, L).

    Starts at state j0 in 1..L and returns the visited states j_1..j_n (one
    per noise value, j0 excluded) as one int64 array.  Each step evaluates
    the map once, on a Python float (``MapModel.raw_eval``'s scalar path),
    with the float64 operations that :func:`scaled_map_table` performs for
    entry j: x = j/L (1 - EPS at j = L), M(x) clamped into [EPS, 1 - EPS],
    then scaled by L.  So the chain equals one stepped through that table,
    and holds no L-sized array.
    """
    if not 1 <= j0 <= L:
        raise ValueError(f"start state j0={j0} must lie in 1..{L}")
    f = m.raw_eval
    nz = memoryview(np.ascontiguousarray(noise, dtype=np.float64))
    floor = math.floor
    lo, hi = _maps.EPS, 1.0 - _maps.EPS
    # int / int and float * float are CPython's fast paths for j/L and L*y;
    # for L < 2^53 float(L) is exact, so the products are the table's
    Lf = float(L)
    j = int(j0)
    states = []
    append = states.append
    for u in nz:
        y = f(j / L if j < L else hi)
        v = floor(Lf * (lo if y < lo else hi if y > hi else y) + u)
        j = 1 if v < 1 else (L if v > L else v)
        append(j)
    return np.array(states, dtype=np.int64)


def _lane_starts(m: MapModel, L: int, lanes: int, burn_in: int, rng: np.random.Generator) -> np.ndarray:
    """Start states of `lanes` grid chains, fanned out of one lead chain.

    The lead chain starts at a uniform grid state, drawn first, and
    :func:`chain_states` steps it over the next burn_in + lanes - 1 noise
    values of `rng`; its states burn_in .. burn_in + lanes - 1 are returned,
    so lane k starts burn_in + k steps after a uniform start.  The burn-in
    is stepped ``NOISE_BLOCK`` values at a time and only its last state
    kept, so the memory does not grow with `burn_in`; the draws equal one
    uniform(size=burn_in + lanes - 1) draw.
    """
    j = int(rng.integers(1, L + 1))
    for lo in range(0, burn_in - 1, NOISE_BLOCK):
        j = int(chain_states(m, rng.uniform(-1.0, 1.0, size=min(NOISE_BLOCK, burn_in - 1 - lo)), j, L)[-1])
    return chain_states(m, rng.uniform(-1.0, 1.0, size=lanes), j, L)


def lane_states(
    m: MapModel, L: int, lanes: int, rows: int, burn_in: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """`rows` lockstep steps of `lanes` dithered grid chains on L points, as
    (r, lanes) int64 blocks of states in 1..L.

    The chains start at the states burn_in .. burn_in + lanes - 1 of one
    serial lead chain (:func:`_lane_starts`), so every state lies at least
    `burn_in` steps after a uniform start; the lanes are independent given
    those starts, not from the start.  Row r of the blocks, taken in order,
    holds each chain's state r + 1 steps after its start.

    `rng` draws the lead chain's start, then its noise, then the lanes'
    noise one block of ``NOISE_BLOCK`` values (whole rows, at least one) at
    a time, each block's just before its rows are stepped.  Each chain
    equals a :func:`chain_states` run over its own column of the noise.  On
    grids up to ``_GATHER_MAX_L`` a step gathers from
    :func:`scaled_map_table`, built after the lead chain ran; on finer ones
    it evaluates ``m.raw_eval`` once on the array of all lanes with the
    float64 operations of :func:`chain_states`.  Either way the states are
    the same.  A yielded block belongs to the caller, who may overwrite it.
    """
    j = _lane_starts(m, L, lanes, burn_in, rng)
    table = None
    if L <= _GATHER_MAX_L:
        table = scaled_map_table(m, L)
        # its entries lie in (0, L), so table[j] + u lies in (-1, L + 1) and
        # its truncation to int is the clipped floor, except that 0 stands
        # for state 1: table[0] aliases table[1]
        table[0] = table[1]
    lo, hi = _maps.EPS, 1.0 - _maps.EPS
    block = max(NOISE_BLOCK // lanes, 1)
    for r0 in range(0, rows, block):
        noise = rng.uniform(-1.0, 1.0, size=(min(block, rows - r0), lanes))
        states = np.empty(noise.shape, dtype=np.int64)
        for u, row in zip(noise, states):
            if table is None:
                # the map at j/L, and 1 - EPS at j = L, clamped and scaled by L
                y = np.clip(m.raw_eval(np.where(j < L, j / L, hi)), lo, hi)
                y *= L
                u += y
                np.floor(u, out=u)
                np.clip(u, 1, L, out=u)
            else:
                u += table[j]
            row[:] = u
            j = row
        np.maximum(states, 1, out=states)
        # a copy, so that the caller may overwrite the block; the spent noise
        # (u is a view of it) goes before the next block's is drawn
        j = states[-1].copy()
        del noise, u
        yield states


def scaled_map_table(m: MapModel, L: int) -> np.ndarray:
    """table[j] = L * M(j/L) for grid states j = 0..L, the table that
    :func:`lane_states` gathers from on coarse grids; x is EPS at j = 0 and
    1 - EPS at j = L.

    Filled in slices of ``_TABLE_CHUNK`` points, clipped and scaled in place,
    so that the table is the only full-size array; the values are those of
    one vectorized pass.
    """
    table = np.empty(L + 1)
    for lo in range(0, L + 1, _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, L + 1)
        grid = np.arange(lo, hi) / L
        if lo == 0:
            grid[0] = _maps.EPS
        if hi == L + 1:
            grid[-1] = 1.0 - _maps.EPS
        vals = table[lo:hi]
        np.clip(np.asarray(m.raw_eval(grid), dtype=float), _maps.EPS, 1.0 - _maps.EPS, out=vals)
        vals *= L
    return table


def mc_density(
    m: MapModel,
    L: int,
    *,
    seed: int,
    K: int = DEFAULT_K,
    burn_in: int = DEFAULT_BURN_IN,
    grid_factor: int = MC_GRID_FACTOR,
) -> DensityHistogram:
    """Invariant density by dithered grid iteration, as one seeded run.

    ``_LANES`` chains of :func:`lane_states` step in lockstep on the chain
    grid Lc = grid_factor * L, from `burn_in` steps of lead chain.  The K
    counted visits are their ceil(K / _LANES) steps, of which the last
    counts only the first K - (ceil(K / _LANES) - 1) * _LANES chains.  Each
    counted state j goes straight to output bin min(j // grid_factor, L - 1).
    Deterministic for a given seed, in the draw order of :func:`lane_states`.

    The chain grid is finer than the L output bins because, with the two
    equal, map slopes above 2 outrun the +-1-cell dither and leave
    unreachable states (a comb artifact in the histogram); a finer chain grid
    removes it while keeping the same recurrence.
    """
    if L < 64:
        raise ValueError(f"L={L} too small; need at least 64 grid points")
    if K < 100 * L:
        raise ResolutionError(f"K={K} is below the resolution floor 100*L={100 * L}; visit counts need K >> L")
    if burn_in < 1_000:
        raise ValueError(f"burn_in={burn_in} too small; need at least 1000 to pass the transient")
    if grid_factor < 1:
        raise ValueError(f"grid_factor={grid_factor} must be a positive integer")
    # spawned, not SeedSequence(seed) itself: the stream every earlier Monte Carlo output drew from
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    # an array from the first block on, so that it is allocated after the
    # map table and does not add to the peak of the table's build
    counts = 0
    left = K
    for states in lane_states(m, L * grid_factor, _LANES, -(-K // _LANES), burn_in, rng):
        # the first `left` states in row-major order are whole rows, then the
        # last step of the first chains only; each is binned in place
        counted = states.ravel()[:left]
        counted //= grid_factor
        np.minimum(counted, L - 1, out=counted)  # state Lc lies in the top bin
        counts += np.bincount(counted, minlength=L)
        left -= counted.size

    weights = counts * (L / K)
    hist = DensityHistogram(
        L=L,
        weights=weights,
        method="montecarlo",
        meta={"K": K, "burn_in": burn_in, "seed": seed, "rng": RNG_ALGORITHM, "lanes": _LANES},
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
        e = np.clip(edges, ylo, yhi)
        x = np.clip(np.asarray(br.inverse(e), dtype=float), br.lo, br.hi)
        pos = _grid_position(grid, x, n)
        b = np.clip(np.floor(pos).astype(np.int64), 0, n - 1)
        frac = pos - b
        sign = 1.0 if br.increasing else -1.0
        # preimage interval of (0, e) starts at the branch end mapping to y=0
        base = br.lo if br.increasing else br.hi
        bpos = float(_grid_position(grid, base, n))
        bb = min(int(np.floor(bpos)), n - 1)
        terms.append((sign, b, frac, bb, bpos - bb))
    return terms


def _fp_apply(terms: list, w: np.ndarray) -> np.ndarray:
    """Grid weights (n times the bin masses) after one operator step."""
    n = w.size
    masses = w / n
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    phi = np.zeros(n + 1)
    for sign, b, frac, bb, bfrac in terms:
        fx = cum[b] + frac * masses[b]
        fbase = cum[bb] + bfrac * masses[bb]
        phi += sign * (fx - fbase)
    new = np.maximum(np.diff(phi), 0.0)
    total = new.sum()
    if total <= 0:
        raise RuntimeError("transfer step annihilated all mass")
    new *= n / total
    return new


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
    if tol <= 0:
        raise ValueError("tol must be positive")
    if grid_factor < 1:
        raise ValueError("grid_factor must be a positive integer")
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
    of None takes the method's own default."""
    if method == "montecarlo":
        gf = MC_GRID_FACTOR if grid_factor is None else grid_factor
        return mc_density(m, L, seed=seed, K=K, burn_in=burn_in, grid_factor=gf)
    if method == "fp_operator":
        return fp_fixed_point(m, L, tol=tol, grid_factor=1 if grid_factor is None else grid_factor)
    raise ValueError(f"unknown density method {method!r}")
