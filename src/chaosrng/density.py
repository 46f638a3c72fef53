"""Asymptotic (invariant) density of a map, by two independent routes.

1. Digitized Monte Carlo: iterate the map on an L-point grid with uniform
   dither noise, count visits after a burn-in, and normalize the histogram.
2. Transfer-operator fixed point: evolve a density histogram with the
   pull-back rule f'(y) = sum over preimages x of f(x)/|M'(x)| until it
   stops changing in L1.

Both produce a :class:`DensityHistogram` on the same grid, so their L1
distance is a built-in cross-check of either route.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import maps as _maps
from .maps import MapModel

RNG_ALGORITHM = "PCG64"

DEFAULT_L = 4096
DEFAULT_K = 4_000_000
DEFAULT_BURN_IN = 10_000


class ResolutionError(ValueError):
    """Requested resolution is below the method's floor (K must be >> L)."""


class NonConvergenceError(RuntimeError):
    def __init__(self, distance: float, iterations: int):
        super().__init__(
            f"operator iteration did not converge: L1 change {distance:.3e} after {iterations} iterations"
        )
        self.distance = distance
        self.iterations = iterations


@dataclass(frozen=True)
class DitherConfig:
    """Seeding and sample-size parameters for the digitized iteration.

    ``grid_factor`` runs the chain on a grid `grid_factor * L` and
    aggregates visits down to the L output bins.  With the chain grid equal
    to the histogram grid, map slopes above 2 outrun the +-1-cell dither and
    leave unreachable states (a comb artifact in the histogram); a finer
    chain grid removes it while keeping the same recurrence.

    The K counted visits come from many chains stepped in lockstep (see
    :func:`mc_density`); every chain discards its own first ``burn_in``
    states.  The result is deterministic for a given (seed, shards).
    """

    seed: int
    burn_in: int = DEFAULT_BURN_IN
    K: int = DEFAULT_K
    grid_factor: int = 16

    def validate(self, L: int) -> None:
        if self.K < 100 * L:
            raise ResolutionError(
                f"K={self.K} is below the resolution floor 100*L={100 * L}; visit counts need K >> L"
            )
        if self.burn_in < 1_000:
            raise ValueError(f"burn_in={self.burn_in} too small; need at least 1000 to pass the transient")


@dataclass
class DensityHistogram:
    """Grid density: weights[i] approximates f on bin [i/L, (i+1)/L).

    Treated as immutable once built (the cumulative table is cached).
    """

    L: int
    weights: np.ndarray
    method: str  # "montecarlo" | "fp_operator"
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.weights.shape != (self.L,):
            raise ValueError("weights length must equal L")
        if np.any(self.weights < 0):
            raise ValueError("negative density weight")
        total = self.weights.sum() / self.L
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"density not normalized: integral = {total!r}")

    @property
    def bin_masses(self) -> np.ndarray:
        return self.weights / self.L

    def _cum_table(self) -> np.ndarray:
        cum = getattr(self, "_cum_cache", None)
        if cum is None:
            cum = np.concatenate(([0.0], np.cumsum(self.bin_masses)))
            self._cum_cache = cum
        return cum

    def cumulative(self, x) -> np.ndarray:
        """Integral of the density over (0, x), linear within bins."""
        cum = self._cum_table()
        pos = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) * self.L
        b = np.minimum(pos.astype(np.int64), self.L - 1)
        return cum[b] + (pos - b) * self.bin_masses[b]

    def set_mass(self, s) -> float:
        """Integral of the density over an IntervalSet."""
        if s.is_empty:
            return 0.0
        pairs = np.asarray(s.intervals, dtype=float)
        vals = self.cumulative(pairs)
        return float((vals[:, 1] - vals[:, 0]).sum())

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
            **{k: v for k, v in self.meta.items() if k in ("seed", "K", "burn_in", "rng", "iterations", "shards", "lanes")},
        }

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))


def l1_distance(a: DensityHistogram, b: DensityHistogram) -> float:
    """Integral of |f_a - f_b| over (0,1)."""
    if a.L != b.L:
        raise ValueError("histograms live on different grids")
    return float(np.abs(a.weights - b.weights).sum() / a.L)


# ---------------------------------------------------------------------------
# Monte Carlo route


#: states per array yielded by :func:`chain_states`, and noise values per draw
#: in ``bitstream.generate_bits``.  A chunk's Python list and ints cost about
#: 40 bytes a state, so 2^14 keeps the stream's working set near 1 MB; chunks
#: of 2^12 to 2^16 stepped a 2e6-state chain equally fast, within noise
_CHAIN_CHUNK = 1 << 14
#: chains stepped in lockstep per Monte Carlo shard.  Every chain pays its own
#: burn-in, so more lanes cost more steps; on a 2-core Xeon a verify-size run
#: (K = 4e6, 65536 chain states) took 0.15 s at 192-384 lanes and 0.18 s at 768
_LANES = 256
#: lockstep steps per block of noise rows in :func:`mc_density`
_LANE_BLOCK = 64
#: grid points per map evaluation in :func:`scaled_map_table`; a slice's
#: temporaries (512 KiB each) stay in cache, which halves the build time of a
#: 2^24-point table against 2^20-point slices
_TABLE_CHUNK = 1 << 16


def chain_states(table, noise, j0: int, L: int):
    """Run the dithered grid chain j <- clip(floor(table[j] + u), 1, L).

    Yields the visited states j_1..j_n (one per noise value, the start j0
    excluded) as int64 arrays of at most ``_CHAIN_CHUNK`` states.  The loop
    reads both arrays through memoryviews so each step is plain Python float
    and int arithmetic: the same float64 add and floor as a numpy loop, at a
    fraction of the per-element cost.
    """
    tab = memoryview(np.ascontiguousarray(table, dtype=np.float64))
    nz = memoryview(np.ascontiguousarray(noise, dtype=np.float64))
    floor = math.floor
    j = int(j0)
    for lo in range(0, len(nz), _CHAIN_CHUNK):
        states = []
        visit = states.append
        for u in nz[lo : lo + _CHAIN_CHUNK]:
            v = floor(tab[j] + u)
            j = 1 if v < 1 else (L if v > L else v)
            visit(j)
        yield np.array(states, dtype=np.int64)


def scaled_map_table(m: MapModel, L: int) -> np.ndarray:
    """table[j] = L * M(j/L) for grid states j = 0..L (0 only as a start).

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


def mc_density(m: MapModel, L: int, cfg: DitherConfig, shards: int = 1) -> DensityHistogram:
    """Invariant density by dithered grid iteration.

    The visit budget K splits across ``shards`` independently seeded
    sub-runs.  Each sub-run steps B = min(_LANES, K // shards) chains in
    lockstep, one numpy update j <- clip(floor(table[j] + u), 1, Lc) over all
    of them per step.  Every chain starts at its own uniform grid state and
    discards its own first ``burn_in`` states; the k counted visits of a
    sub-run are its next ceil(k / B) steps, of which the last counts only
    the first k - (ceil(k / B) - 1) * B chains.  Deterministic for a given
    (seed, shards); each chain equals a :func:`chain_states` run over its
    own column of the noise.
    """
    if L < 64:
        raise ValueError(f"L={L} too small; need at least 64 grid points")
    cfg.validate(L)
    if not 1 <= shards <= cfg.K:
        raise ValueError(f"shards={shards} must lie in [1, K={cfg.K}]")
    Lc = L * cfg.grid_factor
    table = scaled_map_table(m, Lc)
    # scaled_map_table keeps every entry in (0, Lc), so table[j] + u lies in
    # (-1, Lc + 1) and its truncation to int is the clipped floor, except that
    # 0 stands for state 1.  Chains start at 1..Lc, so table[0] may alias 1.
    table[0] = table[1]
    visits = np.zeros(Lc + 1, dtype=np.int64)  # by chain state; 0 = state 1
    lanes = min(_LANES, cfg.K // shards)

    seeds = np.random.SeedSequence(cfg.seed).spawn(shards)
    per_shard = [cfg.K // shards] * shards
    per_shard[0] += cfg.K - sum(per_shard)
    for seq, k_shard in zip(seeds, per_shard):
        rng = np.random.Generator(np.random.PCG64(seq))
        j = rng.integers(1, Lc + 1, size=lanes)
        steps = cfg.burn_in + -(-k_shard // lanes)
        left = k_shard
        for lo in range(0, steps, _LANE_BLOCK):
            # row r holds step lo + r of every chain: the first `left` counted
            # states in row-major order are whole rows, then the last counted
            # step of the first chains only
            noise = rng.uniform(-1.0, 1.0, size=(min(_LANE_BLOCK, steps - lo), lanes))
            states = np.empty(noise.shape, dtype=np.int64)
            for u, row in zip(noise, states):
                u += table[j]
                row[:] = u
                j = row
            counted = states[max(cfg.burn_in - lo, 0) :].ravel()[:left]
            np.add.at(visits, counted, 1)
            left -= counted.size
    visits[1] += visits[0]

    # chain state j/Lc (j = 1..Lc) falls in output bin floor(j*L/Lc), last
    # state clamped into the top bin
    state_bins = np.minimum((np.arange(1, Lc + 1) * L) // Lc, L - 1)
    counts = np.bincount(state_bins, weights=visits[1:], minlength=L)
    weights = counts * (L / cfg.K)
    hist = DensityHistogram(
        L=L,
        weights=weights,
        method="montecarlo",
        meta={
            "K": cfg.K,
            "burn_in": cfg.burn_in,
            "seed": cfg.seed,
            "rng": RNG_ALGORITHM,
            "shards": shards,
            "lanes": lanes,
        },
    )
    hist.validate()
    return hist


# ---------------------------------------------------------------------------
# Transfer-operator route

def _fp_data(m: MapModel, L: int) -> list:
    """Precompute, per monotone branch, where every bin edge pulls back to.

    For edge e the branch contributes +-(F(g(e)) - F(g(base))), with g the
    branch inverse and F the cumulative of the current density; the sign
    flips on decreasing branches.  Each preimage point is stored as a bin
    index and a fraction inside that bin so F can be read off a cumsum with
    linear interpolation.  Integrating the pull-back rule f(g(e))/|M'(g(e))|
    in closed form this way keeps every bin's new mass equal to the exact
    measure of its preimage under the piecewise-linear density model, so no
    slope stencil or quadrature error enters.
    """
    edges = np.arange(L + 1) / L
    terms = []
    for br in m.branches:
        ylo, yhi = br.image
        e = np.clip(edges, ylo, yhi)
        x = np.clip(np.asarray(br.inverse(e), dtype=float), br.lo, br.hi)
        pos = x * L
        b = np.clip(np.floor(pos).astype(np.int64), 0, L - 1)
        frac = pos - b
        sign = 1.0 if br.increasing else -1.0
        # preimage interval of (0, e) starts at the branch end mapping to y=0
        base = br.lo if br.increasing else br.hi
        bpos = base * L
        bb = min(int(np.floor(bpos)), L - 1)
        terms.append((sign, b, frac, bb, bpos - bb))
    return terms


def fp_step(m: MapModel, f: DensityHistogram) -> DensityHistogram:
    """One application of the density transfer operator, renormalized.

    new mass of bin i = density mass of the preimage M^{-1}([i/L, (i+1)/L)),
    accumulated branch by branch from the cumulative of f.
    """
    f.validate()
    return _fp_apply(_fp_data(m, f.L), f)


def _fp_apply(terms: list, f: DensityHistogram) -> DensityHistogram:
    masses = f.bin_masses
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    phi = np.zeros(f.L + 1)
    for sign, b, frac, bb, bfrac in terms:
        fx = cum[b] + frac * masses[b]
        fbase = cum[bb] + bfrac * masses[bb]
        phi += sign * (fx - fbase)
    new = np.maximum(np.diff(phi), 0.0)
    total = new.sum()
    if total <= 0:
        raise RuntimeError("transfer step annihilated all mass")
    new *= f.L / total
    return DensityHistogram(L=f.L, weights=new, method="fp_operator", meta={"iterations": f.meta.get("iterations", 0) + 1})


def uniform_density(L: int, method: str = "fp_operator") -> DensityHistogram:
    return DensityHistogram(L=L, weights=np.ones(L), method=method, meta={})


def fp_fixed_point(
    m: MapModel,
    L: int,
    tol: float = 1e-9,
    max_iter: int = 2000,
    grid_factor: int = 1,
) -> DensityHistogram:
    """Fixed point of the transfer operator, from the uniform start.

    Iterates until the L1 distance between successive histograms drops
    below `tol`; raises :class:`NonConvergenceError` when max_iter runs out.

    With ``grid_factor`` > 1 the fixed point is solved on a grid
    `grid_factor * L` and bin masses are summed down to L.  Densities with
    integrable singularities (1/sqrt ends) converge slowly in L; solving
    fine and folding recovers most of the lost accuracy at small cost.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if grid_factor < 1:
        raise ValueError("grid_factor must be a positive integer")
    Lf = L * grid_factor
    terms = _fp_data(m, Lf)
    f = uniform_density(Lf)
    dist = np.inf
    for it in range(1, max_iter + 1):
        nxt = _fp_apply(terms, f)
        dist = l1_distance(f, nxt)
        f = nxt
        if dist < tol:
            if grid_factor > 1:
                folded = f.bin_masses.reshape(L, grid_factor).sum(axis=1) * L
                f = DensityHistogram(L=L, weights=folded, method="fp_operator")
            f.meta = {"iterations": it, "l1_change": dist, "tol": tol, "grid_factor": grid_factor}
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
    tol: float = 1e-9,
    max_iter: int = 2000,
    shards: int = 1,
    grid_factor: int | None = None,
) -> DensityHistogram:
    """Dispatch on method name ("montecarlo" | "fp_operator")."""
    if method == "montecarlo":
        cfg = DitherConfig(seed=seed, burn_in=burn_in, K=K, grid_factor=grid_factor or 16)
        return mc_density(m, L, cfg, shards=shards)
    if method == "fp_operator":
        return fp_fixed_point(m, L, tol=tol, max_iter=max_iter, grid_factor=grid_factor or 1)
    raise ValueError(f"unknown density method {method!r}")
