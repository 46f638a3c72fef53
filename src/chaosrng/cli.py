"""Command-line front end: configs in, density/entropy/stream reports out.

Commands: density, analyze, bitgen, verify.  A single JSON config file
carries the whole run description; every flag overrides one config field.
All JSON outputs embed the sha256 of the resolved config, and CSV outputs
carry it in a leading comment line, so any report traces back to its exact
inputs.  Exit codes: 0 success, 1 analysis failure, 2 config error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis as _analysis
from . import bitstream as _bitstream
from . import density as _density
from . import entropy as _entropy
from . import maps as _maps
from . import partition as _partition


class ConfigError(ValueError):
    """Invalid config; the message names the offending field."""


DENSITY_METHODS = ("montecarlo", "fp_operator", "both")
FORMATS = ("csv", "json")


@dataclass
class AnalysisConfig:
    """Resolved run description; serializes losslessly to/from JSON."""

    map: dict = field(default_factory=lambda: {"type": "builtin", "name": "cubic_sample"})
    partition: dict | None = None  # None = split at the map's first branch end
    method: str = "fp_operator"
    L: int = _density.DEFAULT_L
    K: int = _density.DEFAULT_K
    burn_in: int = _density.DEFAULT_BURN_IN
    tol: float = 1e-9
    grid_factor: int | None = None
    depth: int = _analysis.DEFAULT_DEPTH
    seed: int = 0
    length: int = 1_000_000
    dither: bool = True
    stream_grid: int = _bitstream.DEFAULT_STREAM_L
    start: float | None = None
    input_rate: float | None = None
    out_dir: str = "."
    formats: list = field(default_factory=lambda: ["csv", "json"])
    workers: int | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisConfig":
        cfg = cls()
        density_section = raw.pop("density", None)
        output_section = raw.pop("output", None)
        if density_section is not None:
            if not isinstance(density_section, dict):
                raise ConfigError("density: must be an object")
            for k, v in density_section.items():
                if k == "method":
                    cfg.method = v
                elif k in ("L", "K", "burn_in", "tol", "grid_factor"):
                    setattr(cfg, k, v)
                else:
                    raise ConfigError(f"density.{k}: unknown field")
        if output_section is not None:
            if not isinstance(output_section, dict):
                raise ConfigError("output: must be an object")
            for k, v in output_section.items():
                if k == "directory":
                    cfg.out_dir = v
                elif k == "formats":
                    cfg.formats = list(v)
                else:
                    raise ConfigError(f"output.{k}: unknown field")
        for k, v in raw.items():
            if not hasattr(cfg, k) or k in ("out_dir", "formats"):
                raise ConfigError(f"{k}: unknown field")
            setattr(cfg, k, v)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "map": self.map,
            "partition": self.partition,
            "density": {
                "method": self.method,
                "L": self.L,
                "K": self.K,
                "burn_in": self.burn_in,
                "tol": self.tol,
                "grid_factor": self.grid_factor,
            },
            "depth": self.depth,
            "seed": self.seed,
            "length": self.length,
            "dither": self.dither,
            "stream_grid": self.stream_grid,
            "start": self.start,
            "input_rate": self.input_rate,
            "output": {"directory": self.out_dir, "formats": self.formats},
            "workers": self.workers,
        }

    def validate(self) -> None:
        if self.method not in DENSITY_METHODS:
            raise ConfigError(f"density.method: {self.method!r} not one of {DENSITY_METHODS}")
        for f in self.formats:
            if f not in FORMATS:
                raise ConfigError(f"output.formats: {f!r} not one of {FORMATS}")
        if not isinstance(self.L, int) or self.L < 64:
            raise ConfigError(f"density.L: need an integer >= 64, got {self.L!r}")
        if not isinstance(self.K, int) or self.K < 100 * self.L:
            raise ConfigError(f"density.K: need an integer >= 100*L = {100 * self.L}, got {self.K!r}")
        if self.burn_in < 1_000:
            raise ConfigError(f"density.burn_in: need >= 1000, got {self.burn_in!r}")
        if not self.tol > 0:
            raise ConfigError(f"density.tol: must be positive, got {self.tol!r}")
        if self.grid_factor is not None and (not isinstance(self.grid_factor, int) or self.grid_factor < 1):
            raise ConfigError(f"density.grid_factor: need a positive integer, got {self.grid_factor!r}")
        if not 1 <= self.depth <= _partition.DEFAULT_MAX_DEPTH:
            raise ConfigError(f"depth: need 1..{_partition.DEFAULT_MAX_DEPTH}, got {self.depth!r}")
        if self.length < 1:
            raise ConfigError(f"length: must be positive, got {self.length!r}")
        if self.input_rate is not None and not self.input_rate > 0:
            raise ConfigError(f"input_rate: must be positive, got {self.input_rate!r}")
        if self.workers is not None and (not isinstance(self.workers, int) or not 1 <= self.workers <= self.K):
            raise ConfigError(f"workers: need an integer in [1, K = {self.K}], got {self.workers!r}")
        try:
            _maps.map_from_config(self.map)
        except _maps.MapConfigError as e:
            raise ConfigError(f"map: {e}") from e
        if self.partition is not None:
            try:
                _partition.partition_from_config(self.partition)
            except (ValueError, TypeError) as e:
                raise ConfigError(f"partition: {e}") from e

    # resolved objects -----------------------------------------------------

    def build_map(self) -> _maps.MapModel:
        return _maps.map_from_config(self.map)

    def build_partition(self, m: _maps.MapModel) -> _partition.SymbolPartition:
        if self.partition is not None:
            return _partition.partition_from_config(self.partition)
        # default: one bit per monotone branch pair, split where the first
        # branch ends (1/2 for the symmetric built-ins, 1/sqrt(3) for the
        # cubic sample map)
        cut = m.branches[0].hi if len(m.branches) == 2 else 0.5
        return _partition.SymbolPartition.from_pairs([(0.0, cut)])

    def sha256(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def shards(self) -> int:
        # a fixed default, so the Monte Carlo output never depends on the host
        return self.workers if self.workers is not None else 1


# ---------------------------------------------------------------------------
# output helpers


def _stamp_csv(path: Path, cfg_hash: str) -> None:
    body = path.read_text()
    path.write_text(f"# config={cfg_hash}\n{body}")


def _write_json(path: Path, payload: dict, cfg_hash: str) -> None:
    payload = dict(payload)
    payload["config_sha256"] = cfg_hash
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _density_outputs(f, out: Path, stem: str, cfg: AnalysisConfig, cfg_hash: str) -> None:
    if "csv" in cfg.formats:
        p = out / f"{stem}.csv"
        f.to_csv(p)
        _stamp_csv(p, cfg_hash)
    if "json" in cfg.formats:
        _write_json(out / f"{stem}.json", f.to_dict(), cfg_hash)


def _compute_density(cfg: AnalysisConfig, m: _maps.MapModel, method: str):
    return _density.density_for(
        m,
        method,
        cfg.L,
        seed=cfg.seed,
        K=cfg.K,
        burn_in=cfg.burn_in,
        tol=cfg.tol,
        shards=cfg.shards() if method == "montecarlo" else 1,
        grid_factor=cfg.grid_factor,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_density(cfg: AnalysisConfig) -> int:
    m = cfg.build_map()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = cfg.sha256()
    methods = ["montecarlo", "fp_operator"] if cfg.method == "both" else [cfg.method]
    results = {}
    for method in methods:
        f = _compute_density(cfg, m, method)
        results[method] = f
        _density_outputs(f, out, f"density_{method}", cfg, h)
        print(f"density method={method} map={m.name} L={f.L} files={out}/density_{method}.*")
    if len(results) == 2:
        d = _density.l1_distance(results["montecarlo"], results["fp_operator"])
        print(f"L1(mc, fp) = {d:.6f}")
    return 0


def cmd_analyze(cfg: AnalysisConfig) -> int:
    m = cfg.build_map()
    s = cfg.build_partition(m)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = cfg.sha256()
    method = "fp_operator" if cfg.method == "both" else cfg.method
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = _analysis.run_analysis(
            m,
            s,
            cfg.depth,
            method=method,
            L=cfg.L,
            seed=cfg.seed,
            K=cfg.K,
            burn_in=cfg.burn_in,
            tol=cfg.tol,
            input_rate=cfg.input_rate,
            shards=cfg.shards() if method == "montecarlo" else 1,
            grid_factor=cfg.grid_factor,
        )
    report = res.report
    if cfg.method == "both":
        other = _compute_density(cfg, m, "montecarlo")
        report.provenance["l1_cross_method"] = _density.l1_distance(other, res.density)
    if "csv" in cfg.formats:
        p = out / "report.csv"
        report.to_csv(p)
        _stamp_csv(p, h)
    if "json" in cfg.formats:
        _write_json(out / "report.json", report.to_dict(), h)
    line = f"analyze map={m.name} depth={cfg.depth} bias={report.bias:.4f} h_estimate={report.h_estimate:.4f}"
    if report.recommended_rate is not None:
        line += f" R_d={report.recommended_rate:.4g} overhead={report.overhead:.4f}"
    print(line)
    if cfg.method == "both":
        print(f"L1(mc, fp) = {report.provenance['l1_cross_method']:.6f}")
    return 0


def cmd_bitgen(cfg: AnalysisConfig, von_neumann: bool, ascii_out: bool) -> int:
    m = cfg.build_map()
    s = cfg.build_partition(m)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = cfg.sha256()
    bits = _bitstream.generate_bits(
        m,
        s,
        _bitstream.BitstreamConfig(
            seed=cfg.seed, length=cfg.length, dither=cfg.dither, L=cfg.stream_grid, start=cfg.start
        ),
    )
    _bitstream.write_stream(out / "stream.bits", bits)
    if ascii_out:
        _bitstream.write_stream_ascii(out / "stream.txt", bits)
    summary = {
        "map": m.name,
        "length": int(bits.size),
        "monobit_frequency": _bitstream.monobit_frequency(bits),
        "patterns": {},
    }
    print(f"bitgen map={m.name} bits={bits.size} monobit(ones)={summary['monobit_frequency']:.4f}")
    for N in range(1, 5):
        probs = _bitstream.empirical_pattern_probs(bits, N).probs
        summary["patterns"][str(N)] = probs
        row = "  ".join(f"P({w})={v:.4f}" for w, v in probs.items())
        print(f"N={N}: {row}")
    if von_neumann:
        vn = _bitstream.von_neumann_extract(bits)
        _bitstream.write_stream(out / "stream_vn.bits", vn)
        ratio = vn.size / bits.size
        summary["von_neumann"] = {
            "output_bits": int(vn.size),
            "ratio": ratio,
            "monobit_frequency": _bitstream.monobit_frequency(vn) if vn.size else None,
        }
        print(f"von neumann: {vn.size} bits out, ratio = {ratio:.4f}")
    _write_json(out / "bitgen_summary.json", summary, h)
    return 0


def cmd_verify(cfg: AnalysisConfig) -> int:
    m = cfg.build_map()
    s = cfg.build_partition(m)
    checks = []  # (name, value, tolerance, ok)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fp = _compute_density(cfg, m, "fp_operator")
        mc = _compute_density(cfg, m, "montecarlo")
        d = _density.l1_distance(mc, fp)
        checks.append(("L1(mc, fp)", d, 0.05, d < 0.05))

        depth = min(cfg.depth, 8)
        ladder = _partition.refinement_ladder(m, s, depth)
        tables_fp = [_entropy.block_probabilities(p, fp) for p in ladder]
        tables_mc = [_entropy.block_probabilities(p, mc) for p in ladder]
        h_fp = _entropy.per_bit_entropies([_entropy.block_entropy(t) for t in tables_fp])
        h_mc = _entropy.per_bit_entropies([_entropy.block_entropy(t) for t in tables_mc])
        dh = max(abs(a - b) for a, b in zip(h_fp, h_mc))
        checks.append(("max|h_N(mc) - h_N(fp)|", dh, 0.01, dh < 0.01))

        bits = _bitstream.generate_bits(
            m, s, _bitstream.BitstreamConfig(seed=cfg.seed, length=max(cfg.length, 1_000_000), L=1 << 24)
        )
        tv = max(
            _bitstream.total_variation(tables_fp[N - 1], _bitstream.empirical_pattern_probs(bits, N))
            for N in range(1, min(depth, 4) + 1)
        )
        checks.append(("max TV(blocks, stream)", tv, 0.01, tv < 0.01))

        try:
            H = [_entropy.block_entropy(t) for t in tables_fp]
            report = _entropy.EntropyReport(
                H=H,
                h=h_fp,
                h_estimate=h_fp[-1],
                spread=0.0,
                bias=_entropy.bias(tables_fp[0]),
                tables=tables_fp,
            )
            _analysis.check_invariants(m, ladder, tables_fp, report)
            checks.append(("structural invariants", 0.0, 0.0, True))
        except AssertionError:
            checks.append(("structural invariants", 1.0, 0.0, False))

    width = max(len(n) for n, *_ in checks)
    failed = False
    for name, value, tolerance, ok in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  value={value:.6f}  tolerance={tolerance:g}  {status}")
        failed = failed or not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaosrng",
        description="Entropy and invariant-density analyzer for chaos-based random bit generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags below override its fields")
        p.add_argument("--map", help="builtin map name or path to a map JSON file")
        p.add_argument("--s0", help="S(0) intervals as 'lo:hi[,lo:hi...]', e.g. '0:0.5'")
        p.add_argument("--method", choices=DENSITY_METHODS)
        p.add_argument("--L", type=int, help="density grid size")
        p.add_argument("--K", type=int, help="Monte Carlo visit budget")
        p.add_argument("--burn-in", type=int, dest="burn_in")
        p.add_argument("--tol", type=float, help="operator convergence tolerance")
        p.add_argument("--grid-factor", type=int, dest="grid_factor")
        p.add_argument("--depth", type=int, help="refinement depth N")
        p.add_argument("--seed", type=int)
        p.add_argument("--rate", type=float, dest="input_rate", help="raw bit rate R for the budget")
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--format", action="append", choices=FORMATS, dest="formats")
        p.add_argument(
            "--workers",
            type=int,
            help="Monte Carlo shard count (default 1); shards run one after another",
        )

    for name in ("density", "analyze", "verify"):
        common(sub.add_parser(name))
    bg = sub.add_parser("bitgen")
    common(bg)
    bg.add_argument("--length", type=int, help="number of bits to generate")
    bg.add_argument("--no-dither", action="store_true", help="raw float iteration (negative control)")
    bg.add_argument("--stream-grid", type=int, dest="stream_grid", help="dither grid size")
    bg.add_argument("--start", type=float, help="explicit x_0 in (0,1)")
    bg.add_argument("--von-neumann", action="store_true", help="also write the extracted stream")
    bg.add_argument("--ascii", action="store_true", help="also write the '01' text format")
    return parser


def _parse_s0(text: str) -> dict:
    pairs = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition(":")
        try:
            pairs.append([float(lo), float(hi)])
        except ValueError as e:
            raise ConfigError(f"partition: cannot parse interval {chunk!r} (want 'lo:hi')") from e
    return {"s0": pairs}


def _config_from_args(args: argparse.Namespace) -> AnalysisConfig:
    raw: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as e:
            raise ConfigError(f"config: cannot read {args.config}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config: {args.config} is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
    cfg = AnalysisConfig.from_dict(raw)

    if args.map:
        if args.map in _maps.BUILTIN_MAPS:
            cfg.map = {"type": "builtin", "name": args.map}
        elif Path(args.map).exists():
            try:
                cfg.map = json.loads(Path(args.map).read_text())
            except json.JSONDecodeError as e:
                raise ConfigError(f"map: {args.map} is not valid JSON: {e}") from e
        else:
            raise ConfigError(
                f"map: {args.map!r} is neither a builtin ({sorted(_maps.BUILTIN_MAPS)}) nor a file"
            )
    if args.s0:
        cfg.partition = _parse_s0(args.s0)
    for name in ("method", "L", "K", "burn_in", "tol", "grid_factor", "depth", "seed", "input_rate", "out_dir", "workers"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if getattr(args, "formats", None):
        cfg.formats = list(dict.fromkeys(args.formats))
    if getattr(args, "length", None) is not None:
        cfg.length = args.length
    if getattr(args, "no_dither", False):
        cfg.dither = False
    if getattr(args, "stream_grid", None) is not None:
        cfg.stream_grid = args.stream_grid
    if getattr(args, "start", None) is not None:
        cfg.start = args.start
    cfg.validate()
    return cfg


ANALYSIS_ERRORS = (
    _density.NonConvergenceError,
    _density.ResolutionError,
    _entropy.AccuracyError,
    _entropy.TableError,
    _partition.RefinementError,
    _bitstream.InsufficientDataError,
    _maps.DomainError,
    AssertionError,
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command == "density":
            return cmd_density(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "bitgen":
            return cmd_bitgen(cfg, args.von_neumann, args.ascii)
        if args.command == "verify":
            return cmd_verify(cfg)
    except ANALYSIS_ERRORS as e:
        print(f"analysis failure: {e}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
