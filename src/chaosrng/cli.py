"""Command-line front end: configs in, density/entropy/stream reports out.

Commands: density, analyze, bitgen, verify.  A single JSON config file
carries the whole run description; every flag overrides one config field.
All JSON outputs embed the sha256 of the resolved config, and CSV outputs
carry it in a leading comment line, so any report traces back to its exact
inputs.  Exit codes: 0 success, 1 analysis failure, 2 config error.
"""
import argparse
import hashlib
import json
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

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
COMMANDS = ("density", "analyze", "bitgen", "verify")
_JSON_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "true or false",
    dict: "an object",
    list: "a list",
    type(None): "null",
}


def _types(hint) -> tuple:
    """The types an annotation admits: (int, NoneType) for `int | None`.

    `hint` is a field's `Field.type`, a type object and not a string because
    this module does not postpone the evaluation of its annotations.
    """
    return typing.get_args(hint) or (hint,)


def _check_type(path: str, value, hint) -> None:
    """Reject a value of a JSON type the field's annotation does not admit.

    An integer is a number; a bool is neither, although Python counts it as both.
    """
    types = _types(hint)
    accepted = types + (int,) if float in types else types
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in types):
        raise ConfigError(f"{path}: need {' or '.join(_JSON_NAMES[t] for t in types)}, got {value!r}")


def _field(
    path: str, default=MISSING, flag: str | None = None, *, commands=COMMANDS, default_factory=MISSING, **argparse_kw
):
    """One row of the config field table.

    `path` is where the field lives in the JSON config ("density.L").
    `flag` is its command-line spelling, offered on `commands`; the flag's
    dest is the field name and its type the field's annotation, and
    `argparse_kw` adds choices and help.  A field without a flag is set
    from the command line only by a flag with its own parsing, in
    `_build_parser` and `_config_from_args`, or not at all.
    """
    meta = {"path": path, "flag": flag, "commands": commands, "argparse": argparse_kw}
    return field(default=default, default_factory=default_factory, metadata=meta)


@dataclass
class AnalysisConfig:
    """Resolved run description; serializes losslessly to/from JSON.

    The fields are the config's one field table: each declares its JSON path,
    its flag and, through its annotation, the JSON types it accepts.
    """

    map: dict = _field("map", default_factory=lambda: {"type": "builtin", "name": "cubic_sample"})
    partition: dict | None = _field("partition", None)  # None = split at the map's first branch end
    method: str = _field("density.method", "fp_operator", "--method", choices=DENSITY_METHODS)
    L: int = _field("density.L", _density.DEFAULT_L, "--L", help="density grid size")
    K: int = _field("density.K", _density.DEFAULT_K, "--K", help="Monte Carlo visit budget")
    burn_in: int = _field("density.burn_in", _density.DEFAULT_BURN_IN, "--burn-in")
    tol: float = _field("density.tol", _density.DEFAULT_TOL, "--tol", help="operator convergence tolerance")
    grid_factor: int | None = _field("density.grid_factor", None, "--grid-factor")
    depth: int = _field("depth", _analysis.DEFAULT_DEPTH, "--depth", help="refinement depth N")
    seed: int = _field("seed", 0, "--seed")
    length: int = _field("length", 1_000_000, "--length", commands=("bitgen",), help="number of bits to generate")
    dither: bool = _field("dither", True)
    stream_grid: int = _field(
        "stream_grid", _bitstream.DEFAULT_STREAM_L, "--stream-grid", commands=("bitgen",), help="dither grid size"
    )
    start: float | None = _field("start", None, "--start", commands=("bitgen",), help="explicit x_0 in (0,1)")
    input_rate: float | None = _field("input_rate", None, "--rate", help="raw bit rate R for the budget")
    out_dir: str = _field("output.directory", ".", "--out-dir")
    formats: list = _field("output.formats", default_factory=lambda: ["csv", "json"])
    # accepted only as null or 1, and without effect, so that command lines passing
    # `--workers 1` still parse
    workers: int | None = _field("workers", None, "--workers", help="accepted only as 1; has no effect")

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisConfig":
        by_path = {tuple(f.metadata["path"].split(".")): f.name for f in fields(cls)}
        sections = {path[0] for path in by_path if len(path) == 2}
        values = {}
        for key, value in raw.items():
            if key in sections:
                if not isinstance(value, dict):
                    raise ConfigError(f"{key}: must be an object")
                items = [((key, k), v) for k, v in value.items()]
            else:
                items = [((key,), value)]
            for path, v in items:
                if path not in by_path:
                    raise ConfigError(f"{'.'.join(path)}: unknown field")
                values[by_path[path]] = v
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            section, _, key = f.metadata["path"].rpartition(".")
            (out.setdefault(section, {}) if section else out)[key] = getattr(self, f.name)
        return out

    def validate(self, command: str | None = None) -> None:
        """Check every field.  The floors on K and burn_in hold only where a Monte
        Carlo density is built: in `verify`, and by method except in `bitgen`."""
        for f in fields(self):
            _check_type(f.metadata["path"], getattr(self, f.name), f.type)
        if self.method not in DENSITY_METHODS:
            raise ConfigError(f"density.method: {self.method!r} not one of {DENSITY_METHODS}")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ConfigError(f"output.formats: {fmt!r} not one of {FORMATS}")
        if self.L < 64:
            raise ConfigError(f"density.L: need an integer >= 64, got {self.L!r}")
        if command == "verify" or (command != "bitgen" and self.method != "fp_operator"):
            if self.K < 100 * self.L:
                raise ConfigError(f"density.K: need an integer >= 100*L = {100 * self.L}, got {self.K!r}")
            if self.burn_in < 1_000:
                raise ConfigError(f"density.burn_in: need >= 1000, got {self.burn_in!r}")
        if not self.tol > 0:
            raise ConfigError(f"density.tol: must be positive, got {self.tol!r}")
        if self.grid_factor is not None and self.grid_factor < 1:
            raise ConfigError(f"density.grid_factor: need a positive integer, got {self.grid_factor!r}")
        if not 1 <= self.depth <= _partition.DEFAULT_MAX_DEPTH:
            raise ConfigError(f"depth: need 1..{_partition.DEFAULT_MAX_DEPTH}, got {self.depth!r}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be non-negative, got {self.seed!r}")
        if self.length < 1:
            raise ConfigError(f"length: must be positive, got {self.length!r}")
        # the bounds generate_bits checks, checked before any work starts
        if self.dither and not 64 <= self.stream_grid <= _bitstream.MAX_STREAM_L:
            raise ConfigError(f"stream_grid: need 64..2^53 for a dithered stream, got {self.stream_grid!r}")
        if self.start is not None and not 0.0 < self.start < 1.0:
            raise ConfigError(f"start: must lie in (0, 1), got {self.start!r}")
        if self.input_rate is not None and not self.input_rate > 0:
            raise ConfigError(f"input_rate: must be positive, got {self.input_rate!r}")
        if self.workers not in (None, 1):
            raise ConfigError(f"workers: only null or 1 is accepted, got {self.workers!r}")
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
    density = _compute_density(cfg, m, method)
    res = _analysis.run_analysis(m, s, cfg.depth, density=density, input_rate=cfg.input_rate)
    report = res.report
    if cfg.method == "both":
        other = _compute_density(cfg, m, "montecarlo")
        report.provenance["l1_cross_method"] = _density.l1_distance(other, density)
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
        m, s, cfg.length, seed=cfg.seed, L=cfg.stream_grid, dither=cfg.dither, start=cfg.start
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
        if bits.size < 100 * 2**N:  # too short for this depth and every deeper one
            break
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
    depth = min(cfg.depth, 8)
    checks = []  # (name, value, tolerance, ok)

    fp = _compute_density(cfg, m, "fp_operator")
    mc = _compute_density(cfg, m, "montecarlo")
    d = _density.l1_distance(mc, fp)
    checks.append(("L1(mc, fp)", d, 0.05, d < 0.05))

    try:
        res_fp = _analysis.run_analysis(m, s, depth, density=fp)
        res_mc = _analysis.run_analysis(m, s, depth, density=mc)
    except _analysis.InvariantViolation:
        res_fp = None
    dh = tv = float("nan")  # nan < tolerance is False: both checks fail
    if res_fp is not None:
        dh = max(abs(a - b) for a, b in zip(res_fp.report.h, res_mc.report.h))
        bits = _bitstream.generate_bits(m, s, max(cfg.length, 1_000_000), seed=cfg.seed, L=1 << 24)
        tv = max(
            _bitstream.total_variation(res_fp.tables[N - 1], _bitstream.empirical_pattern_probs(bits, N))
            for N in range(1, min(depth, 4) + 1)
        )
    checks.append(("max|h_N(mc) - h_N(fp)|", dh, 0.01, dh < 0.01))
    checks.append(("max TV(blocks, stream)", tv, 0.01, tv < 0.01))
    ok = res_fp is not None
    checks.append(("structural invariants", 0.0 if ok else 1.0, 0.0, ok))

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
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file; flags below override its fields")
        p.add_argument("--map", help="builtin map name or path to a map JSON file")
        p.add_argument("--s0", help="S(0) intervals as 'lo:hi[,lo:hi...]', e.g. '0:0.5'")
        p.add_argument("--format", action="append", choices=FORMATS, dest="formats")
        for f in fields(AnalysisConfig):
            if f.metadata["flag"] and command in f.metadata["commands"]:
                p.add_argument(f.metadata["flag"], type=_types(f.type)[0], dest=f.name, **f.metadata["argparse"])
        if command == "bitgen":
            p.add_argument("--no-dither", action="store_true", help="raw float iteration (negative control)")
            p.add_argument("--von-neumann", action="store_true", help="also write the extracted stream")
            p.add_argument("--ascii", action="store_true", help="also write the '01' text format")
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
    if args.formats:
        cfg.formats = list(dict.fromkeys(args.formats))
    if getattr(args, "no_dither", False):
        cfg.dither = False
    for f in fields(cfg):
        value = getattr(args, f.name, None) if f.metadata["flag"] else None
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate(args.command)
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
