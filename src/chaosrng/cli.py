"""Command-line front end: configs in, density/entropy/stream reports out.

Commands: density, analyze, bitgen, verify.  A single JSON config file
carries the whole run description; every flag overrides one config field.
All JSON outputs embed the sha256 of the resolved config, and CSV outputs
carry it in a leading comment line, so any report traces back to its exact
inputs.  Exit codes: 0 success, 1 analysis failure, 2 config error.
"""
import argparse
import contextlib
import hashlib
import json
import math
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
_DENSITY_READERS = ("density", "analyze", "verify")  # the commands that build a density
#: bits in verify's check stream
_CHECK_BITS = 1_000_000
L1_GATE = 0.05  # verify's gate on L1(mc, fp)
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


def _field(path: str, flag: str, default=MISSING, *, commands, default_factory=MISSING, parse=None, **argparse_kw):
    """One row of the config field table.

    `path` is where the field lives in the JSON config ("density.L").
    `flag` is its command-line spelling, offered on `commands`, the commands
    that read the field, with the field name as its dest and `argparse_kw`
    (an action, choices, help) added.  A config file may set any field.
    A bool field's flag takes no value and sets the opposite of the default.
    Any other flag's text goes to `parse` where the row names one (a function
    to the field's value that raises ConfigError naming the field), and is
    otherwise converted by argparse to the field's annotated type.
    """
    meta = {"path": path, "flag": flag, "commands": commands, "parse": parse, "argparse": argparse_kw}
    return field(default=default, default_factory=default_factory, metadata=meta)


def _read_json(path: str, name: str):
    """The JSON value in the file at `path`; a file that cannot be read or
    parsed is a ConfigError naming the field `name`."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"{name}: cannot read {path}: {e}") from e
    except ValueError as e:  # not JSON, or not UTF-8 text
        raise ConfigError(f"{name}: {path} is not valid JSON: {e}") from e


def _read_map(text: str) -> dict:
    if text in _maps.BUILTIN_MAPS:
        return {"type": "builtin", "name": text}
    if not Path(text).exists():
        raise ConfigError(f"map: {text!r} is neither a builtin ({sorted(_maps.BUILTIN_MAPS)}) nor a file")
    return _read_json(text, "map")


def _parse_s0(text: str) -> dict:
    pairs = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition(":")
        try:
            pairs.append([float(lo), float(hi)])
        except ValueError as e:
            raise ConfigError(f"partition: cannot parse interval {chunk!r} (want 'lo:hi')") from e
    return {"s0": pairs}


@dataclass
class AnalysisConfig:
    """Resolved run description; serializes losslessly to/from JSON.

    The fields are the config's one field table: each declares its JSON path,
    its flag and, through its annotation, the JSON types it accepts.
    """

    map: dict = _field(
        "map", "--map", default_factory=lambda: {"type": "builtin", "name": "cubic_sample"}, commands=COMMANDS,
        parse=_read_map, help="builtin map name or path to a map JSON file",
    )
    partition: dict | None = _field(
        "partition", "--s0", None, commands=("analyze", "bitgen", "verify"), parse=_parse_s0,
        help="S(0) intervals as 'lo:hi[,lo:hi...]', e.g. '0:0.5'",
    )
    method: str = _field(
        "density.method", "--method", "fp_operator", commands=("density", "analyze"), choices=DENSITY_METHODS
    )
    L: int = _field("density.L", "--L", _density.DEFAULT_L, commands=_DENSITY_READERS, help="density grid size")
    K: int = _field("density.K", "--K", _density.DEFAULT_K, commands=_DENSITY_READERS, help="Monte Carlo visit budget")
    burn_in: int = _field("density.burn_in", "--burn-in", _density.DEFAULT_BURN_IN, commands=_DENSITY_READERS)
    tol: float = _field(
        "density.tol", "--tol", _density.DEFAULT_TOL, commands=_DENSITY_READERS, help="operator convergence tolerance"
    )
    grid_factor: int | None = _field("density.grid_factor", "--grid-factor", None, commands=_DENSITY_READERS)
    depth: int = _field(
        "depth", "--depth", _analysis.DEFAULT_DEPTH, commands=("analyze", "verify"), help="refinement depth N"
    )
    seed: int = _field("seed", "--seed", 0, commands=COMMANDS)
    length: int = _field("length", "--length", 1_000_000, commands=("bitgen",), help="number of bits to generate")
    dither: bool = _field(
        "dither", "--no-dither", True, commands=("bitgen",), help="raw float iteration (negative control)"
    )
    von_neumann: bool = _field(
        "von_neumann", "--von-neumann", False, commands=("bitgen",), help="also write the extracted stream"
    )
    stream_grid: int = _field(
        "stream_grid", "--stream-grid", _bitstream.DEFAULT_STREAM_L, commands=("bitgen",), help="dither grid size"
    )
    start: float | None = _field("start", "--start", None, commands=("bitgen",), help="explicit x_0 in (0,1)")
    input_rate: float | None = _field(
        "input_rate", "--rate", None, commands=("analyze",), help="raw bit rate R for the budget"
    )
    # verify writes no file; it takes the flag because perfbench passes it to
    # every command
    out_dir: str = _field("output.directory", "--out-dir", ".", commands=COMMANDS)
    formats: list = _field(
        "output.formats", "--format", default_factory=lambda: ["csv", "json"], commands=("density", "analyze"),
        parse=lambda texts: list(dict.fromkeys(texts)), action="append", choices=FORMATS,
    )
    ascii: bool = _field("output.ascii", "--ascii", False, commands=("bitgen",), help="also write the '01' text format")
    # accepted only as null or 1, and without effect, so that command lines passing
    # `--workers 1` still parse
    workers: int | None = _field(
        "workers", "--workers", None, commands=COMMANDS, help="accepted only as 1; has no effect"
    )

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisConfig":
        """The config a JSON object describes, not yet validated: flags may
        override its values first."""
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
        return cls(**values)

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            section, _, key = f.metadata["path"].rpartition(".")
            (out.setdefault(section, {}) if section else out)[key] = getattr(self, f.name)
        return out

    def validate(self, command: str | None = None) -> tuple[_maps.MapModel, _partition.SymbolPartition]:
        """Check every field, each one a library function reads through that
        function's own check, and return the map and the partition the config
        describes, built here once.  The floors on K and burn_in hold only where a
        Monte Carlo density is built: in `verify`, and by method except in `bitgen`."""
        for f in fields(self):
            _check_type(f.metadata["path"], getattr(self, f.name), f.type)
        if self.method not in DENSITY_METHODS:
            raise ConfigError(f"density.method: {self.method!r} not one of {DENSITY_METHODS}")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ConfigError(f"output.formats: {fmt!r} not one of {FORMATS}")
        monte_carlo = command == "verify" or (command != "bitgen" and self.method != "fp_operator")
        floors = {"K": self.K, "burn_in": self.burn_in} if monte_carlo else {}
        try:
            _density.check_arguments(L=self.L, tol=self.tol, grid_factor=self.grid_factor, **floors)
            _partition.check_depth(self.depth)
            _bitstream.check_stream(self.length, self.stream_grid, self.dither, self.start)
            _entropy.check_rate(self.input_rate)
        except _maps.ArgumentError as e:
            path = next(f.metadata["path"] for f in fields(self) if f.name == e.param)
            raise ConfigError(f"{path}: {e.reason}") from e
        # verify's L1 gate must clear the sampling error of K visits (README)
        need = math.ceil(((1.2 * math.sqrt(2 * self.L / math.pi) + 4 * math.sqrt(1 - 2 / math.pi)) / L1_GATE) ** 2)
        if command == "verify" and self.K < need:
            raise ConfigError(f"density.K: verify's L1 gate {L1_GATE} needs K >= {need} at L = {self.L}, got {self.K}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be non-negative, got {self.seed!r}")
        if self.workers not in (None, 1):
            raise ConfigError(f"workers: only null or 1 is accepted, got {self.workers!r}")
        try:
            m = _maps.map_from_config(self.map)
        except _maps.MapConfigError as e:
            raise ConfigError(f"map: {e}") from e
        if self.partition is None:
            # default: one bit per monotone branch pair, split where the first
            # branch ends (1/2 for the symmetric built-ins, 1/sqrt(3) for the
            # cubic sample map)
            cut = m.branches[0].hi if len(m.branches) == 2 else 0.5
            return m, _partition.SymbolPartition.from_pairs([(0.0, cut)])
        try:
            return m, _partition.partition_from_config(self.partition)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"partition: {e}") from e

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


def _write_outputs(f, out: Path, stem: str, cfg: AnalysisConfig, cfg_hash: str) -> None:
    """`f` (a density or a report) as the `stem` files of the config's formats."""
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


def cmd_density(cfg: AnalysisConfig, m: _maps.MapModel, s: _partition.SymbolPartition) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = cfg.sha256()
    methods = ["montecarlo", "fp_operator"] if cfg.method == "both" else [cfg.method]
    results = {}
    for method in methods:
        f = _compute_density(cfg, m, method)
        results[method] = f
        _write_outputs(f, out, f"density_{method}", cfg, h)
        print(f"density method={method} map={m.name} L={f.L} files={out}/density_{method}.*")
    if len(results) == 2:
        d = _density.l1_distance(results["montecarlo"], results["fp_operator"])
        print(f"L1(mc, fp) = {d:.6f}")
    return 0


def cmd_analyze(cfg: AnalysisConfig, m: _maps.MapModel, s: _partition.SymbolPartition) -> int:
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
    _write_outputs(report, out, "report", cfg, h)
    line = f"analyze map={m.name} depth={cfg.depth} bias={report.bias:.4f} h_estimate={report.h_estimate:.4f}"
    if report.recommended_rate is not None:
        line += f" R_d={report.recommended_rate:.4g} overhead={report.overhead:.4f}"
    print(line)
    if cfg.method == "both":
        print(f"L1(mc, fp) = {report.provenance['l1_cross_method']:.6f}")
    return 0


def cmd_bitgen(cfg: AnalysisConfig, m: _maps.MapModel, s: _partition.SymbolPartition) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = cfg.sha256()
    # one pass over the stream's chunks; no consumer holds more than a chunk
    patterns, extractor = _bitstream.PatternCounter(4), _bitstream.VonNeumannExtractor()
    vn_ones = 0
    with contextlib.ExitStack() as files:
        writers = [files.enter_context(_bitstream.StreamWriter(out / "stream.bits"))]
        if cfg.ascii:
            writers.append(files.enter_context(_bitstream.AsciiStreamWriter(out / "stream.txt", cfg.length)))
        if cfg.von_neumann:
            vn_writer = files.enter_context(_bitstream.StreamWriter(out / "stream_vn.bits"))
        chunks = _bitstream.bit_chunks(
            m, s, cfg.length, seed=cfg.seed, L=cfg.stream_grid, dither=cfg.dither, start=cfg.start
        )
        for chunk in chunks:
            for w in writers:
                w.write(chunk)
            patterns.update(chunk)
            if cfg.von_neumann:
                vn = extractor.update(chunk)
                vn_writer.write(vn)
                vn_ones += int(vn.sum())
    n = writers[0].n_bits
    summary = {
        "map": m.name,
        "length": n,
        "monobit_frequency": int(patterns.counts(1)[1]) / n,
        "patterns": {},
    }
    print(f"bitgen map={m.name} bits={n} monobit(ones)={summary['monobit_frequency']:.4f}")
    for N in range(1, 5):
        try:
            probs = patterns.table(N).probs
        except _bitstream.InsufficientDataError:  # too short for this depth and every deeper one
            break
        summary["patterns"][str(N)] = probs
        row = "  ".join(f"P({w})={v:.4f}" for w, v in probs.items())
        print(f"N={N}: {row}")
    if cfg.von_neumann:
        n_vn = vn_writer.n_bits
        ratio = n_vn / n
        summary["von_neumann"] = {
            "output_bits": n_vn,
            "ratio": ratio,
            "monobit_frequency": vn_ones / n_vn if n_vn else None,
        }
        print(f"von neumann: {n_vn} bits out, ratio = {ratio:.4f}")
    _write_json(out / "bitgen_summary.json", summary, h)
    return 0


def cmd_verify(cfg: AnalysisConfig, m: _maps.MapModel, s: _partition.SymbolPartition) -> int:
    depth = min(cfg.depth, 8)
    checks = []  # (name, value, tolerance, ok)

    fp = _compute_density(cfg, m, "fp_operator")
    mc = _compute_density(cfg, m, "montecarlo")
    d = _density.l1_distance(mc, fp)
    checks.append(("L1(mc, fp)", d, L1_GATE, d < L1_GATE))

    try:
        res_fp = _analysis.run_analysis(m, s, depth, density=fp)
        res_mc = _analysis.run_analysis(m, s, depth, density=mc)
    except _analysis.InvariantViolation:
        res_fp = None
    dh = tv = float("nan")  # nan < tolerance is False: both checks fail
    if res_fp is not None:
        dh = max(abs(a - b) for a, b in zip(res_fp.report.h, res_mc.report.h))
        # samples of the generator's word law: short lane chains, each read down its own column
        lanes = _density.LANES
        block = _bitstream.generate_bits(m, s, -(-_CHECK_BITS // lanes), seed=cfg.seed, L=1 << 24, lanes=lanes)
        # one count, at the deepest checked depth: the TV of two word laws
        # bounds the TV of their marginals, the shorter word laws (data
        # processing).  It holds up to each lane's last D - N windows, which a
        # depth-N count adds: a share (D - N) / (rows - N + 1) of its windows, drawn
        # from the same law, so negligible against the 0.01 tolerance.
        D = min(depth, 4)
        tv = _bitstream.total_variation(res_fp.tables[D - 1], _bitstream.empirical_pattern_probs(block, D))
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


RUNNERS = {"density": cmd_density, "analyze": cmd_analyze, "bitgen": cmd_bitgen, "verify": cmd_verify}


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
        for f in fields(AnalysisConfig):
            if command in f.metadata["commands"]:
                kw = f.metadata["argparse"]
                if f.type is bool:
                    kw = {"action": "store_const", "const": not f.default, **kw}
                elif not f.metadata["parse"]:
                    kw = {"type": _types(f.type)[0], **kw}
                p.add_argument(f.metadata["flag"], dest=f.name, **kw)
    return parser


def _config_from_args(argv) -> tuple[str, AnalysisConfig]:
    """The command that `argv` names, and its config: the file's fields with
    the flags' values over them, not yet validated."""
    args = _build_parser().parse_args(argv)
    raw = _read_json(args.config, "config") if args.config else {}
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    # validated once, after the flags: a flag may mend a value of the file
    cfg = AnalysisConfig.from_dict(raw)
    for f in fields(cfg):
        value = getattr(args, f.name, None)  # None: flag absent, or not offered on this command
        if value is not None:
            parse = f.metadata["parse"]
            setattr(cfg, f.name, parse(value) if parse else value)
    return args.command, cfg


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
    try:
        command, cfg = _config_from_args(argv)
        m, s = cfg.validate(command)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        return RUNNERS[command](cfg, m, s)
    except ANALYSIS_ERRORS as e:
        print(f"analysis failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
