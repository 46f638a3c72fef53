"""chaosrng benchmark: the CLI commands users run, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the WORKLOADS below, or ``all`` to run each in turn.  Run it
from the root of a source tree; the program is used straight from ``src/``.

A closed loop with one client: each operation is one ``chaosrng`` command in
a fresh child interpreter, started only after the previous one ended, so a
run keeps one of the machine's cores busy.  Fresh processes are deliberate: a
CLI user pays the imports on every run, peak memory is only meaningful per
command, and ``density._fp_cache`` is keyed by ``id(map)``, so a reused
process could hand one command another command's operator data.

``--trace 0`` repeats the workload's operations until ``--seconds`` have
passed, at least once, and reports the end-to-end metrics.  ``--trace 1``
runs the operations once untraced, then once more in a single traced process
(traced.py), and reports the per-layer metrics; the difference between the
two is the tracing overhead.  Every operation's outputs are checked against
the published landmarks and hashed; a hash that differs from an earlier run
of the same source with the same seed fails the operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those listed in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans as sp
from checks import Check, check_analyze, check_bitgen, check_verify, digest_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_REL = ".perfbench_out"
OUT = ROOT / OUT_REL
DEADLINE_S = 170.0  # a run must end within 180 s

MAPS = ("cubic_sample", "tent", "bernoulli", "logistic")
COVERAGE_FLOOR = 0.005  # see report_trace


@dataclass(frozen=True)
class Op:
    name: str
    args: tuple[str, ...]

    @property
    def out_rel(self) -> str:
        # relative, because the output directory is part of the hashed config
        return f"{OUT_REL}/work/{self.name}"

    def argv(self, seed: int) -> list[str]:
        # --workers 1: the default shard count is os.cpu_count(), and it
        # changes the Monte Carlo output
        return [*self.args, "--seed", str(seed), "--workers", "1", "--out-dir", self.out_rel]


def _analyze(depth: int) -> list[Op]:
    return [Op("analyze", ("analyze", "--map", "cubic_sample", "--depth", str(depth), "--L", "16384",
                           "--tol", "1e-11", "--rate", "1e6"))]


def _bitgen(length: int) -> list[Op]:
    return [Op("bitgen", ("bitgen", "--map", "cubic_sample", "--length", str(length),
                          "--stream-grid", "16777216", "--von-neumann"))]


WORKLOADS = {
    # The paper's headline answer (h, R_d) at acceptance-4 accuracy; almost
    # all of it is the refinement ladder and its branch inverses.  Depth 11
    # takes about 4 s, so a run holds several commands and reports their
    # median; one 30 s depth-14 command per run spread too widely on a
    # shared machine (see README.md).
    "analyze-d11": _analyze(11),
    # The stream kernel over a 2^24-point table, pattern counting and Von
    # Neumann extraction; no refinement, no density.  2e6 bits: about 4 s.
    "bitgen-2e6": _bitgen(2_000_000),
    # Monte Carlo density, depth-8 tables with both densities and a short
    # stream against an equally large table, on bisection-inverse (smooth)
    # and closed-form (piecewise-linear) maps; `verify` at its default sizes.
    "verify-4maps": [Op(f"verify-{m}", ("verify", "--map", m)) for m in MAPS],
    # The paper-size commands: acceptance 4's depth and acceptance 9's
    # stream length.  Not in BENCHMARK.json: one command takes 15-35 s.
    "analyze-d14": _analyze(14),
    "bitgen-1e7": _bitgen(10_000_000),
}

# name -> unit of every end-to-end metric printed; BENCHMARK.json lists the
# ones that exist on every workload and are never zero
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "1",
    "raw_bits_per_s": "bits/s",
    "landmark_dev": "1",
    "l1_mc_fp_max": "1",
    "tv_stream_max": "1",
}


@dataclass
class OpResult:
    op: Op
    exit_code: int | None
    setup_s: float = float("nan")
    wall_s: float = float("nan")
    cpu_s: float = float("nan")
    rss_mb: float = float("nan")
    checks: list[Check] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    @property
    def timed(self) -> bool:
        """The child ran to the end and wrote its timing record."""
        return not math.isnan(self.wall_s)

    @property
    def failed(self) -> bool:
        return not self.checks or any(not c.ok for c in self.checks)

    @property
    def unexpected(self) -> bool:
        """Failed for a reason other than a known defect."""
        return not self.checks or any(not c.ok and not c.known_defect for c in self.checks)


# ---------------------------------------------------------------------------
# environment and determinism ledger


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "none (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none (git unavailable)"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "src_sha256": _src_digest(),
        "seed": seed,
    }


class Ledger:
    """Output digests of earlier runs of the same source, by workload, op and seed."""

    def __init__(self, path: Path, src_digest: str):
        self.path = path
        self.src = src_digest
        try:
            self.entries = json.loads(path.read_text())
        except (OSError, ValueError):
            self.entries = {}

    def check(self, workload: str, op: Op, seed: int, digest: str) -> Check:
        key = f"{self.src}:{workload}:{op.name}:seed={seed}"
        first = self.entries.setdefault(key, digest)
        return Check("determinism", float(first != digest), "same output bytes as every run with this seed",
                     first == digest)

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        tmp.replace(self.path)


# ---------------------------------------------------------------------------
# running commands


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one client, one core
    return env


def _spawn(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; subprocess.run kills and reaps it on timeout."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def warm_up(deadline: float) -> None:
    """Import chaosrng.cli once in a child, unmeasured: this fills the bytecode
    cache, as an installed package would have it."""
    proc = _spawn([str(HERE / "child.py"), str(OUT / "warm_up.json"), "--"], deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"warm-up child failed: {proc.stderr.strip()[-2000:]}")


def check_outputs(op: Op, exit_code: int, stdout: str) -> tuple[list[Check], dict]:
    out_dir = ROOT / op.out_rel
    kind = op.args[0]
    if kind == "verify":
        return check_verify(op.args[op.args.index("--map") + 1], exit_code, stdout)
    checks = [Check("exit code", exit_code, "== 0", exit_code == 0)]
    try:
        if kind == "analyze":
            more, values = check_analyze(out_dir)
        else:
            more, values = check_bitgen(out_dir, int(op.args[op.args.index("--length") + 1]))
    except (OSError, ValueError, KeyError, IndexError) as e:
        return checks + [Check("outputs readable", float("nan"), f"no error ({e!r})", False)], {}
    return checks + more, values


def _clear(op: Op) -> None:
    shutil.rmtree(ROOT / op.out_rel, ignore_errors=True)


def run_op(op: Op, seed: int, deadline: float) -> tuple[OpResult, str]:
    _clear(op)
    rec_path = OUT / "child.json"
    rec_path.unlink(missing_ok=True)
    t0 = time.monotonic()
    try:
        proc = _spawn([str(HERE / "child.py"), str(rec_path), "--", *op.argv(seed)], deadline)
    except subprocess.TimeoutExpired:
        return OpResult(op, None, checks=[Check("finished", 0.0, f"within {DEADLINE_S:.0f} s", False)]), ""
    if not rec_path.exists():
        tail = proc.stderr.strip()[-2000:]
        return OpResult(op, proc.returncode, checks=[Check("finished", 0.0, f"no crash ({tail})", False)]), proc.stdout
    rec = json.loads(rec_path.read_text())
    checks, values = check_outputs(op, rec["exit_code"], proc.stdout)
    res = OpResult(
        op, rec["exit_code"],
        setup_s=rec["ready"] - t0,
        wall_s=rec["end"] - rec["ready"],
        cpu_s=rec["cpu_s"],
        rss_mb=rec["peak_rss_kb"] / 1024.0,
        checks=checks,
        values=values,
    )
    return res, proc.stdout


def run_traced(ops: list[Op], seed: int, deadline: float) -> tuple[dict, list[tuple[OpResult, str]]]:
    for op in ops:
        _clear(op)
    trace_path = OUT / "trace.json"
    trace_path.unlink(missing_ok=True)
    plan = {
        "ops": [{"name": op.name, "argv": op.argv(seed), "stdout": str(OUT / f"traced-{op.name}.txt")}
                for op in ops],
        "trace": str(trace_path),
    }
    plan_path = OUT / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = _spawn([str(HERE / "traced.py"), str(plan_path)], deadline)
    if proc.returncode != 0 or not trace_path.exists():
        raise RuntimeError(f"traced run failed: {proc.stderr.strip()[-2000:]}")
    trace = json.loads(trace_path.read_text())
    results = []
    for op, planned in zip(ops, plan["ops"]):
        stdout = Path(planned["stdout"]).read_text()
        code = trace["exit_codes"][op.name]
        checks, values = check_outputs(op, code, stdout)
        results.append((OpResult(op, code, checks=checks, values=values), stdout))
    return trace, results


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: list[list[OpResult]]) -> dict:
    """All nine end-to-end metrics; None where the workload has no such output."""
    done = [p for p in passes if all(r.timed for r in p)]
    results = [r for p in passes for r in p]
    timed = [r for r in results if r.timed]
    attempted = len(results)
    failed = sum(r.failed for r in results)
    m = {
        "setup_s": statistics.median(r.setup_s for r in timed) if timed else None,
        "wall_s": statistics.median(sum(r.wall_s for r in p) for p in done) if done else None,
        "cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in done) if done else None,
        "peak_rss_mb": max((r.rss_mb for r in timed), default=None),
        "failed_frac": failed / attempted,
        "raw_bits_per_s": None,
        "landmark_dev": None,
        "l1_mc_fp_max": None,
        "tv_stream_max": None,
    }
    rates = [r.values["bits"] / r.wall_s for p in done for r in p if "bits" in r.values]
    if rates:
        m["raw_bits_per_s"] = statistics.median(rates)
    for metric, key in (("landmark_dev", "landmark_dev"), ("l1_mc_fp_max", "l1_mc_fp"),
                        ("tv_stream_max", "tv_stream")):
        vals = [r.values[key] for r in results if key in r.values]
        if vals:
            m[metric] = max(vals)
    return m


def per_layer(S: list[sp.Span], c: dict, untraced_wall: float, out_bytes: int) -> dict:
    """Every per-layer metric, from the traced run's spans and counters.
    A layer the workload never calls reads 0."""

    def inc(name: str) -> float:
        return sp.inclusive(S, name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    inv_calls = sp.call_count(S, "maps.inverse")
    return {
        "maps.inverse.s": inc("maps.inverse"),
        "maps.inverse.calls": inv_calls,
        "maps.inverse.points_per_call": ratio(c.get("maps.inverse.points", 0), inv_calls),
        "maps.raw_eval.s": inc("maps.raw_eval"),
        "maps.raw_eval.points": c.get("maps.raw_eval.points", 0),
        "intervals.components": c.get("intervals.components", 0),
        "partition.refinement_ladder.s": inc("partition.refinement_ladder"),
        "partition.self_s": sp.exclusive_of(S, "partition.refinement_ladder", "maps.inverse"),
        "partition.nonempty_frac": ratio(c.get("partition.deepest_nonempty", 0), c.get("partition.deepest_cells", 0)),
        "entropy.block_probabilities.s": inc("entropy.block_probabilities"),
        "entropy.block_probabilities.words": c.get("entropy.block_probabilities.words", 0),
        "entropy.block_entropy.s": inc("entropy.block_entropy"),
        "density.mc_density.s": inc("density.mc_density"),
        "density.mc_density.visits_per_s": ratio(c.get("density.mc_density.visits", 0), inc("density.mc_density")),
        "density.fp_fixed_point.s": inc("density.fp_fixed_point"),
        "density.fp_fixed_point.iterations": c.get("density.fp_fixed_point.iterations", 0),
        "analysis.check_invariants.s": inc("analysis.check_invariants"),
        "bitstream.generate_bits.self_s": sp.exclusive_of(S, "bitstream.generate_bits", "maps.raw_eval"),
        "bitstream.generate_bits.bits_per_s": ratio(c.get("bitstream.generate_bits.bits", 0), inc("bitstream.generate_bits")),
        "bitstream.empirical_pattern_probs.s": inc("bitstream.empirical_pattern_probs"),
        "bitstream.von_neumann_extract.s": inc("bitstream.von_neumann_extract"),
        "bitstream.vn_yield": ratio(c.get("bitstream.vn_out", 0), c.get("bitstream.vn_in", 0)),
        "cli.outputs.s": inc("cli.outputs"),
        "cli.outputs.bytes": out_bytes,
        "trace.overhead_s": inc("cli.main") - untraced_wall,
    }


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def _print_op(tag: str, r: OpResult) -> None:
    timing = "" if not r.timed else (
        f" setup={r.setup_s:.3f}s wall={r.wall_s:.3f}s cpu={r.cpu_s:.3f}s peak_rss={r.rss_mb:.1f}MB")
    print(f"{tag} {r.op.name}: exit={r.exit_code}{timing} -> {'FAILED' if r.failed else 'ok'}")
    for c in r.checks:
        print(f"    {c.line()}")


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, ledger: Ledger) -> tuple[dict, dict]:
    """Run one workload; returns the result line and every metric measured."""
    ops = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + DEADLINE_S
    print(f"== {name}: seed={seed} trace={int(trace)} ops={[op.name for op in ops]}")
    warm_up(deadline)

    passes: list[list[OpResult]] = []
    measure_start = time.monotonic()
    while not passes or (not trace and time.monotonic() - measure_start < seconds):
        pass_start = time.monotonic()
        results = []
        for op in ops:
            r, stdout = run_op(op, seed, deadline)
            if r.timed:
                r.checks.append(ledger.check(name, op, seed, digest_outputs(ROOT / op.out_rel, stdout)))
            _print_op(f"pass {len(passes) + 1}", r)
            results.append(r)
        passes.append(results)
        last = time.monotonic() - pass_start
        if not all(r.timed for r in results) or time.monotonic() + 1.5 * last > deadline:
            break

    results = [r for p in passes for r in p]
    e2e = end_to_end(passes)
    coverage_ok = True
    layers = None
    if trace:
        trace_data, traced = run_traced(ops, seed, deadline)
        out_bytes = 0
        for r, stdout in traced:
            out_dir = ROOT / r.op.out_rel
            r.checks.append(ledger.check(name, r.op, seed, digest_outputs(out_dir, stdout)))
            out_bytes += sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
            _print_op("traced", r)
        results += [r for r, _ in traced]
        spans = sp.load_spans(trace_data["spans"])
        layers = per_layer(spans, trace_data["counters"], e2e["wall_s"], out_bytes)
        coverage_ok = report_trace(spans, layers["trace.overhead_s"])

    attempted = len(results)
    failed = sum(r.failed for r in results)
    correct = coverage_ok and not any(r.unexpected for r in results)
    for metric, unit in E2E_UNITS.items():
        print(f"metric {metric} = {_fmt(e2e[metric])} {unit}")
    if layers is not None:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for metric, value in layers.items():
            print(f"layer {metric} = {value:.6g} {units.get(metric, '')}")
    print(f"operations: {attempted} attempted, {failed} failed, failed share {failed / attempted:.4g}; "
          f"passes: {len(passes)}; correct: {correct}")

    key, values = ("per_layer", layers) if trace else ("end_to_end", e2e)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]},
    }
    return result, {"end_to_end": e2e, "per_layer": layers}


def report_trace(S: list[sp.Span], overhead_s: float) -> bool:
    """Print each operation's top-level stages; True when together they cover
    every root span to within the tracing overhead."""
    roots = sp.roots(S)
    for i in roots:
        stages: dict[str, float] = {}
        for s in S:
            if s.parent == i:
                stages[s.name] = stages.get(s.name, 0.0) + sp.duration(s)
        row = ", ".join(f"{k}={v:.3f}s" for k, v in sorted(stages.items(), key=lambda kv: -kv[1]))
        print(f"stages {S[i].run}: root={sp.duration(S[i]):.3f}s: {row}")
    total = sum(sp.duration(S[i]) for i in roots)
    gap = sum(sp.self_time(S, i) for i in roots)
    overhead = abs(overhead_s)
    # the overhead is the difference of two runs and can come out near zero
    # by chance, so a gap under COVERAGE_FLOOR of the roots also passes
    ok = gap <= max(overhead, COVERAGE_FLOOR * total)
    print(f"coverage: roots {total:.4f}s, top-level stages {total - gap:.4f}s, unmeasured {gap:.4f}s "
          f"({gap / total:.3%} of roots; |trace.overhead_s| = {overhead:.4f}s): {'PASS' if ok else 'FAIL'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chaosrng" / "cli.py").is_file():
        print(f"error: no chaosrng source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    ledger = Ledger(OUT / "ledger.json", env["src_sha256"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, measured = {}, {}
    try:
        for name in names:
            results[name], measured[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, ledger)
    finally:
        ledger.save()
    record = {"env": env, "args": vars(args), "results": results, "metrics": measured}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
