"""The benchmark drives chaosrng by name: its traced run wraps functions, and
its workloads pass command lines.  Each name it relies on must exist."""
import importlib.util
import sys
from pathlib import Path

from chaosrng import maps
from chaosrng.cli import _build_parser, _config_from_args, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, stem):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the modules import their siblings (`spans`, `checks`)
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through the module's sys.modules entry
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_stages_resolve(monkeypatch):
    traced = load_perfbench(monkeypatch, "traced")
    hooks = [(owner, attr) for owner, attr, _, _ in traced.STAGES] + [(maps, "map_from_config")]
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in hooks if not callable(getattr(o, a, None))]
    assert traced.STAGES
    assert not missing, missing


def test_workload_command_lines_parse(monkeypatch):
    run = load_perfbench(monkeypatch, "run")
    parser = _build_parser()
    ops = [op for ops in run.WORKLOADS.values() for op in ops]
    assert ops
    for op in ops:
        cfg = _config_from_args(parser.parse_args(op.argv(0)))
        cfg.validate(op.args[0])
        assert cfg.seed == 0, op.argv(0)


def test_bitgen_workload_outputs_pass_the_benchmark_checks(monkeypatch, tmp_path, capsys):
    # the benchmark reads bitgen_summary.json; its checks must still find
    # every key and landmark they read
    run = load_perfbench(monkeypatch, "run")
    checks = load_perfbench(monkeypatch, "checks")
    (op,) = run.WORKLOADS["bitgen-2e6"]
    monkeypatch.chdir(tmp_path)  # the workload's output directory is relative
    assert main(op.argv(0)) == 0
    capsys.readouterr()
    found, values = checks.check_bitgen(tmp_path / op.out_rel, int(op.args[op.args.index("--length") + 1]))
    assert all(c.ok for c in found), [c.line() for c in found]
    assert values["bits"] == 2_000_000
