"""The benchmark drives chaosrng by name: its traced run wraps functions, and
its workloads pass command lines.  Each name it relies on must exist."""
import contextlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from chaosrng import maps
from chaosrng.cli import _config_from_args, main
from test_cli import VERIFY_TENT_ARGS, warning_kinds

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
    ops = [op for ops in run.WORKLOADS.values() for op in ops]
    assert ops
    for op in ops:
        command, cfg = _config_from_args(op.argv(0))
        cfg.validate(command)
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


def test_verify_workload_outputs_pass_the_benchmark_checks(monkeypatch, tmp_path, capsys):
    # every verify op of the benchmark passes each of verify's own checks
    # outright, so that none leans on an exemption for a known defect
    run = load_perfbench(monkeypatch, "run")
    checks = load_perfbench(monkeypatch, "checks")
    ops = run.WORKLOADS["verify-4maps"]
    assert ops
    monkeypatch.chdir(tmp_path)  # the workload's output directory is relative
    for op in ops:
        # the logistic op warns about the tail spread and the Monte Carlo
        # resolution of its depth-8 analyses (README); the others warn about nothing
        logistic = "logistic" in op.args
        with pytest.warns(RuntimeWarning) if logistic else contextlib.nullcontext() as caught:
            code = main(op.argv(0))
        if logistic:
            assert warning_kinds(caught) == {"tail spread", "below one density bin"}
        found, _ = checks.check_verify(op.args[op.args.index("--map") + 1], code, capsys.readouterr().out)
        assert code == 0, op.name
        assert [c.name for c in found] == [*checks.VERIFY_CHECKS, "exit code"]
        assert all(c.ok for c in found), [c.line() for c in found]


def test_traced_verify_runs_inside_traced_stages(monkeypatch, tmp_path, capsys):
    # the benchmark's traced run fails when more of a command's time than the
    # tracing overhead falls outside every stage it wraps; verify's stream
    # must run inside one, and the wrappers must not change what it prints
    traced = load_perfbench(monkeypatch, "traced")
    spans = load_perfbench(monkeypatch, "spans")
    argv = [*VERIFY_TENT_ARGS, "--out-dir", str(tmp_path)]
    main(argv)
    plain = capsys.readouterr().out
    rec = spans.Recorder()
    remove = traced.instrument(rec)
    try:
        with rec.span("cli.main"):
            main(argv)
    finally:
        remove()
    assert capsys.readouterr().out == plain
    (root,) = spans.roots(rec.spans)
    assert spans.self_time(rec.spans, root) < 0.05 * spans.duration(rec.spans[root])
    # the lane samplers' lead chains evaluate the map once per step; those
    # evaluations belong to the stage that runs the lanes, not to the root
    stray = [s for s in rec.spans if s.parent == root and s.name == "maps.raw_eval"]
    assert not stray, f"{len(stray)} maps.raw_eval spans directly under the root"


def test_byte_oracle_commands_parse(monkeypatch, tmp_path):
    # tools/byte_oracle.py runs the benchmark's workloads, plus analyze and
    # bitgen on its own map configs, density files of every map kind and a
    # Monte Carlo analysis; each command must be a valid seed-0 run with an
    # output directory of its own
    run = load_perfbench(monkeypatch, "run")
    spec = importlib.util.spec_from_file_location("byte_oracle", PERFBENCH.parent / "tools" / "byte_oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    names = [w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]
    cmds = oracle.commands(run.WORKLOADS, names)
    monkeypatch.chdir(tmp_path)
    (tmp_path / oracle.OUT_REL / "maps").mkdir(parents=True)
    for kind, cfg in oracle.MAP_CONFIGS.items():
        (tmp_path / oracle.OUT_REL / "maps" / f"{kind}.json").write_text(json.dumps(cfg))
    out_dirs, maps_run, runs = set(), set(), set()
    for label, argv in cmds:
        command, cfg = _config_from_args(argv)
        m, _ = cfg.validate(command)
        assert cfg.seed == 0, label
        out_dirs.add(cfg.out_dir)
        maps_run.add(m.name)
        runs.add((command, cfg.method, m.name))
    assert len(out_dirs) == len(cmds)
    assert maps_run == {*maps.BUILTIN_MAPS, "polynomial", "piecewise_linear"}
    assert {("density", "both", name) for name in ("cubic_sample", "polynomial", "piecewise_linear")} <= runs
    assert ("analyze", "montecarlo", "cubic_sample") in runs
