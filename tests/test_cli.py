"""Command-line behavior: subcommands, config handling, exit codes."""
import copy
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from chaosrng import analysis
from chaosrng.analysis import InvariantViolation
from chaosrng.bitstream import read_stream, read_stream_ascii
from chaosrng.cli import AnalysisConfig, ConfigError, _build_parser, _config_from_args, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# config plumbing


# every field set to a value other than its default; each value is also valid
# on its own next to the defaults of the other fields
ALL_SET = {
    "map": {"type": "builtin", "name": "tent"},
    "partition": {"s0": [[0.0, 0.3]]},
    "density": {"method": "montecarlo", "L": 512, "K": 5_000_000, "burn_in": 2000, "tol": 1e-10, "grid_factor": 4},
    "depth": 6,
    "seed": 7,
    "length": 5000,
    "dither": False,
    "stream_grid": 4096,
    "start": 0.25,
    "input_rate": 2e6,
    "output": {"directory": "out", "formats": ["json"]},
    "workers": 1,
}


def test_config_roundtrip():
    cfg = AnalysisConfig.from_dict(ALL_SET)
    assert cfg.to_dict() == ALL_SET
    default = AnalysisConfig()
    for f in fields(AnalysisConfig):
        section, _, key = f.metadata["path"].rpartition(".")
        assert getattr(cfg, f.name) == (ALL_SET[section] if section else ALL_SET)[key]
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    again = AnalysisConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert again.sha256() == cfg.sha256()


def test_config_hash_is_pinned():
    # the hash stamps every output; a change here changes every output file
    assert AnalysisConfig().sha256() == "87df28fba64072a30782e94ec8ad2fe958a7ce5f842dc2c269df26b409ed0fe3"
    assert AnalysisConfig.from_dict(ALL_SET).sha256() == (
        "7d5bb9721f35afb4555547a21680726376e6e9a1fce0ed3d3196549e17c220ea"
    )


def test_each_flag_overrides_only_its_field():
    expected = AnalysisConfig.from_dict(ALL_SET)
    cases = [(["--map", "tent"], "map"), (["--s0", "0:0.3"], "partition"),
             (["--format", "json"], "formats"), (["--no-dither"], "dither")]
    cases += [([f.metadata["flag"], str(getattr(expected, f.name))], f.name)
              for f in fields(AnalysisConfig) if f.metadata["flag"]]
    assert sorted(name for _, name in cases) == sorted(f.name for f in fields(AnalysisConfig))
    default = AnalysisConfig()
    parser = _build_parser()
    for argv, name in cases:
        cfg = _config_from_args(parser.parse_args(["bitgen", *argv]))
        changed = [f.name for f in fields(cfg) if getattr(cfg, f.name) != getattr(default, f.name)]
        assert changed == [name], argv
        assert getattr(cfg, name) == getattr(expected, name), argv


def test_readme_config_table_matches_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w.]+)` \| `(--[\w-]+)", readme, re.M)
    assert [path for path, _ in rows] == [f.metadata["path"] for f in fields(AnalysisConfig)]
    for (_, flag), f in zip(rows, fields(AnalysisConfig)):
        assert f.metadata["flag"] in (None, flag)


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="wat"):
        AnalysisConfig.from_dict({"wat": 1})
    with pytest.raises(ConfigError, match="density.flavor"):
        AnalysisConfig.from_dict({"density": {"flavor": "mild"}})


@pytest.mark.parametrize("key", ["sha256", "shards", "L", "density.L"])
def test_config_rejects_attribute_names_and_flat_paths(key):
    # method names and top-level spellings of nested fields are not config fields
    with pytest.raises(ConfigError, match=f"^{key}: unknown field"):
        AnalysisConfig.from_dict({key: 3})


def test_from_dict_leaves_its_argument_untouched():
    raw = {"depth": 5, "density": {"L": 256, "K": 200000}, "output": {"formats": ["json"]}}
    before = copy.deepcopy(raw)
    AnalysisConfig.from_dict(raw)
    assert raw == before


def test_config_bounds():
    with pytest.raises(ConfigError, match="density.K"):
        AnalysisConfig.from_dict({"density": {"method": "montecarlo", "L": 1024, "K": 10240}})
    with pytest.raises(ConfigError, match="density.method"):
        AnalysisConfig.from_dict({"density": {"method": "psychic"}})
    with pytest.raises(ConfigError, match="depth"):
        AnalysisConfig.from_dict({"depth": 99})
    with pytest.raises(ConfigError, match="workers"):
        AnalysisConfig.from_dict({"density": {"L": 64, "K": 6400}, "workers": 2})


# ---------------------------------------------------------------------------
# commands


def test_density_both_prints_l1(tmp_path, capsys):
    code, out, _ = run(
        capsys, "density", "--map", "tent", "--method", "both",
        "--L", "256", "--K", "200000", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert "L1(mc, fp) =" in out
    assert (tmp_path / "density_montecarlo.csv").exists()
    assert (tmp_path / "density_fp_operator.json").exists()
    payload = json.loads((tmp_path / "density_fp_operator.json").read_text())
    assert "config_sha256" in payload
    first = (tmp_path / "density_fp_operator.csv").read_text().splitlines()[0]
    assert first.startswith("# config=")


# sha256 of the four files of `density --map logistic --method both --L 333
# --K 100000 --grid-factor 3 --out-dir .`, as written before mc_density took
# keyword arguments
DENSITY_BOTH_SHA256 = {
    "density_fp_operator.csv": "96850f5399a29cb082f86542ab6da2fda69517b4b7adb5caa3e28788d6404e41",
    "density_fp_operator.json": "5c8dfdf5893d1aa6adb7fe37f856916b662ee9966040516a7eb496eca96a26bc",
    "density_montecarlo.csv": "44492d93d8f475658d4ccd618a2ca0fcc9ded4d06d8bec4d39b28c8606ea002d",
    "density_montecarlo.json": "0aca7e2d2a99f4d53d1861fef0be86c7adfb669de74bd8c6c13fc9cd58a76949",
}


def test_density_both_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    # a relative output directory keeps the config hash inside the files fixed
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        capsys, "density", "--map", "logistic", "--method", "both",
        "--L", "333", "--K", "100000", "--grid-factor", "3", "--out-dir", ".",
    )
    assert code == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert got == DENSITY_BOTH_SHA256


def test_density_idempotent(tmp_path, capsys):
    args = ("density", "--map", "tent", "--method", "fp_operator", "--L", "128", "--out-dir", str(tmp_path))
    run(capsys, *args)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    run(capsys, *args)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before == after


def test_montecarlo_density_independent_of_cpu_count(tmp_path, capsys, monkeypatch):
    # the default shard count is fixed, so the same config gives the same bytes on any host
    monkeypatch.chdir(tmp_path)
    outputs = []
    for n_cpu in (1, 4):
        monkeypatch.setattr(os, "cpu_count", lambda n=n_cpu: n)
        code, _, _ = run(
            capsys, "density", "--map", "cubic_sample", "--method", "montecarlo",
            "--L", "256", "--K", "100000", "--out-dir", "out",
        )
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())})
    assert set(outputs[0]) == {"density_montecarlo.csv", "density_montecarlo.json"}
    assert outputs[0] == outputs[1]


def test_analyze_writes_report(tmp_path, capsys, monkeypatch):
    # a relative output directory keeps the config hash inside report.json fixed
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "analyze", "--map", "cubic_sample", "--depth", "6",
        "--L", "512", "--grid-factor", "4", "--rate", "1000000", "--out-dir", ".",
    )
    assert code == 0
    assert "h_estimate=" in out and "R_d=" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["h_estimate"] > 0.9
    assert len(report["H"]) == 6
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[1] == "N,H_N,h_N"
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == "212f863b48a5f8bc94c650bfa679ab7a7ce7827b6ecf1ea672a0081c74f7ed16"


def test_analyze_leaves_numpy_ma_unimported(tmp_path):
    # numpy 2.4's np.unique and large np.isin import numpy.ma (~20 ms) on first use
    script = (
        "import sys\n"
        "from chaosrng.cli import main\n"
        f"assert main(['analyze', '--map', 'cubic_sample', '--depth', '8', '--L', '512', '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"


def test_analyze_bernoulli_offset_partition(tmp_path, capsys):
    # uniform invariant density: S(0) = (0, 0.7) has bias exactly 0.2
    code, out, _ = run(
        capsys, "analyze", "--map", "bernoulli", "--s0", "0:0.7",
        "--depth", "4", "--L", "512", "--out-dir", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["bias"] - 0.2) < 0.01


def test_analyze_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"map": {"type": "builtin", "name": "tent"}, "depth": 3,
           "density": {"method": "fp_operator", "L": 128},
           "output": {"directory": str(tmp_path / "a")}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "analyze", "--config", str(cfg_path), "--depth", "5")
    assert code == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert len(report["H"]) == 5  # flag overrode the config depth


def test_bitgen_stream_and_extractor(tmp_path, capsys):
    code, out, _ = run(
        capsys, "bitgen", "--map", "bernoulli", "--length", "100000",
        "--von-neumann", "--ascii", "--seed", "8", "--out-dir", str(tmp_path),
    )
    assert code == 0
    bits = read_stream(tmp_path / "stream.bits")
    assert bits.size == 100000
    assert abs(bits.mean() - 0.5) < 0.01
    assert np.array_equal(read_stream_ascii(tmp_path / "stream.txt"), bits)
    vn = read_stream(tmp_path / "stream_vn.bits")
    assert 0 < vn.size < bits.size
    summary = json.loads((tmp_path / "bitgen_summary.json").read_text())
    assert summary["von_neumann"]["output_bits"] == vn.size
    assert "P(01)" in out


@pytest.mark.parametrize("length, depths", [(1000, 3), (150, 0)])
def test_bitgen_short_stream_reports_the_depths_it_can(tmp_path, capsys, length, depths):
    # pattern counts need 100 * 2^N bits at depth N: 1000 bits reach N = 3, 150 bits none
    code, out, _ = run(
        capsys, "bitgen", "--map", "cubic_sample", "--length", str(length),
        "--von-neumann", "--out-dir", str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "bitgen_summary.json").read_text())
    assert list(summary["patterns"]) == [str(N) for N in range(1, depths + 1)]
    assert sum(row.startswith("N=") for row in out.splitlines()) == depths
    assert read_stream(tmp_path / "stream_vn.bits").size == summary["von_neumann"]["output_bits"]


# sha256 of stream.bits and stream_vn.bits as written while S(0) was still
# stored as an interval set; the second partition has three cuts inside (0, 1)
STREAM_SHA256 = {
    (): ("51abe626702142e69b06af89c3c923b3ffcfca2155a905eea1580c658046027c",
         "e2bd3306052c2bf442186b2e32e28374bcb672d226ac13ef35f903cdde7d8436"),
    ("--s0", "0:0.3,0.5:0.77"): ("d74a5b5b391f7216adbe193f6668c8a6ca298d293655b766a15af971ee3b1b0d",
                                 "f3958bb9c5bd8a0680b33a90f100c62ff23452db64cc8abcb17fdb5ef5b7e0a3"),
}


@pytest.mark.parametrize("flags", list(STREAM_SHA256), ids=["default", "s0-three-cuts"])
def test_bitgen_stream_bytes_are_pinned(tmp_path, capsys, flags):
    code, _, _ = run(
        capsys, "bitgen", "--map", "cubic_sample", "--length", "200000", "--stream-grid", "1048576",
        "--seed", "0", "--von-neumann", *flags, "--out-dir", str(tmp_path),
    )
    assert code == 0
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("stream.bits", "stream_vn.bits"))
    assert got == STREAM_SHA256[flags]


VERIFY_TENT_ARGS = (
    "verify", "--map", "tent", "--L", "256", "--K", "1000000", "--grid-factor", "16", "--depth", "6",
)


def test_verify_passes_on_tent(tmp_path, capsys):
    code, out, _ = run(capsys, *VERIFY_TENT_ARGS, "--out-dir", str(tmp_path))
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out
    assert out == (
        "L1(mc, fp)              value=0.012901  tolerance=0.05  PASS\n"
        "max|h_N(mc) - h_N(fp)|  value=0.000025  tolerance=0.01  PASS\n"
        "max TV(blocks, stream)  value=0.001169  tolerance=0.01  PASS\n"
        "structural invariants   value=0.000000  tolerance=0  PASS\n"
    )


def test_verify_cubic_stream_check_passes_at_seed_11(tmp_path, capsys):
    # the density solved on uniform bins read max TV = 0.0103 here, over its 0.01 bound
    _, out, _ = run(capsys, "verify", "--map", "cubic_sample", "--seed", "11", "--out-dir", str(tmp_path))
    line = next(row for row in out.splitlines() if row.startswith("max TV(blocks, stream)"))
    assert line.endswith("PASS"), line
    # the L1 check fails: the grid chain's known bias against the operator density
    assert out == (
        "L1(mc, fp)              value=0.129700  tolerance=0.05  FAIL\n"
        "max|h_N(mc) - h_N(fp)|  value=0.001529  tolerance=0.01  PASS\n"
        "max TV(blocks, stream)  value=0.001821  tolerance=0.01  PASS\n"
        "structural invariants   value=0.000000  tolerance=0  PASS\n"
    )


def test_verify_reports_invariant_failure(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise InvariantViolation("forced")

    monkeypatch.setattr(analysis, "check_invariants", broken)
    code, out, _ = run(capsys, *VERIFY_TENT_ARGS, "--out-dir", str(tmp_path))
    assert code == 1
    assert out == (
        "L1(mc, fp)              value=0.012901  tolerance=0.05  PASS\n"
        "max|h_N(mc) - h_N(fp)|  value=nan  tolerance=0.01  FAIL\n"
        "max TV(blocks, stream)  value=nan  tolerance=0.01  FAIL\n"
        "structural invariants   value=1.000000  tolerance=0  FAIL\n"
    )


# ---------------------------------------------------------------------------
# exit codes


def test_bad_config_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--map", "nosuchmap")
    assert code == 2
    assert "config error" in err
    code, _, err = run(capsys, "verify", "--map", "tent", "--L", "1024", "--K", "10240")
    assert code == 2
    assert "density.K" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "--L", "65536", "--depth", "2"], 0),  # operator density: no visit budget
        (["bitgen", "--L", "65536", "--length", "1000"], 0),  # no density at all
        (["analyze", "--method", "montecarlo", "--L", "65536"], 2),
        (["density", "--method", "both", "--L", "65536"], 2),
        (["verify", "--L", "65536"], 2),  # verify always builds a Monte Carlo density
    ],
)
def test_monte_carlo_floors_only_where_a_monte_carlo_density_is_built(tmp_path, capsys, argv, code):
    # the default K = 4e6 is below 100 * L = 6553600
    got, _, err = run(capsys, *argv, "--map", "tent", "--out-dir", str(tmp_path))
    assert got == code, err
    assert ("config error: density.K: " in err) == (code == 2)


def test_monte_carlo_warnings_reach_the_caller(tmp_path, capsys):
    # logistic cells near 0 shrink below a 1/64 bin from depth 4
    with pytest.warns(RuntimeWarning, match="below one density bin"):
        code, out, _ = run(
            capsys, "analyze", "--map", "logistic", "--method", "montecarlo",
            "--L", "64", "--K", "6400", "--depth", "6", "--out-dir", str(tmp_path),
        )
    assert code == 0 and out.startswith("analyze map=logistic")


def test_analysis_failure_exits_1(tmp_path, capsys):
    # an unreachable operator tolerance cannot converge
    code, _, err = run(
        capsys, "density", "--map", "cubic_sample", "--method", "fp_operator",
        "--L", "128", "--tol", "1e-30", "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "analysis failure" in err


@pytest.mark.parametrize(
    "config, flags, path",
    [
        ({"map": "tent"}, [], "map"),
        ({"depth": "5"}, [], "depth"),
        ({"depth": True}, [], "depth"),
        ({"density": {"tol": "x"}}, [], "density.tol"),
        ({"density": {"burn_in": "x"}}, [], "density.burn_in"),
        ({"seed": "abc"}, [], "seed"),
        ({"seed": -1}, [], "seed"),
        ({"stream_grid": 10}, [], "stream_grid"),
        ({"start": 2}, [], "start"),
        ({}, ["--stream-grid", "10"], "stream_grid"),
        ({}, ["--start", "2"], "start"),
        ({"partition": {"s0": [[0.5, 0.2]]}}, [], "partition"),
        ({"partition": {"s0": [[0.2, 0.5]], "s1": [[0.5, 0.6]]}}, [], "partition"),
        ({"partition": {"s0": [[0.0, 0.4], [0.3, 0.6]]}}, [], "partition"),
        ({"partition": {"s0": [[0.5, 1.5]]}}, [], "partition"),
        ({}, ["--s0", "0.3:0.3"], "partition"),
        ({"partition": {"s0": [[0.0, 0.5]], "S1": [[0.5, 1.0]]}}, [], "partition"),
        ({"partition": {"s0": [[False, True]]}}, [], "partition"),
        ({"partition": {"s0": [["0", "0.5"]]}}, [], "partition"),
        ({"partition": {"s0": []}}, [], "partition"),
        ({"partition": {"s0": [[0, 1]]}}, [], "partition"),
        ({}, ["--s0", "0:1"], "partition"),
        ({"partition": {"s0": [[0, 10**400]]}}, [], "partition"),  # float() overflows
        ({}, ["--stream-grid", str(2**63)], "stream_grid"),  # past int64: rng.integers raised
        ({"stream_grid": 2**53 + 1}, [], "stream_grid"),  # past float resolution
        ({}, ["--workers", "2"], "workers"),  # a stub: only null or 1 parses
        ({"workers": 0}, [], "workers"),
    ],
)
def test_malformed_value_exits_2(tmp_path, capsys, config, flags, path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    code, _, err = run(capsys, "bitgen", "--config", str(p), "--length", "1000", *flags, "--out-dir", str(tmp_path))
    assert code == 2
    assert f"config error: {path}: " in err


def test_malformed_config_file_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--config", str(p))
    assert code == 2
    assert "config error" in err
