"""Command-line behavior: subcommands, config handling, exit codes."""
import argparse
import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import chaosrng as cr
from chaosrng import analysis
from chaosrng.analysis import InvariantViolation
from chaosrng.bitstream import read_stream, read_stream_ascii
from chaosrng.cli import COMMANDS, RUNNERS, AnalysisConfig, ConfigError, _build_parser, _config_from_args, main
from chaosrng.maps import ArgumentError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


#: the RuntimeWarnings a command gives (README), each by a phrase of its message
WARNING_KINDS = ("below one density bin", "tail spread", "per-bit entropy increased")


def warning_kinds(caught) -> set:
    """The kinds of the recorded warnings; fails on a warning of no known kind."""
    kinds = [next((k for k in WARNING_KINDS if k in str(w.message)), None) for w in caught]
    assert None not in kinds, [str(w.message) for w in caught]
    return set(kinds)


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
    "von_neumann": True,
    "stream_grid": 4096,
    "start": 0.25,
    "input_rate": 2e6,
    "output": {"directory": "out", "formats": ["json"], "ascii": True},
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
    assert AnalysisConfig().sha256() == "1353a083769dc372c279b880b281cb237ad61fffa5cccd3395946e456f87a13b"
    assert AnalysisConfig.from_dict(ALL_SET).sha256() == (
        "28f9dbafbc5adb9ecad1ba34cced7e3335cf4b0920a92c7c1859ef4d485c737b"
    )


# the command-line text of the ALL_SET values that do not print as their text
FLAG_TEXT = {"map": "tent", "partition": "0:0.3", "formats": "json"}


def test_each_flag_overrides_only_its_field():
    expected = AnalysisConfig.from_dict(ALL_SET)
    default = AnalysisConfig()
    for f in fields(AnalysisConfig):
        argv = [f.metadata["flag"]]  # a bool field's flag takes no text
        if f.type is not bool:
            argv.append(FLAG_TEXT.get(f.name, str(getattr(expected, f.name))))
        _, cfg = _config_from_args([f.metadata["commands"][0], *argv])
        changed = [g.name for g in fields(cfg) if getattr(cfg, g.name) != getattr(default, g.name)]
        assert changed == [f.name], argv
        assert getattr(cfg, f.name) == getattr(expected, f.name), argv


# the flags each command offers besides --config: those of the fields it reads,
# and verify's --out-dir.  A flag a command does not read would still enter the
# config hash of its outputs
COMMON_FLAGS = {"--map", "--seed", "--out-dir", "--workers"}
DENSITY_FLAGS = {"--L", "--K", "--burn-in", "--tol", "--grid-factor"}
OFFERED_FLAGS = {
    "density": COMMON_FLAGS | DENSITY_FLAGS | {"--method", "--format"},
    "analyze": COMMON_FLAGS | DENSITY_FLAGS | {"--s0", "--method", "--depth", "--rate", "--format"},
    "bitgen": COMMON_FLAGS | {"--s0", "--length", "--no-dither", "--von-neumann", "--stream-grid", "--start", "--ascii"},
    "verify": COMMON_FLAGS | DENSITY_FLAGS | {"--s0", "--depth"},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_offers_only_the_table_flags(command):
    # every flag is a row of the field table, so it reaches the config and its hash
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = sub.choices[command]._actions
    table = [f for f in fields(AnalysisConfig) if command in f.metadata["commands"]]
    assert sorted(opt for a in actions for opt in a.option_strings) == sorted(
        ["-h", "--help", "--config"] + [f.metadata["flag"] for f in table]
    )
    assert sorted(a.dest for a in actions) == sorted(["help", "config"] + [f.name for f in table])
    assert {f.metadata["flag"] for f in table} == OFFERED_FLAGS[command]
    assert list(RUNNERS) == list(COMMANDS)


def test_readme_config_table_matches_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w.]+)` \| `(--[\w-]+)[^|\n]*\| ([\w, ]+) \|", readme, re.M)
    assert [path for path, _, _ in rows] == [f.metadata["path"] for f in fields(AnalysisConfig)]
    assert [flag for _, flag, _ in rows] == [f.metadata["flag"] for f in fields(AnalysisConfig)]
    assert [commands.split(", ") for _, _, commands in rows] == [
        list(f.metadata["commands"]) for f in fields(AnalysisConfig)
    ]


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
        AnalysisConfig.from_dict({"density": {"method": "montecarlo", "L": 1024, "K": 10240}}).validate()
    with pytest.raises(ConfigError, match="density.method"):
        AnalysisConfig.from_dict({"density": {"method": "psychic"}}).validate()
    with pytest.raises(ConfigError, match="depth"):
        AnalysisConfig.from_dict({"depth": 99}).validate()
    with pytest.raises(ConfigError, match="workers"):
        AnalysisConfig.from_dict({"density": {"L": 64, "K": 6400}, "workers": 2}).validate()


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
# --K 100000 --grid-factor 3 --out-dir .`: the operator files since the
# operator step stopped rescaling its mass, the Monte Carlo files since it
# steps the noisy continuous chain, all with the config stamp of the 20-field config
DENSITY_BOTH_SHA256 = {
    "density_fp_operator.csv": "ad1b1daa9abfea91ed64077f060bccd35b55cc2013afac8277314341ad949628",
    "density_fp_operator.json": "4e3138f21f65f29de32ed198ee76ef6df17538b116a17595d1469eafebd3a42b",
    "density_montecarlo.csv": "0c762b0fc6d582f9e2a1c05e4f8849f51ce5a916fdd0c520065d7c7b9d0b9cf1",
    "density_montecarlo.json": "fea93c51d686e755299fa9da007a1f0b542cf9b9f5359f1d155a899072b6a458",
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
    assert digest == "66d5279817a96b26dc7e9e80649795d78945ae1b90a5b61c08fd13667eff1b66"


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


def test_analyze_reads_a_map_file_as_its_builtin(tmp_path, capsys, monkeypatch):
    # a map file and the builtin name resolve to the same config, so to the same bytes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.json").write_text(json.dumps({"type": "builtin", "name": "tent"}))
    reports = []
    for map_arg in ("tent", "t.json"):
        code, _, err = run(capsys, "analyze", "--map", map_arg, "--depth", "3", "--L", "256", "--out-dir", "out")
        assert code == 0, err
        reports.append((tmp_path / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_analyze_both_methods_reports_their_l1(tmp_path, capsys):
    code, out, err = run(
        capsys, "analyze", "--map", "tent", "--method", "both", "--L", "256", "--K", "200000",
        "--depth", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    d = json.loads((tmp_path / "report.json").read_text())["provenance"]["l1_cross_method"]
    assert 0 < d < 0.05
    assert out.splitlines()[-1] == f"L1(mc, fp) = {d:.6f}"


def test_analyze_bernoulli_offset_partition(tmp_path, capsys):
    # uniform invariant density: S(0) = (0, 0.7) has bias exactly 0.2; with
    # this partition h_N has not settled by depth 4
    with pytest.warns(RuntimeWarning) as caught:
        code, out, _ = run(
            capsys, "analyze", "--map", "bernoulli", "--s0", "0:0.7",
            "--depth", "4", "--L", "512", "--out-dir", str(tmp_path),
        )
    assert code == 0 and warning_kinds(caught) == {"tail spread"}
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


def test_flags_override_invalid_config_file_values(tmp_path, capsys):
    # the file's K is below 100 * L for the default L and for --L; --K mends
    # it, and the floor is checked against --L, not the default L
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"density": {"method": "montecarlo", "K": 1000}}))
    code, out, err = run(capsys, "density", "--config", str(p), "--K", "1000000", "--L", "1024", "--out-dir", str(tmp_path))
    assert code == 0, err
    assert out.startswith("density method=montecarlo map=cubic_sample L=1024 ")
    code, _, err = run(capsys, "density", "--config", str(p), "--K", "200000", "--L", "4096", "--out-dir", str(tmp_path))
    assert code == 2
    assert "need an integer >= 100*L = 409600, got 200000" in err


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


def test_bitgen_switches_are_config_fields(tmp_path, capsys):
    # the switches change the outputs, so the config hash must tell their runs apart
    hashes = []
    for flags in ([], ["--von-neumann"]):
        code, _, _ = run(capsys, "bitgen", "--length", "1000", *flags, "--out-dir", str(tmp_path))
        assert code == 0
        hashes.append(json.loads((tmp_path / "bitgen_summary.json").read_text())["config_sha256"])
    assert hashes[0] != hashes[1]
    # a config file asks for both outputs without the flags
    out = tmp_path / "cfg"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"von_neumann": True, "output": {"directory": str(out), "ascii": True}}))
    code, _, _ = run(capsys, "bitgen", "--config", str(p), "--length", "1000")
    assert code == 0
    summary = json.loads((out / "bitgen_summary.json").read_text())
    assert summary["von_neumann"]["output_bits"] == read_stream(out / "stream_vn.bits").size > 0
    assert np.array_equal(read_stream_ascii(out / "stream.txt"), read_stream(out / "stream.bits"))


@pytest.mark.parametrize("length, depths", [(1000, 3), (401, 2), (150, 0)])
def test_bitgen_short_stream_reports_the_depths_it_can(tmp_path, capsys, length, depths):
    # pattern counts need 100 * 2^N bits at depth N: 1000 bits reach N = 3, 401 N = 2, 150 none
    code, out, _ = run(
        capsys, "bitgen", "--map", "cubic_sample", "--length", str(length),
        "--von-neumann", "--out-dir", str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "bitgen_summary.json").read_text())
    assert list(summary["patterns"]) == [str(N) for N in range(1, depths + 1)]
    assert sum(row.startswith("N=") for row in out.splitlines()) == depths
    assert read_stream(tmp_path / "stream_vn.bits").size == summary["von_neumann"]["output_bits"]


# sha256 of stream.bits, stream_vn.bits and stream.txt, of the printed text and
# of bitgen_summary.json without its config_sha256 line (the config holds the
# output directory).  The two binary streams were first written while S(0)
# was still stored as an interval set, the rest while the stream was still
# held whole; the second partition has three cuts inside (0, 1)
STREAM_SHA256 = {
    (): {
        "stream.bits": "51abe626702142e69b06af89c3c923b3ffcfca2155a905eea1580c658046027c",
        "stream_vn.bits": "e2bd3306052c2bf442186b2e32e28374bcb672d226ac13ef35f903cdde7d8436",
        "stream.txt": "edcf88bbb8a37af7063e6aaa1192b1d62bae32bfc6a1818011de4737b80e7e85",
        "stdout": "19a39d78077fba7c484878499355c88a12a4047aba2054c51ba5877647461897",
        "bitgen_summary.json": "b113ca6a998c036f17117561b7fb0c24adc066c791e92935082dbb1d9a874b2f",
    },
    ("--s0", "0:0.3,0.5:0.77"): {
        "stream.bits": "d74a5b5b391f7216adbe193f6668c8a6ca298d293655b766a15af971ee3b1b0d",
        "stream_vn.bits": "f3958bb9c5bd8a0680b33a90f100c62ff23452db64cc8abcb17fdb5ef5b7e0a3",
        "stream.txt": "5b72d9543d7d197bcb54ca827244720bb74d1aa9f2568a0eb90fb3343acb82aa",
        "stdout": "a43746b96919e9f64c2358908e3caa762693cbb152f2edd909ec31092a32355f",
        "bitgen_summary.json": "93db3b478be187b854065a14aeb1d2829b64fca5267579a70ed0e169b10de60b",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("flags", list(STREAM_SHA256), ids=["default", "s0-three-cuts"])
def test_bitgen_stream_bytes_are_pinned(tmp_path, capsys, flags):
    code, out, _ = run(
        capsys, "bitgen", "--map", "cubic_sample", "--length", "200000", "--stream-grid", "1048576",
        "--seed", "0", "--von-neumann", "--ascii", *flags, "--out-dir", str(tmp_path),
    )
    assert code == 0
    got = {name: sha256((tmp_path / name).read_bytes()) for name in ("stream.bits", "stream_vn.bits", "stream.txt")}
    got["stdout"] = sha256(out.encode())
    summary = (tmp_path / "bitgen_summary.json").read_bytes()
    got["bitgen_summary.json"] = sha256(re.sub(rb'\n  "config_sha256": "[0-9a-f]{64}",', b"", summary))
    assert got == STREAM_SHA256[flags]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bitgen_summary.json", "stream.bits", "stream.txt", "stream_vn.bits"
    ]


# bytes a streamed bitgen may hold at any length: a few chunks of chain
# states, bits and pattern windows
BITGEN_TRACED_PEAK = 3_000_000


# the longer length of each case is one at which a whole-array bitgen (about
# 4 bytes per bit dithered, 25 raw) passes the bound
@pytest.mark.parametrize(
    "flags, long",
    [(("--von-neumann", "--ascii"), 1_000_000), (("--no-dither",), 400_000)],
    ids=["dither", "no-dither"],
)
def test_bitgen_memory_does_not_grow_with_length(tmp_path, capsys, flags, long):
    run(capsys, "bitgen", "--length", "1000", *flags, "--out-dir", str(tmp_path / "warm"))  # lazy imports
    peaks = {}
    for length in (200_000, long):
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "bitgen", "--length", str(length), *flags, "--out-dir", str(tmp_path / str(length)))
            peaks[length] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
    assert max(peaks.values()) < BITGEN_TRACED_PEAK, peaks


VERIFY_TENT_ARGS = (
    "verify", "--map", "tent", "--L", "256", "--K", "1000000", "--grid-factor", "16", "--depth", "6",
)


def test_verify_passes_on_tent(tmp_path, capsys):
    code, out, _ = run(capsys, *VERIFY_TENT_ARGS, "--out-dir", str(tmp_path))
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out
    assert out == (
        "L1(mc, fp)              value=0.013813  tolerance=0.05  PASS\n"
        "max|h_N(mc) - h_N(fp)|  value=0.000029  tolerance=0.01  PASS\n"
        "max TV(blocks, stream)  value=0.002292  tolerance=0.01  PASS\n"
        "structural invariants   value=0.000000  tolerance=0  PASS\n"
    )


def test_verify_cubic_stream_check_passes_at_seed_11(tmp_path, capsys):
    # the density solved on uniform bins read max TV = 0.0103 here, over its 0.01 bound
    code, out, _ = run(capsys, "verify", "--map", "cubic_sample", "--seed", "11", "--out-dir", str(tmp_path))
    assert code == 0
    line = next(row for row in out.splitlines() if row.startswith("max TV(blocks, stream)"))
    assert line.endswith("PASS"), line
    assert out == (
        "L1(mc, fp)              value=0.026968  tolerance=0.05  PASS\n"
        "max|h_N(mc) - h_N(fp)|  value=0.000774  tolerance=0.01  PASS\n"
        "max TV(blocks, stream)  value=0.002728  tolerance=0.01  PASS\n"
        "structural invariants   value=0.000000  tolerance=0  PASS\n"
    )


def test_verify_check_stream_ignores_length(tmp_path, capsys):
    # verify offers no --length, so a config file's length must not reach it
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"length": 3_000_000}))
    _, plain, _ = run(capsys, *VERIFY_TENT_ARGS, "--out-dir", str(tmp_path))
    _, with_file, _ = run(capsys, *VERIFY_TENT_ARGS, "--config", str(p), "--out-dir", str(tmp_path))
    assert with_file == plain


def test_verify_reports_invariant_failure(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise InvariantViolation("forced")

    monkeypatch.setattr(analysis, "check_invariants", broken)
    code, out, _ = run(capsys, *VERIFY_TENT_ARGS, "--out-dir", str(tmp_path))
    assert code == 1
    assert out == (
        "L1(mc, fp)              value=0.013813  tolerance=0.05  PASS\n"
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
        (["analyze", "--depth", "2"], 0),  # operator density: no visit budget
        (["bitgen", "--length", "1000"], 0),  # no density at all
        (["analyze", "--method", "montecarlo"], 2),
        (["density", "--method", "both"], 2),
        (["verify"], 2),  # verify always builds a Monte Carlo density
    ],
)
def test_monte_carlo_floors_only_where_a_monte_carlo_density_is_built(tmp_path, capsys, argv, code):
    # the default K = 4e6 is below 100 * L = 6553600; bitgen takes no --L, so
    # every run reads L from a config file
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"density": {"L": 65536}}))
    got, _, err = run(capsys, *argv, "--config", str(p), "--map", "tent", "--out-dir", str(tmp_path))
    assert got == code, err
    assert ("config error: density.K: " in err) == (code == 2)


def test_monte_carlo_warnings_reach_the_caller(tmp_path, capsys):
    # logistic cells near 0 shrink below a 1/64 bin from depth 4; at K = 6400
    # h_N rises by 8.75e-3, above the Monte Carlo slack 0.5 / sqrt(K) = 6.25e-3
    with pytest.warns(RuntimeWarning) as caught:
        code, out, _ = run(
            capsys, "analyze", "--map", "logistic", "--method", "montecarlo",
            "--L", "64", "--K", "6400", "--depth", "6", "--out-dir", str(tmp_path),
        )
    assert code == 0 and out.startswith("analyze map=logistic")
    assert warning_kinds(caught) == set(WARNING_KINDS)


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
        # 1e999 parses as inf; an infinite rate was written to report.json as
        # `Infinity`, and an infinite tolerance stopped the operator after one step
        pytest.param('{"density": {"tol": 1e999}}', [], "density.tol", id="tol-1e999"),
        pytest.param({}, ["--tol", "inf"], "density.tol", id="tol-flag-inf"),
        pytest.param('{"input_rate": 1e999}', [], "input_rate", id="input_rate-1e999"),
        pytest.param({}, ["--rate", "inf"], "input_rate", id="input_rate-flag-inf"),
        # map configs that raised a traceback (exit 1)
        *(
            pytest.param({"map": {"type": "polynomial", **kw}}, [], "map", id=f"polynomial-{name}")
            for name, kw in [
                ("coefficients-abc", {"coefficients": "abc", "critical_points": []}),
                ("critical-points-x", {"coefficients": [0, 4, -4], "critical_points": ["x"]}),
                ("coefficients-empty", {"coefficients": [], "critical_points": []}),
                ("critical-points-scalar", {"coefficients": [0, 4, -4], "critical_points": 0.5}),
                ("critical-points-repeated", {"coefficients": [0, 4, -4], "critical_points": [0.5, 0.5]}),
                # accepted with wrong answers: a peak of 1.25 (h read 0.31), and
                # undeclared critical points (no convergence, or all mass lost)
                ("peak-above-one", {"coefficients": [0, 5, -5], "critical_points": [0.5]}),
                ("critical-point-misplaced", {"coefficients": [0, 4, -4], "critical_points": [0.3]}),
                ("critical-point-missing", {"coefficients": [0, 4, -4], "critical_points": []}),
                # a subnormal leading coefficient overflowed the derivative's roots
                ("coefficients-subnormal-lead", {"coefficients": [0, 0.5, 0, 1e-310], "critical_points": []}),
            ]
        ),
        pytest.param(
            {"map": {"type": "piecewise_linear", "breakpoints": [0, "a", 1], "values": [0, 1, 0]}}, [], "map",
            id="piecewise-breakpoint-a",
        ),
        pytest.param(
            {"map": {"type": "piecewise_linear", "breakpoints": [0, 0.5, 1], "values": [0, 1, 1]}}, [], "map",
            id="piecewise-flat",
        ),
        pytest.param({"map": {"type": "builtin", "name": ["tent"]}}, [], "map", id="builtin-name-list"),
        # map configs that were accepted: a name that is not a string (printed
        # as map=['x', 1]), and keys no map type reads (ignored)
        *(
            pytest.param({"map": cfg}, [], "map", id=name)
            for name, cfg in [
                ("polynomial-name-list", {"type": "polynomial", "coefficients": [0, 4, -4],
                                          "critical_points": [0.5], "name": ["x", 1]}),
                ("piecewise-name-number", {"type": "piecewise_linear", "breakpoints": [0, 0.5, 1],
                                           "values": [0, 1, 0], "name": 3}),
                ("builtin-extra-key", {"type": "builtin", "name": "tent", "extra": 1}),
                ("polynomial-extra-key", {"type": "polynomial", "coefficients": [0, 4, -4],
                                          "critical_points": [0.5], "extra": 1}),
                ("piecewise-critical-points", {"type": "piecewise_linear", "breakpoints": [0, 0.5, 1],
                                               "values": [0, 1, 0], "critical_points": [0.5]}),
                ("type-list", {"type": ["builtin"], "name": "tent"}),
            ]
        ),
    ],
)
def test_malformed_value_exits_2(tmp_path, capsys, config, flags, path):
    p = tmp_path / "cfg.json"
    p.write_text(config if isinstance(config, str) else json.dumps(config))
    # bitgen offers every flag here but --tol and --rate, which analyze reads
    command = ["bitgen", "--length", "1000"] if set(flags[::2]) <= OFFERED_FLAGS["bitgen"] else ["analyze"]
    code, _, err = run(capsys, *command, "--config", str(p), *flags, "--out-dir", str(tmp_path))
    assert code == 2
    assert f"config error: {path}: " in err


TENT, PART = cr.tent_map(), cr.symmetric_partition()


def analyze_tent(input_rate):
    return cr.run_analysis(TENT, PART, 2, density=cr.fp_fixed_point(TENT, 256), input_rate=input_rate)


# each argument rule, broken once through the library function that reads the
# value and once through the config field: (call, field, CLI argv)
ARGUMENT_RULES = {
    "L": (lambda: cr.mc_density(TENT, 32, seed=0, K=200_000), "L", ["density", "--L", "32"]),
    "K": (lambda: cr.mc_density(TENT, 1024, seed=0, K=10_240), "K",
          ["density", "--method", "montecarlo", "--L", "1024", "--K", "10240"]),
    "burn_in": (lambda: cr.mc_density(TENT, 1024, seed=0, K=200_000, burn_in=10), "burn_in",
                ["analyze", "--method", "montecarlo", "--burn-in", "10"]),
    "tol-0": (lambda: cr.fp_fixed_point(TENT, 256, tol=0.0), "tol", ["density", "--tol", "0"]),
    "tol-inf": (lambda: cr.fp_fixed_point(TENT, 256, tol=math.inf), "tol", ["density", "--tol", "inf"]),
    "tol-nan": (lambda: cr.fp_fixed_point(TENT, 256, tol=math.nan), "tol", ["density", "--tol", "nan"]),
    "grid_factor-mc": (lambda: cr.mc_density(TENT, 64, seed=0, K=6_400, grid_factor=0), "grid_factor",
                       ["density", "--method", "montecarlo", "--grid-factor", "0"]),
    "grid_factor-fp": (lambda: cr.fp_fixed_point(TENT, 256, grid_factor=0), "grid_factor",
                       ["density", "--grid-factor", "0"]),
    "depth-0": (lambda: cr.refinement_ladder(TENT, PART, 0), "depth", ["analyze", "--depth", "0"]),
    "depth-21": (lambda: cr.refinement_ladder(TENT, PART, 21), "depth", ["verify", "--depth", "21"]),
    "length": (lambda: cr.generate_bits(TENT, PART, 0, seed=0), "length", ["bitgen", "--length", "0"]),
    "stream_grid-8": (lambda: cr.generate_bits(TENT, PART, 10, seed=0, L=8), "stream_grid",
                      ["bitgen", "--stream-grid", "8"]),
    "stream_grid-2^53+1": (lambda: cr.bit_chunks(TENT, PART, 10, seed=0, L=2**53 + 1), "stream_grid",
                           ["bitgen", "--stream-grid", str(2**53 + 1)]),
    "start": (lambda: cr.generate_bits(TENT, PART, 10, seed=0, start=1.5), "start", ["bitgen", "--start", "1.5"]),
    "input_rate-negative": (lambda: cr.rate_budget(-1.0, 0.5), "input_rate", ["analyze", "--rate", "-1"]),
    "input_rate-inf": (lambda: cr.rate_budget(math.inf, 0.5), "input_rate", ["analyze", "--rate", "inf"]),
    "input_rate-nan": (lambda: cr.rate_budget(math.nan, 0.5), "input_rate", ["analyze", "--rate", "nan"]),
    # run_analysis reported R_d = inf (written to report.json as `Infinity`) and nan
    "run_analysis-inf": (lambda: analyze_tent(math.inf), "input_rate", ["analyze", "--rate", "1e999"]),
    "run_analysis-nan": (lambda: analyze_tent(math.nan), "input_rate", ["analyze", "--rate", "NaN"]),
}


@pytest.mark.parametrize("rule", list(ARGUMENT_RULES))
def test_each_argument_rule_is_the_librarys_and_the_configs(tmp_path, capsys, rule):
    call, name, argv = ARGUMENT_RULES[rule]
    with pytest.raises(ArgumentError) as exc:
        call()
    assert exc.value.param == name
    assert str(exc.value).startswith(f"{name}: ")
    (f,) = [f for f in fields(AnalysisConfig) if f.name == name]
    code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert err.startswith(f"config error: {f.metadata['path']}: "), err
    assert not any(tmp_path.iterdir())  # refused before any work


def test_verify_refuses_a_K_too_small_for_its_L1_gate(tmp_path, capsys):
    # 1.2 times the expected L1 of K visits, at most sqrt(2L/(pi K)), plus 4 sd
    # of sqrt((1 - 2/pi)/K), must stay under the 0.05 gate: at the default L 4096,
    # K = 1e6 read L1(mc, fp) 0.052-0.054 and failed on every built-in map
    code, _, err = run(capsys, "verify", "--K", "1000000", "--out-dir", str(tmp_path))
    assert code == 2
    assert err.startswith("config error: density.K: ") and "needs K >= 1622505 at L = 4096" in err
    code, _, err = run(capsys, "verify", "--L", "256", "--K", "125750", "--out-dir", str(tmp_path))
    assert code == 2 and "needs K >= 125751 at L = 256" in err
    code, out, err = run(capsys, "verify", "--K", "1622505", "--out-dir", str(tmp_path))
    assert code == 0, out + err


def test_malformed_config_file_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--config", str(p))
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("flag, path", [("--config", "config"), ("--map", "map")])
def test_unreadable_json_file_exits_2(tmp_path, capsys, flag, path):
    # a directory exists but cannot be read: --map raised IsADirectoryError
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")  # not UTF-8
    for target in (tmp_path, tmp_path / "binary.json"):
        code, _, err = run(capsys, "analyze", flag, str(target), "--out-dir", str(tmp_path / "out"))
        assert code == 2, target
        assert err.startswith(f"config error: {path}: "), err
