"""Byte oracle: do two source trees write the same bytes?

Usage: python3 tools/byte_oracle.py PARENT_TREE CHANGE_TREE

Runs every operation of the benchmark's workloads (``WORKLOADS`` in
``perfbench/run.py``, loaded read-only from CHANGE_TREE; the workloads that
its ``BENCHMARK.json`` names) at seed 0 in each tree, from that
tree's own ``src/``, with the same relative ``--out-dir``.  It adds the
commands of ``EXTRA_OPS``, which no workload runs: ``density --method
both``, the only writer of density files, and a Monte Carlo ``analyze``.
The analyze, bitgen and density operations with a built-in ``--map``, the
Monte Carlo analyze excepted, also run on a polynomial and on a
piecewise-linear map config, so bisection and linear branch inverses are
covered as well as the built-ins' closed forms.

For every command it compares the exit code, stdout and each file written,
by sha256.  Stderr is not compared: warnings name source paths, which differ
between the trees.  Prints one line per command and exits 1 on any
difference; a differing ``.json`` or ``.csv`` file is followed by how far
its numbers moved (:func:`drift`), so that a change of a few ulp reads as
one.  The outputs stay under ``.byte_oracle/`` in each tree, which
is emptied first.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

OUT_REL = ".byte_oracle"
# the maps whose branches the built-ins do not exercise: a polynomial config
# inverts by bisection, a piecewise-linear one by its linear segments
MAP_CONFIGS = {
    "polynomial": {"type": "polynomial", "coefficients": [0, 4, -4], "critical_points": [0.5]},
    "piecewise_linear": {"type": "piecewise_linear", "breakpoints": [0, 0.4, 1], "values": [0, 1, 0]},
}
#: label: (argv without --seed, --workers and --out-dir, whether it also runs on MAP_CONFIGS)
EXTRA_OPS = {
    "density-both": (["density", "--map", "cubic_sample", "--method", "both"], True),
    "analyze-montecarlo": (["analyze", "--map", "cubic_sample", "--method", "montecarlo", "--depth", "8"], False),
}


def load_workloads(tree: Path) -> dict:
    """``WORKLOADS`` of the tree's ``perfbench/run.py``, which is only read."""
    perfbench = tree / "perfbench"
    sys.path.insert(0, str(perfbench))  # run.py imports its siblings (`spans`, `checks`)
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their annotations through it
    spec.loader.exec_module(module)
    return module.WORKLOADS


def commands(workloads: dict, names: list[str]) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command to compare, each with its own --out-dir."""
    ops = [
        (f"{name}/{op.name}", op.argv(0), op.args[0] in ("analyze", "bitgen"))
        for name in names
        for op in workloads[name]
    ]
    ops += [(label, [*args, "--seed", "0", "--workers", "1", "--out-dir", OUT_REL], vary)
            for label, (args, vary) in EXTRA_OPS.items()]
    out = []
    for label, argv, vary in ops:
        variants = [(label, argv)]
        if vary and "--map" in argv:
            i = argv.index("--map") + 1
            variants += [
                (f"{label}-{kind}", [*argv[:i], f"{OUT_REL}/maps/{kind}.json", *argv[i + 1:]])
                for kind in MAP_CONFIGS
            ]
        for variant, args in variants:
            j = args.index("--out-dir") + 1
            out.append((variant, [*args[:j], f"{OUT_REL}/{variant}", *args[j + 1:]]))
    return out


def run(tree: Path, argv: list[str]) -> dict[str, str]:
    """sha256 of the exit code, stdout and each output file of one command."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    script = "import sys; from chaosrng.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tree, env=env, capture_output=True)
    digest = {"exit code": str(proc.returncode), "stdout": hashlib.sha256(proc.stdout).hexdigest()}
    out = tree / argv[argv.index("--out-dir") + 1]
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


def _flatten(value, numbers: list[float]):
    """The structure of a parsed document with every number replaced by "#"
    and appended to `numbers`, in document order."""
    if isinstance(value, dict):
        return {k: _flatten(v, numbers) for k, v in value.items()}
    if isinstance(value, list):
        return [_flatten(v, numbers) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(float(value))
        return "#"
    return value


def _csv_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def drift(a: Path, b: Path) -> str:
    """How far the numbers of two versions of a .json or .csv file moved: the
    largest absolute difference between the numbers at matching positions
    and the largest relative one, or "structure differs" when anything but
    the numbers differs."""
    docs = []
    for path in (a, b):
        text = path.read_text()
        if path.suffix == ".json":
            doc = json.loads(text)
        else:
            doc = [[_csv_cell(cell) for cell in row] for row in csv.reader(text.splitlines())]
        numbers: list[float] = []
        docs.append((_flatten(doc, numbers), numbers))
    (shape_a, xs), (shape_b, ys) = docs
    if shape_a != shape_b:
        return "structure differs"
    moved = [(abs(x - y), abs(x - y) / max(abs(x), abs(y))) for x, y in zip(xs, ys) if x != y] or [(0.0, 0.0)]
    absolute, relative = map(max, zip(*moved))
    return f"largest difference {absolute:.3g}, relative {relative:.3g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    names = [w["name"] for w in json.loads((trees[1] / "BENCHMARK.json").read_text())["workloads"]]
    cmds = commands(load_workloads(trees[1]), names)
    for tree in trees:
        shutil.rmtree(tree / OUT_REL, ignore_errors=True)
        (tree / OUT_REL / "maps").mkdir(parents=True)
        for kind, cfg in MAP_CONFIGS.items():
            (tree / OUT_REL / "maps" / f"{kind}.json").write_text(json.dumps(cfg))
    differ = 0
    for label, argv in cmds:
        before, after = (run(tree, argv) for tree in trees)
        diff = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
        differ += bool(diff)
        out = argv[argv.index("--out-dir") + 1]
        moved = [
            f"{k} ({drift(trees[0] / out / k, trees[1] / out / k)})"
            if k.endswith((".json", ".csv")) and k in before and k in after else k
            for k in diff
        ]
        status = f"DIFFERENT {', '.join(moved)}" if diff else "same"
        print(f"{label}: {status} (exit code {after['exit code']}, stdout and {len(after) - 2} files)")
    print(f"{len(cmds) - differ} of {len(cmds)} commands byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
