"""Paired benchmark runs: does a change beat the tree it started from?

Usage: python3 tools/perf_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N
                                   [--seconds S] [--first-seed K]

Pair i runs ``perfbench/run.py --workload W --seed K+i --seconds S --trace 0``
once in each tree, from that tree's own ``perfbench/`` and ``src/``.  Which
tree runs first alternates from pair to pair: a shared host can switch
between a fast and a slow mode for minutes, and a single reading, or runs
of one tree in a row, would credit that switch to the change.  S defaults
to the ``run_seconds`` of the change tree's ``BENCHMARK.json``.

Each run's result is the JSON object on the last line of its stdout.  The
script exits 1 when a run does not end with one, reads ``correct: false`` or
fails an operation, and before the first run when only one tree's ``src/``
holds ``__pycache__`` (:func:`bytecode_skew`).  Otherwise, for every
end-to-end metric of the change tree's ``BENCHMARK.json``, it prints each
side's median and quartiles, the change's wins out of N and the
:func:`verdict`, and exits 0.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare the paired readings of one metric; parent[i] and change[i]
    come from pair i.

    A pair is a win when the change reads better, in the direction `better`
    ("lower" or "higher"); a tie counts for neither side.  The verdict is

    - "gain shown": the change wins at least 9 in 10 of the pairs, and its
      median is better than the parent's by more than the parent's
      interquartile range;
    - "worse": the change's median is worse than the parent's by more than
      `bound`, a fraction of the parent's median (the metrics differ in unit
      and size, and one bound serves every workload);
    - "unresolved": neither, while the parent's interquartile range is
      wider than the bound, unless every change reading beats every parent
      reading: runs that spread this widely cannot show the bound holds;
    - "within bound" otherwise.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number of readings on each side, at least two")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0 is better
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    iqr = p_q3 - p_q1
    gain = sign * (p_med - c_med)  # how much better the change's median is
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if 10 * wins >= 9 * len(parent) and gain > iqr:
        name = "gain shown"
    elif -gain > bound * abs(p_med):
        name = "worse"
    elif iqr > bound * abs(p_med) and not every_run_better:
        name = "unresolved"
    else:
        name = "within bound"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "verdict": name,
    }


def bytecode_skew(parent: Path, change: Path) -> str | None:
    """Why the two trees cannot be compared, or None: only one tree's ``src/``
    holds ``__pycache__``.

    Where PYTHONDONTWRITEBYTECODE=1 is set, the tree with bytecode skips
    compiling the package in every child and the other does not, which moved
    setup_s by 15-24 ms and analyze-d11's peak RSS by 1.2 MB on 10 of 10
    pairs, all of it credited to the code.
    """
    cached = [tree for tree in (parent, change) if any((tree / "src").rglob("__pycache__"))]
    if len(cached) != 1:
        return None
    return (f"{cached[0]}: src/ holds __pycache__ and the other tree's does not; "
            "remove it, or compile both trees, so that both children compile alike")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result JSON of one benchmark run in `tree`; exits 1 on a bad run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{tree}: seed {seed} ended without a result line (exit code {proc.returncode})\n{proc.stderr}")
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree}: seed {seed} reads correct={result['correct']}, "
                 f"{result['failed']} of {result['attempted']} operations failed")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    trees = (args.parent.resolve(), args.change.resolve())
    skew = bytecode_skew(*trees)
    if skew:
        sys.exit(skew)
    spec = json.loads((trees[1] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    readings: tuple[list, list] = ([], [])
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        results = {side: run_once(trees[side], args.workload, seed, seconds) for side in order}
        for side in (0, 1):
            readings[side].append(results[side]["metrics"])
        row = ", ".join(f"{m['name']} {results[0]['metrics'][m['name']]['value']:.4g} -> "
                        f"{results[1]['metrics'][m['name']]['value']:.4g}" for m in spec["end_to_end"])
        print(f"pair {i + 1} seed {seed} ({'parent' if order[0] == 0 else 'change'} first): {row}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.first_seed}..{args.first_seed + args.pairs - 1}, "
          f"{seconds:g} s a run; median [q1, q3]")
    for m in spec["end_to_end"]:
        name = m["name"]
        p, c = ([r[name]["value"] for r in side] for side in readings)
        v = verdict(p, c, m["better"], m["bound"])
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = v["parent"], v["change"]
        print(f"  {name} ({m['unit']}): parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}], "
              f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}], change wins {v['wins']}/{v['pairs']}: {v['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
