"""Traced run: the same ``chaosrng`` commands, with a span around each layer call.

Usage: python3 traced.py PLAN.json

PLAN.json holds ``{"ops": [{"name", "argv", "stdout"}], "trace": path}``.
Every op runs through ``chaosrng.cli.main`` in this one process, so the
commands execute exactly the code an untraced CLI run executes; the spans come
from wrappers that this file installs around the module-level functions the
commands call into (density, refinement, block tables, entropies, stream
generation, pattern counting, extraction, output writers).  Each map the CLI
builds is swapped for a copy, made with ``dataclasses.replace``, whose
branch inverses and ``raw_eval`` are timed.  No file under ``src/`` changes.
"""
from __future__ import annotations

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import chaosrng.cli as cli
from chaosrng import analysis, bitstream, density, entropy, maps, partition

from spans import Recorder


def _ladder_counts(rec: Recorder, ladder) -> None:
    rec.count("intervals.components", sum(len(c) for p in ladder for c in p.cells.values()))
    rec.count("partition.deepest_cells", 2 ** ladder[-1].depth)
    rec.count("partition.deepest_nonempty", ladder[-1].nonempty_count())


def _vn_counts(rec: Recorder, args, out) -> None:
    rec.count("bitstream.vn_in", np.size(args[0]))
    rec.count("bitstream.vn_out", np.size(out))


# (home module, attribute, span name, counter hook(rec, args, result) or None)
STAGES = [
    (cli, "_build_parser", "cli.config", None),
    (cli, "_config_from_args", "cli.config", None),
    (density, "density_for", "density.density_for", None),
    (density, "fp_fixed_point", "density.fp_fixed_point",
     lambda rec, a, f: rec.count("density.fp_fixed_point.iterations", f.meta["iterations"])),
    (density, "mc_density", "density.mc_density",
     lambda rec, a, f: rec.count("density.mc_density.visits", f.meta["K"])),
    (density, "l1_distance", "density.l1_distance", None),
    (partition, "refinement_ladder", "partition.refinement_ladder",
     lambda rec, a, ladder: _ladder_counts(rec, ladder)),
    (entropy, "block_probabilities", "entropy.block_probabilities",
     lambda rec, a, t: rec.count("entropy.block_probabilities.words", len(t.probs))),
    (entropy, "block_entropy", "entropy.block_entropy", None),
    (analysis, "run_analysis", "analysis.run_analysis", None),
    (analysis, "check_invariants", "analysis.check_invariants", None),
    (bitstream, "generate_bits", "bitstream.generate_bits",
     lambda rec, a, bits: rec.count("bitstream.generate_bits.bits", np.size(bits))),
    (bitstream, "empirical_pattern_probs", "bitstream.empirical_pattern_probs", None),
    (bitstream, "total_variation", "bitstream.total_variation", None),
    (bitstream, "monobit_frequency", "bitstream.monobit_frequency", None),
    (bitstream, "von_neumann_extract", "bitstream.von_neumann_extract", _vn_counts),
    (bitstream, "write_stream", "cli.outputs", None),
    (cli, "_write_json", "cli.outputs", None),
    (cli, "_stamp_csv", "cli.outputs", None),
    (entropy.EntropyReport, "to_json", "cli.outputs", None),
    (entropy.EntropyReport, "to_csv", "cli.outputs", None),
]


def _timed(rec: Recorder, fn, name: str, hook=None):
    def call(*args, **kwargs):
        with rec.span(name):
            out = fn(*args, **kwargs)
        if hook is not None:
            hook(rec, args, out)
        return out

    return call


def _timed_points(rec: Recorder, fn, name: str):
    def call(x):
        rec.count(name + ".points", np.size(x))
        with rec.span(name):
            return fn(x)

    return call


def timed_map(rec: Recorder, m: maps.MapModel) -> maps.MapModel:
    """Copy of `m` whose branch inverses and raw evaluation record spans."""
    return dataclasses.replace(
        m,
        raw_eval=_timed_points(rec, m.raw_eval, "maps.raw_eval"),
        branches=tuple(
            dataclasses.replace(b, inverse=_timed_points(rec, b.inverse, "maps.inverse"))
            for b in m.branches
        ),
    )


def _replace_everywhere(owner, attr: str, new) -> list:
    """Point every chaosrng module name bound to owner.attr at `new`.

    Modules that imported the function by name hold their own binding, so
    each one is rebound; returns what is needed to undo it."""
    orig = getattr(owner, attr)
    owners = [owner] if isinstance(owner, type) else [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "chaosrng" or name.startswith("chaosrng."))
    ]
    undo = []
    for o in owners:
        for key, val in list(vars(o).items()):
            if val is orig:
                setattr(o, key, new)
                undo.append((o, key, orig))
    return undo


# Every map built under instrumentation stays alive for the life of the
# process: ``density._fp_cache`` is keyed by ``id(map)``, and a freed map's id
# can be reused by a later map, which would then read the old map's data.
_built_maps: list = []


def instrument(rec: Recorder):
    """Install the span wrappers; returns a function that removes them."""

    def build_map(cfg):
        with rec.span("maps.build"):
            m = orig_build(cfg)
            wrapped = timed_map(rec, m)
        _built_maps.extend((m, wrapped))
        return wrapped

    orig_build = maps.map_from_config
    undo = _replace_everywhere(maps, "map_from_config", build_map)
    for owner, attr, name, hook in STAGES:
        undo += _replace_everywhere(owner, attr, _timed(rec, getattr(owner, attr), name, hook))

    def remove():
        for o, key, orig in reversed(undo):
            setattr(o, key, orig)

    return remove


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    rec = Recorder()
    instrument(rec)
    exit_codes = {}
    for op in plan["ops"]:
        rec.run = op["name"]
        buf = io.StringIO()
        with redirect_stdout(buf), rec.span("cli.main"):
            exit_codes[op["name"]] = cli.main(op["argv"])
        Path(op["stdout"]).write_text(buf.getvalue())
    Path(plan["trace"]).write_text(json.dumps({**rec.dump(), "exit_codes": exit_codes}))


if __name__ == "__main__":
    main()
