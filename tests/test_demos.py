"""Every script under demos/ runs to completion and prints its report."""
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# text from a line each demo prints at or near its end
MARKERS = {
    "01_invariant_density.py": "cubic_sample density profile",
    "02_partition_refinement.py": "iterated bits",
    "03_entropy_curve.py": "tent map baseline",
    "04_bitstream_extractor.py": "Von Neumann:",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert MARKERS[demo.name] in capsys.readouterr().out
