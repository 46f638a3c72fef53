"""Every script under demos/, and README's library quick start, runs to
completion and prints its report."""
import hashlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# text from a line each demo prints at or near its end
MARKERS = {
    "01_invariant_density.py": "cubic_sample density profile",
    "02_partition_refinement.py": "iterated bits",
    "03_entropy_curve.py": "tent map baseline",
    "04_bitstream_extractor.py": "Von Neumann:",
}


# sha256 of each demo's stdout, as printed before the demos' calls took
# keyword arguments in place of parameter objects; demo 01's since the Monte
# Carlo route steps the noisy continuous chain
STDOUT_SHA256 = {
    "01_invariant_density.py": "f0d3a6b17754f16a8ff873b7bbb2b5b8b603bf40f227b89e7dc7db8ad19d8d98",
    "02_partition_refinement.py": "c123c5fc92b0244a6472c4a7f60945293d401622129e2e4a38dd6c88919a2ae4",
    "03_entropy_curve.py": "ca733a63d5a62e88ed4f606ce884300d3a8f2825e223abf0d010f3496ac39be7",
    "04_bitstream_extractor.py": "2a19206018bdebd6724cdc9000812fec74740866e585977ede6b6136c0f0d8ea",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert MARKERS[demo.name] in out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[demo.name]


def test_readme_quick_start_prints_its_comments(capsys):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    printed = [float(line) for line in capsys.readouterr().out.split()]
    # each value at the precision of the comment beside it
    assert [f"{v:.3g}" for v in printed] == ["0.0714", "0.981", "9.81e+05"]
