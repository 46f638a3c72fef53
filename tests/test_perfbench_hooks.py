"""The benchmark's traced run wraps chaosrng functions by name; each must exist."""
import importlib.util
from pathlib import Path

from chaosrng import maps

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_stages_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # traced.py imports its sibling `spans`
    spec = importlib.util.spec_from_file_location("perfbench_traced", PERFBENCH / "traced.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    hooks = [(owner, attr) for owner, attr, _, _ in traced.STAGES] + [(maps, "map_from_config")]
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in hooks if not callable(getattr(o, a, None))]
    assert traced.STAGES
    assert not missing, missing
