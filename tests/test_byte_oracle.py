"""How far tools/byte_oracle.py reports a differing output file moved."""
import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("byte_oracle", Path(__file__).resolve().parents[1] / "tools" / "byte_oracle.py")
byte_oracle = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_oracle)
drift = byte_oracle.drift


def write(path, text):
    path.write_text(text)
    return path


def test_drift_is_the_largest_move_of_a_number_at_its_position(tmp_path):
    a = write(tmp_path / "a.json", '{"H": [1.0, 0.5], "h_estimate": 0.25, "map": "cubic", "depth": 6}')
    b = write(tmp_path / "b.json", '{"H": [1.0, 0.5000000000000071], "h_estimate": 0.2500000000000001, "map": "cubic", "depth": 6}')
    moved = 0.5000000000000071 - 0.5
    assert drift(a, b) == f"largest difference {moved:.3g}, relative {moved / 0.5000000000000071:.3g}"
    assert drift(a, a) == "largest difference 0, relative 0"
    a = write(tmp_path / "a.csv", "t,f\n0.5,1.25\n1,0.1\n")
    b = write(tmp_path / "b.csv", "t,f\n0.5,1.5\n1,0.2\n")
    # the relative move is largest where the absolute one is not
    assert drift(a, b) == "largest difference 0.25, relative 0.5"


def test_drift_names_a_change_of_anything_but_the_numbers(tmp_path):
    base = write(tmp_path / "a.json", '{"H": [1.0, 0.5], "map": "cubic"}')
    for i, other in enumerate(('{"H": [1.0], "map": "cubic"}', '{"H": [1.0, 0.5], "map": "tent"}',
                               '{"H": [1.0, 0.5], "name": "cubic"}', '{"H": [1.0, "0.5"], "map": "cubic"}')):
        assert drift(base, write(tmp_path / f"b{i}.json", other)) == "structure differs", other
    a = write(tmp_path / "a.csv", "t,f\n0.5,1.25\n")
    for i, other in enumerate(("t,g\n0.5,1.25\n", "t,f\n0.5,1.25\n1,1\n", "t,f\n0.5\n")):
        assert drift(a, write(tmp_path / f"b{i}.csv", other)) == "structure differs", other
