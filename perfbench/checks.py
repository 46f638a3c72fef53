"""Output checks for each benchmark operation, and output hashing.

The landmarks are the published ones (PAPER.md); the tolerances are copied
unchanged from tests/test_acceptance.py.  A failed check fails its operation.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

P0 = 0.57                                              # acceptance 1, ±0.02
P2 = {"00": 0.35, "01": 0.22, "10": 0.23, "11": 0.20}  # acceptance 2, ±0.02
H1 = 0.9859                                            # acceptance 4, ±0.002
H_MIN = 0.98                                           # acceptance 4: h_estimate above
MONOTONE_SLACK = 1e-6                                  # acceptance 4
VN_MONOBIT = 0.5                                       # acceptance 9, ±0.005

VERIFY_CHECKS = (
    "L1(mc, fp)",
    "max|h_N(mc) - h_N(fp)|",
    "max TV(blocks, stream)",
    "structural invariants",
)

# Failures of `chaosrng verify` present at the commit that defined this
# benchmark (--workers 1), with the values measured there over 35 runs (seeds
# 1-5 and 11-30) and a ceiling above the largest.  Up to its ceiling such a
# failure still fails its operation and counts in `failed`, but does not make
# the run incorrect.  Above its ceiling, and for any other failed check, it
# does.
KNOWN_DEFECTS = {
    # 0.132 at seed 0, 0.1320-0.1343 measured, against 0.05 at default sizes
    ("cubic_sample", "L1(mc, fp)"): 0.14,
    # 0.203 at seed 0, 0.2015-0.2045 measured, against 0.05 at default sizes
    ("logistic", "L1(mc, fp)"): 0.21,
    # 0.0097 at seed 0, just under its 0.01 bound; 0.0078-0.0103 measured,
    # and 0.01027 at seed 11, where the check fails
    ("cubic_sample", "max TV(blocks, stream)"): 0.011,
}

_VERIFY_LINE = re.compile(r"^(.*?)\s+value=(\S+)\s+tolerance=(\S+)\s+(PASS|FAIL)$")


@dataclass
class Check:
    name: str
    value: float
    want: str
    ok: bool
    known_defect: bool = False

    def line(self) -> str:
        status = "PASS" if self.ok else ("FAIL (known defect)" if self.known_defect else "FAIL")
        return f"{self.name}: value={self.value:.6g} want {self.want}  {status}"


def _near(name: str, value: float, target: float, tol: float) -> Check:
    return Check(name, value, f"{target}±{tol}", abs(value - target) < tol)


def check_analyze(out_dir: Path) -> tuple[list[Check], dict]:
    """Landmarks of `analyze` from its report.json."""
    r = json.loads((out_dir / "report.json").read_text())
    # the report carries bias = |P(0) - 1/2|; the published P(0) lies above 1/2
    p0 = 0.5 + r["bias"]
    h = r["h"]
    defect = max([0.0] + [b - a for a, b in zip(h, h[1:])])
    checks = [
        _near("P(0)", p0, P0, 0.02),
        _near("h_1", h[0], H1, 0.002),
        Check("h_estimate", r["h_estimate"], f"> {H_MIN}", r["h_estimate"] > H_MIN),
        Check("monotone defect", defect, f"<= {MONOTONE_SLACK}", defect <= MONOTONE_SLACK),
    ]
    return checks, {"landmark_dev": max(abs(p0 - P0), abs(h[0] - H1))}


def check_bitgen(out_dir: Path, length: int) -> tuple[list[Check], dict]:
    """Landmarks of `bitgen --von-neumann` from its bitgen_summary.json."""
    s = json.loads((out_dir / "bitgen_summary.json").read_text())
    patterns = s["patterns"]
    checks = [
        Check("length", s["length"], f"== {length}", s["length"] == length),
        _near("P(0)", patterns["1"]["0"], P0, 0.02),
    ]
    checks += [_near(f"P({w})", patterns["2"][w], p, 0.02) for w, p in P2.items()]
    checks.append(_near("Von Neumann monobit", s["von_neumann"]["monobit_frequency"], VN_MONOBIT, 0.005))
    dev = max(abs(c.value - t) for c, t in zip(checks[1:], [P0, *P2.values(), VN_MONOBIT]))
    return checks, {"landmark_dev": dev, "bits": s["length"]}


def check_verify(map_name: str, exit_code: int, stdout: str) -> tuple[list[Check], dict]:
    """verify's own PASS/FAIL lines, and an exit code that agrees with them."""
    lines = {}
    for raw in stdout.splitlines():
        m = _VERIFY_LINE.match(raw.strip())
        if m:
            lines[m.group(1).strip()] = (float(m.group(2)), m.group(3), m.group(4) == "PASS")
    checks = []
    for name in VERIFY_CHECKS:
        if name not in lines:
            checks.append(Check(name, float("nan"), "a PASS/FAIL line", False))
            continue
        value, tol, ok = lines[name]
        ceiling = KNOWN_DEFECTS.get((map_name, name), float("-inf"))
        checks.append(Check(name, value, f"< {tol}", ok, not ok and value <= ceiling))
    want_code = 0 if all(c.ok for c in checks) else 1
    checks.append(Check("exit code", exit_code, f"== {want_code}", exit_code == want_code))
    values = {
        "l1_mc_fp": lines.get("L1(mc, fp)", (float("nan"),))[0],
        "tv_stream": lines.get("max TV(blocks, stream)", (float("nan"),))[0],
    }
    return checks, values


def digest_outputs(out_dir: Path, stdout: str) -> str:
    """sha256 over every output file (name and bytes) and the printed text."""
    h = hashlib.sha256()
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    h.update(b"stdout\0" + stdout.encode())
    return h.hexdigest()
