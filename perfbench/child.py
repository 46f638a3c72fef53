"""Run one ``chaosrng`` CLI command in this fresh interpreter and time it.

Usage: python3 child.py RECORD.json -- <chaosrng arguments>

The record gets the monotonic time at which ``chaosrng.cli`` finished
importing (the end of set-up), the time the command returned, its exit code,
the CPU time it used after set-up and the process's peak resident set.
CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract its own
spawn time from ``ready`` to get the set-up time.
"""
import json
import resource
import sys
import time

import chaosrng.cli as cli


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    ready = time.monotonic()
    record_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: child.py RECORD.json -- <chaosrng arguments>")
    cpu0 = _cpu_s()
    code = cli.main(argv) if argv else 0
    end = time.monotonic()
    sys.stdout.flush()
    record = {
        "ready": ready,
        "end": end,
        "exit_code": code,
        "cpu_s": _cpu_s() - cpu0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
