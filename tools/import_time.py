"""How long ``blfsig`` takes to import.

    python3 tools/import_time.py [--root CHECKOUT] [--runs N] [--top K]

Runs ``import blfsig, blfsig.cli`` in N fresh interpreters (default 20),
one after the other, each importing blfsig from CHECKOUT/src (default: the
checkout this script lies in) under the caller's environment, so
``PYTHONDONTWRITEBYTECODE`` and the like apply as they do to a ``blfsig``
command.  Each interpreter times the two imports with ``time.perf_counter``,
as ``bench/worker.py`` times its set-up, and prints the names of the
modules they loaded.  The script prints one JSON object: the median and
minimum in seconds, every run's time, and the modules loaded.  With
``--top K`` it also runs one interpreter under ``-X importtime`` and adds
the K modules with the largest self time, in microseconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
t0 = time.perf_counter()
import blfsig, blfsig.cli
print(time.perf_counter() - t0)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def one_run(src: str) -> tuple[float, list[str]]:
    out = subprocess.run([sys.executable, "-c", CHILD, src], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    return float(out[0]), out[1].split() if len(out) > 1 else []


def importtime(code: str) -> list[dict]:
    """The ``-X importtime`` rows of one interpreter running ``code``."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                         capture_output=True, text=True, check=True).stderr
    rows = []
    for line in err.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        rows.append({"module": name.strip(), "self_us": int(self_us),
                     "cumulative_us": int(cumulative_us)})
    return rows


def top_entries(src: str, k: int) -> list[dict]:
    """The k largest self times of the modules that ``import blfsig,
    blfsig.cli`` loads, leaving out those the interpreter's start-up loads."""
    startup = {r["module"] for r in importtime("pass")}
    rows = importtime(f"import sys; sys.path.insert(0, {src!r}); import blfsig, blfsig.cli")
    rows = [r for r in rows if r["module"] not in startup]
    return sorted(rows, key=lambda r: -r["self_us"])[:k]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="source checkout whose src/ is imported")
    p.add_argument("--runs", type=int, default=20, help="fresh interpreters to time")
    p.add_argument("--top", type=int, default=0,
                   help="also report the K largest -X importtime self times")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be >= 1")
    src = str(args.root.resolve() / "src")
    times, modules = [], []
    for _ in range(args.runs):
        t, modules = one_run(src)
        times.append(t)
    result = {"python": platform.python_version(),
              "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
              "runs": args.runs, "median_s": statistics.median(times),
              "min_s": min(times), "times_s": times, "modules": modules}
    if args.top:
        result["importtime_top"] = top_entries(src, args.top)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
