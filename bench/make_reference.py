"""Write bench/reference/<workload>.json: the checked outputs of the
default-seed items, as the current checkout computes them.

    python3 bench/make_reference.py [WORKLOAD ...]

Run it only on a commit whose outputs are known to be right; it refuses to
write a reference when an output fails its own checks.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main(argv) -> int:
    seed = workloads.DEFAULT_SEED
    for workload in argv[1:] or workloads.WORKLOADS:
        items = workloads.make_items(workload, seed)
        result = run.run_pass(workload, items, False, time.monotonic() + 600)
        bad = run.check(seed, items, result, None)
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        path = run.BENCH / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"seed": seed, "outputs": result["outputs"]},
                      fh, ensure_ascii=False, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
