"""One benchmark pass in a fresh interpreter.

Usage: python worker.py ROOT TRACE [SPANS_PATH] < items.json

Reads the items of a workload as JSON on stdin, imports blfsig from
ROOT/src (timed: the set-up a ``blfsig`` command pays), runs every item
through the public API in order, and prints one JSON object on stdout:
set-up time, per-item latency, per-item output or error, peak RSS and,
when TRACE is 1, the span summary.  Caches are never cleared and gc is
never disabled between items: a batch caller of compute_report gets
neither.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction


def _cycle(surface, doc):
    return surface.TypeI() if doc["type"] == "I" else surface.TypeII(doc["h"])


def _runners():
    """item kind -> (timed call, untimed extraction of the checked output)."""
    from blfsig import fibration, locsig, meyer, surface, words

    def spec(item):
        return fibration.compute_report(fibration.spec_from_json(item["doc"])).to_dict()

    def spec_out(rep):
        return {"sig": rep["signature"], "chi": rep["euler_characteristic"],
                "meyer": rep["meyer_path_signature"], "agree": rep["two_paths_agree"],
                "valid": rep["validation"]["ok"],
                "homeo": rep["homeomorphism"]["display"] or rep["homeomorphism"]["status"],
                "h": [v for _, v in rep["h_terms"]],
                "sigma": str(sum((Fraction(v) for _, v in rep["sigma_terms"]), Fraction(0)))}

    def phi(item):
        return {"phi": str(meyer.phi(words.parse_word(item["word"], item["g"])))}

    def tau(item):
        g = item["g"]
        A = surface.word_to_matrix(words.parse_word(item["word"], g))
        B = surface.word_to_matrix(words.parse_word(item["word_b"], g))
        return {"tau": int(meyer.tau(A, B))}

    def h(item):
        ctx = locsig.CycleContext(item["g"], _cycle(surface, item["cycle"]))
        return {"h": str(locsig.h_word(words.parse_word(item["word"], item["g"]), ctx))}

    def decomposition(item):
        ctx = locsig.CycleContext(item["g"], _cycle(surface, item["cycle"]))
        r = locsig.decomposition_check(words.parse_word(item["word"], item["g"]), ctx)
        return {"h": str(r.homomorphism), "s": int(r.s_term), "phi": str(r.phi_term),
                "pushed": str(r.pushed_phi_term), "agrees": bool(r.agrees)}

    same = lambda out: out  # noqa: E731
    return {"spec": (spec, spec_out), "phi": (phi, same), "tau": (tau, same),
            "h": (h, same), "decomposition": (decomposition, same)}


def main(argv) -> int:
    root, trace = argv[1], argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None
    items = json.load(sys.stdin)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import blfsig  # noqa: E402
    import blfsig.cli  # noqa: E402,F401
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(blfsig.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"blfsig imported from {blfsig.__file__}, not from {src}", file=sys.stderr)
        return 2
    recorder = None
    if trace:
        from spans import ITEM, Recorder
        recorder = Recorder()
        recorder.install()
        item_id = recorder.intern(ITEM)
    runners = _runners()
    latencies, outputs, errors = [], [], []
    for k, item in enumerate(items):
        call, extract = runners[item["kind"]]
        if recorder:
            recorder.current_item = k
            span = recorder.open(item_id)
        t = time.perf_counter_ns()
        try:
            raw, error = call(item), None
        except Exception as e:  # an item that raises is a failed item
            raw, error = None, f"{type(e).__name__}: {e}"
        latencies.append(time.perf_counter_ns() - t)
        if recorder:
            recorder.close(span)
        outputs.append(None if raw is None else extract(raw))
        errors.append(error)
    result = {"setup_s": setup_s, "latencies_ns": latencies,
              "outputs": outputs, "errors": errors,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "numpy": getattr(sys.modules.get("numpy"), "__version__", None)}
    if recorder:
        result["trace"] = recorder.summary()
        result["wrapped"] = recorder.wrapped
        if spans_path:
            recorder.write(spans_path)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
