"""How the symplectic layers scale with the genus.

    python3 tools/genus_scaling.py [--root CHECKOUT]

Prints one JSON object with the time, in seconds, of

- ``word_matrix``: ``surface.word_matrix`` on two 40-letter words drawn by
  ``verify.random_word`` from ``random.Random(5)``, at g = 6, 10, 20, 50, 100;
- ``tau``: ``meyer._tau_cached`` on the matrices of those two words;
- ``tau_transvection``: ``meyer._tau_cached(A, T)`` with A the matrix of the
  first word and T = W t_1 W^-1, a transvection conjugated by the matrix W
  of the second;
- ``tau_minus_one``: ``meyer._tau_cached(A, -1)``, -1 being iota's matrix;
- ``validate``: ``fibration.validate`` on the ``mgn`` family at n = 1,
  g = 2, 4, 6, 8, 10, 20, 30, 50;
- ``meyer_path``: ``fibration.signature_meyer_path`` on the same specs at
  g = 10, 20, 30, 50, vanishing classes included;
- ``meyer_path_n4``: the same on ``mgn`` at n = 4, g = 10, 20, whose
  Hurwitz system is one block of 4g data repeated eight times;
- ``h_word``: ``locsig.h_word`` of ``t1^5 t3``, parsed at g, for a type I
  cycle at g = 10^3 and 10^6, where the word is short and the genus is not;
- ``phi_flat``: ``meyer.phi`` of a flat 200-letter word drawn by
  ``verify.random_word`` from ``random.Random(7)``, at g = 6, 20, 50;
- ``phi_long``: ``meyer.phi`` at g = 6 of a flat word of 2,000 letters
  ``t{randint(1, 13)}^{choice([-2, -1, 1, 2])}`` drawn from
  ``random.Random(3)``, then ``iota``, parsed from its text as
  ``blfsig phi`` parses it;
- ``phi_power_chain`` and ``phi_power_multitwist``: ``meyer.phi`` of
  ``(t1 t2 t3 t4)^1000003`` and of ``(t1 t3 t5)^1000003``, parsed at
  g = 6, 20, 50: a power whose tenth power is the identity on homology, and
  a multitwist;
- ``report_conjugated``: ``fibration.compute_report`` on ``mgn``(g, 1) with
  every datum's conjugator and the fold monodromy conjugated by
  ``t1 t2^-1``, a stabiliser word, at g = 10, 20;
- ``phi_shared``: ``meyer.phi`` at g = 2 of w_d, with w_0 = ``t1 t2`` and
  w_{k+1} = ``Word(2, ((w_k, 1), (t3, 1), (w_k, -1)))``, which holds 2^d
  occurrences of w_0 in 3d + 2 items, at depth d = 10, 20, 40: this
  column is keyed by d, not by the genus.

Each cell runs in its own interpreter, importing blfsig from CHECKOUT/src
(default: the checkout this script lies in), so every cache starts cold.
A cell repeats its call, clearing the caches in between, until it has run
five times or spent a second, and reports the fastest run.  A cell that
does not finish within BUDGET_S seconds is killed and recorded as
"> budget"; one that fails, for instance by exceeding the address-space
limit of MEMORY_MB megabytes, is recorded as "error: ...".
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

GENERA = (6, 10, 20, 50, 100)
FAMILY_GENERA = (10, 20, 30, 50)
REPEATED_BLOCK_GENERA = (10, 20)
VALIDATE_GENERA = (2, 4, 6, 8) + FAMILY_GENERA
H_WORD_GENERA = (10 ** 3, 10 ** 6)
PHI_FLAT_GENERA = (6, 20, 50)
PHI_LONG_GENERA = (6,)
PHI_POWER_GENERA = (6, 20, 50)
REPORT_GENERA = (10, 20)
SHARED_DEPTHS = (10, 20, 40)
PHI_POWER_WORDS = {"phi_power_chain": "(t1 t2 t3 t4)^1000003",
                   "phi_power_multitwist": "(t1 t3 t5)^1000003"}
BUDGET_S = 20.0
MEMORY_MB = 2048


def cell(kind: str, g: int) -> float:
    """Fastest of up to five cold runs of one cell, in seconds."""
    import random

    from blfsig import fibration, locsig, meyer, surface, verify
    from blfsig.words import ChainTwist, Word, gen_word, parse_word

    rng = random.Random(5)
    words = [verify.random_word(rng, g, 40) for _ in range(2)]
    if kind == "word_matrix":
        def call():
            return [surface.word_matrix(w) for w in words]
    elif kind in ("validate", "meyer_path", "meyer_path_n4"):
        spec = fibration.family_spec("mgn", g, 4 if kind == "meyer_path_n4" else 1)
        run = fibration.validate if kind == "validate" else fibration.signature_meyer_path

        def call():
            return run(spec)
    elif kind == "phi_flat":
        flat = verify.random_word(random.Random(7), g, 200)

        def call():
            return meyer.phi(flat)
    elif kind == "phi_long":
        draw = random.Random(3)
        text = " ".join(f"t{draw.randint(1, 13)}^{draw.choice([-2, -1, 1, 2])}"
                        for _ in range(2000))
        long_word = parse_word(text + " iota", g)

        def call():
            return meyer.phi(long_word)
    elif kind in PHI_POWER_WORDS:
        power = parse_word(PHI_POWER_WORDS[kind], g)

        def call():
            return meyer.phi(power)
    elif kind == "report_conjugated":
        spec = fibration.family_spec("mgn", g, 1)
        u = parse_word("t1 t2^-1", g)
        data = {}  # the family repeats its data; so does the conjugated spec
        for d in spec.lefschetz:
            data.setdefault(id(d), fibration.LefschetzDatum(d.cycle, u * d.conjugator))
        r = spec.rounds[0]
        spec = fibration.FibrationSpec(
            spec.higher_fiber, tuple(data[id(d)] for d in spec.lefschetz),
            (fibration.RoundRegion(r.component, r.cycle, u * r.monodromy * u.inverse()),),
            spec.spin, spec.simply_connected)

        def call():
            return fibration.compute_report(spec)
    elif kind == "phi_shared":
        shared = parse_word("t1 t2", 2)
        for _ in range(g):  # g is the depth here
            shared = Word(2, ((shared, 1), (ChainTwist(3), 1), (shared, -1)))

        def call():
            return meyer.phi(shared)
    elif kind == "h_word":
        ctx = locsig.CycleContext(g, surface.TypeI())

        def call():
            return locsig.h_word(parse_word("t1^5 t3", g), ctx)
    else:
        A, B = (surface.word_matrix(w) for w in words)
        if kind == "tau_transvection":
            B = surface.word_matrix(words[1] * gen_word(g, ChainTwist(1)) * words[1].inverse())
        elif kind == "tau_minus_one":
            B = surface.iota_matrix(g)

        def call():
            return meyer._tau_cached(A, B)
    # the caches a cell clears between runs; those a checkout lacks are skipped
    caches = [getattr(module, name, None) for module, name in
              ((surface, "word_matrix"), (meyer, "_tau_cached"), (meyer, "_image"),
               (meyer, "_window_state"), (meyer, "_transvection_power"),
               (fibration, "_vanishing_class"))]
    best = float("inf")
    spent = 0.0
    for _ in range(5):
        for cache in caches:
            if cache is not None:
                cache.cache_clear()
        t = time.perf_counter()
        call()
        elapsed = time.perf_counter() - t
        best = min(best, elapsed)
        spent += elapsed
        if spent > 1.0:
            break
    return best


def run_cell(root: Path, kind: str, g: int):
    cmd = [sys.executable, __file__, "--root", str(root), "--cell", kind, str(g)]
    limit = MEMORY_MB << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=BUDGET_S,
                              preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        return "> budget"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return f"error: {lines[-1] if lines else proc.returncode}"
    return round(float(proc.stdout), 6)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--cell", nargs=2, metavar=("KIND", "GENUS"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.cell:
        sys.path.insert(0, str(root / "src"))
        print(cell(args.cell[0], int(args.cell[1])))
        return 0
    table = {kind: {str(g): run_cell(root, kind, g)
                    for g in genera}
             for kind, genera in (("word_matrix", GENERA), ("tau", GENERA),
                                  ("tau_transvection", GENERA), ("tau_minus_one", GENERA),
                                  ("validate", VALIDATE_GENERA), ("meyer_path", FAMILY_GENERA),
                                  ("meyer_path_n4", REPEATED_BLOCK_GENERA),
                                  ("h_word", H_WORD_GENERA), ("phi_flat", PHI_FLAT_GENERA),
                                  ("phi_long", PHI_LONG_GENERA),
                                  ("phi_power_chain", PHI_POWER_GENERA),
                                  ("phi_power_multitwist", PHI_POWER_GENERA),
                                  ("report_conjugated", REPORT_GENERA),
                                  ("phi_shared", SHARED_DEPTHS))}
    print(json.dumps({"python": platform.python_version(), "budget_s": BUDGET_S,
                      "memory_mb": MEMORY_MB, "seconds": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
