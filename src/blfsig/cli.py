"""Command line interface.

Subcommands:

    compute <spec.json>        full invariant report for a fibration spec
    phi -g G <word>            cobounding function of a word
    tau -g G <wordA> <wordB>   Meyer cocycle of two words
    h -g G --cycle I|II:h <w>  fold homomorphism of a stabiliser word
    sigma-loc -g G --cycle C   local signature of a Lefschetz fiber type
    family mgn|mgn-tilde ...   built-in families: emit the spec or compute
    abelianization -g G --cycle C
    verify [--samples K] [--max-genus G] [--seed S]

Exit codes: 0 success, 1 validation/consistency failure, 2 usage or parse
errors, a genus below 1 among them, in every subcommand that takes -g.  A
reader that closes the output early (``blfsig ... | head``) ends the
command quietly with exit code 1.  With ``--format json`` all rationals are
rendered exactly as "p/q" strings, never as floats.

The word-level commands (``phi``, ``tau``, ``h``, ``sigma-loc``) never load
``fibration``: the commands that need it import it when they run, as
``cmd_verify`` imports ``verify``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import locsig, meyer, surface
from .locsig import CycleContext
from .surface import TypeI, TypeII
from .words import WordError, parse_word

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _parse_cycle(text: str):
    t = text.strip().upper()
    if t == "I":
        return TypeI()
    if t.startswith("II:"):
        try:
            return TypeII(int(t[3:]))
        except ValueError:
            raise UsageError(f"bad separating genus in cycle {text!r}")
    raise UsageError(f"cycle must be 'I' or 'II:h', got {text!r}")


def _emit(doc, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, ensure_ascii=False))
    else:
        for line in text_lines:
            print(line)


def cmd_phi(args) -> int:
    w = parse_word(args.word, args.genus)
    value = meyer.phi(w)
    _emit({"genus": args.genus, "word": args.word, "phi": str(value)},
          args.format, [str(value)])
    return EXIT_OK


def cmd_tau(args) -> int:
    # word matrices are symplectic of one size: no need for tau's check
    A = surface.word_matrix(parse_word(args.word_a, args.genus))
    B = surface.word_matrix(parse_word(args.word_b, args.genus))
    value = meyer._tau_cached(A, B)
    _emit({"genus": args.genus, "tau": value}, args.format, [str(value)])
    return EXIT_OK


def cmd_h(args) -> int:
    ctx = CycleContext(args.genus, _parse_cycle(args.cycle))
    value = locsig.h_word(parse_word(args.word, args.genus), ctx)
    _emit({"genus": args.genus, "cycle": args.cycle, "h": str(value)},
          args.format, [str(value)])
    return EXIT_OK


def cmd_sigma_loc(args) -> int:
    value = locsig.sigma_loc(_parse_cycle(args.cycle), args.genus)
    _emit({"genus": args.genus, "cycle": args.cycle, "sigma_loc": str(value)},
          args.format, [str(value)])
    return EXIT_OK


def cmd_abelianization(args) -> int:
    from . import fibration

    text = fibration.abelianization(args.genus, _parse_cycle(args.cycle))
    _emit({"genus": args.genus, "cycle": args.cycle, "abelianization": text},
          args.format, [text])
    return EXIT_OK


def _report_lines(rep) -> list[str]:
    """The text form of a ``fibration.InvariantReport``."""
    lines = [
        f"signature              {rep.signature}",
        f"euler characteristic   {rep.euler}",
        f"meyer-path signature   {rep.meyer_path_signature} "
        f"({'agrees' if rep.two_paths_agree else 'DISAGREES'})",
        f"homeomorphism type     {rep.homeomorphism.display or rep.homeomorphism.status}",
    ]
    if rep.breakdown.sigma_terms:
        lines.append("local signature terms:")
        lines += [f"  {k} = {v}" for k, v in rep.breakdown.sigma_terms]
    if rep.breakdown.h_terms:
        lines.append("fold contribution terms:")
        lines += [f"  {k} = {v}" for k, v in rep.breakdown.h_terms]
    for note in rep.validation.notes:
        lines.append(f"note: {note}")
    for note in rep.notes:
        lines.append(f"note: {note}")
    return lines


def _compute_and_emit(spec, fmt: str) -> int:
    from . import fibration

    try:
        rep = fibration.compute_report(spec)
    except fibration.ValidationError as e:
        for issue in e.report.issues:
            print(f"validation: {issue}", file=sys.stderr)
        return EXIT_INVALID
    _emit(rep.to_dict(), fmt, _report_lines(rep))
    return EXIT_OK if rep.two_paths_agree else EXIT_INVALID


def cmd_compute(args) -> int:
    from . import fibration

    try:
        spec = fibration.load_spec(args.spec_file)
    except (OSError, json.JSONDecodeError, ValueError, WordError) as e:
        print(f"error reading {args.spec_file}: {e}", file=sys.stderr)
        return EXIT_USAGE
    return _compute_and_emit(spec, args.format)


def cmd_family(args) -> int:
    from . import fibration

    try:
        spec = fibration.family_spec(args.family, args.genus, args.n)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.emit_spec:
        print(json.dumps(fibration.spec_to_json(spec), indent=2))
        return EXIT_OK
    return _compute_and_emit(spec, args.format)


def cmd_verify(args) -> int:
    from . import verify  # only this command needs the suites

    for flag, value in (("--samples", args.samples), ("--max-genus", args.max_genus)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_all(args.samples, args.max_genus, seed)
    ok = all(r.passed for r in results)
    doc = {"seed": seed, "samples": args.samples, "max_genus": args.max_genus,
           "passed": ok,
           "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                      for r in results]}
    _emit(doc, args.format, [str(r) for r in results]
          + [f"verify: {'all checks passed' if ok else 'FAILURES'}"])
    return EXIT_OK if ok else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blfsig",
        description="Exact invariants of hyperelliptic directed broken "
                    "Lefschetz fibrations over the 2-sphere.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("compute", help="invariant report for a JSON spec file")
    sp.add_argument("spec_file")
    add_format(sp)
    sp.set_defaults(fn=cmd_compute)

    sp = sub.add_parser("phi", help="cobounding function of a word")
    sp.add_argument("-g", "--genus", type=int, required=True)
    sp.add_argument("word")
    add_format(sp)
    sp.set_defaults(fn=cmd_phi)

    sp = sub.add_parser("tau", help="Meyer cocycle of two words")
    sp.add_argument("-g", "--genus", type=int, required=True)
    sp.add_argument("word_a")
    sp.add_argument("word_b")
    add_format(sp)
    sp.set_defaults(fn=cmd_tau)

    sp = sub.add_parser("h", help="fold homomorphism of a stabiliser word")
    sp.add_argument("-g", "--genus", type=int, required=True)
    sp.add_argument("--cycle", required=True, help="I or II:h")
    sp.add_argument("word")
    add_format(sp)
    sp.set_defaults(fn=cmd_h)

    sp = sub.add_parser("sigma-loc", help="local signature of a fiber type")
    sp.add_argument("-g", "--genus", type=int, required=True)
    sp.add_argument("--cycle", required=True, help="I or II:h")
    add_format(sp)
    sp.set_defaults(fn=cmd_sigma_loc)

    sp = sub.add_parser("family", help="built-in fibration families")
    sp.add_argument("family", choices=("mgn", "mgn-tilde", "mgn_tilde"))
    sp.add_argument("-g", "--genus", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--emit-spec", action="store_true",
                       help="print the JSON spec instead of computing")
    group.add_argument("--compute", action="store_true", default=False,
                       help="compute the invariant report (default)")
    add_format(sp)
    sp.set_defaults(fn=cmd_family)

    sp = sub.add_parser("abelianization",
                        help="H_1 of the stabiliser of a curve type")
    sp.add_argument("-g", "--genus", type=int, required=True)
    sp.add_argument("--cycle", required=True, help="I or II:h")
    add_format(sp)
    sp.set_defaults(fn=cmd_abelianization)

    sp = sub.add_parser("verify", help="run the randomized property suites")
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--max-genus", type=int, default=2)
    sp.add_argument("--seed", type=int, default=None,
                    help="default: 20240913")
    add_format(sp)
    sp.set_defaults(fn=cmd_verify)

    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "genus", 1) < 1:
            raise UsageError(f"mapping class operations need genus >= 1, got {args.genus}")
        return args.fn(args)
    except (WordError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:  # ConsistencyError among them
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull, so that the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INVALID
    sys.exit(code)


if __name__ == "__main__":
    main()
