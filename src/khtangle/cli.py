"""Command-line front door for the verification and computation suite.

Exit codes: 0 = pass/equivalent, 1 = violations or mismatch,
2 = indeterminate, 64 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import acat, bimod, dstruct, functor, tangles

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INDET = 2
EXIT_USAGE = 64

_VERDICT_EXIT = {tangles.EQUIVALENT: EXIT_PASS, tangles.MISMATCH: EXIT_FAIL,
                 tangles.INDETERMINATE: EXIT_INDET}


# the depth each verifier runs at, reported as its `config`
_DEPTHS = {"algebra-a": {"max_len": 5}, "functor": {"max_len": 6},
           "bimodules": {"bound": 16, "margin": 8},
           "homology-c": {"max_weight": 10}}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def build_parser():
    p = _Parser(prog="khtangle",
                description="Exact verification engine for two "
                            "cube-of-resolutions tangle invariants.")
    p.add_argument("--json", action="store_true",
                   help="emit the run report as JSON")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def leaf(parent, name):
        lp = parent.add_parser(name)
        # accepted after the subcommand too; SUPPRESS keeps a value
        # given before the subcommand from being overwritten
        lp.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS)
        return lp

    ver = sub.add_parser("verify")
    vsub = ver.add_subparsers(dest="check", required=True, parser_class=_Parser)
    leaf(vsub, "algebra-a").add_argument(
        "--table", default=None, help="path to an alternative mu-table file")
    for check in ("functor", "bimodules", "homology-c"):
        leaf(vsub, check)

    comp = sub.add_parser("compute")
    csub = comp.add_subparsers(dest="what", required=True, parser_class=_Parser)
    for what in ("dd1", "lt"):
        cc = leaf(csub, what)
        _tangle_args(cc)

    cmp_ = leaf(sub, "compare")
    _tangle_args(cmp_)

    corpus = leaf(sub, "corpus")
    corpus.add_argument("words", nargs="*", metavar="WORD",
                        default=list(tangles.CORPUS),
                        help="tangle words to compare (default: the "
                             "built-in corpus)")
    return p


def _tangle_args(p):
    p.add_argument("--tangle", required=True)
    p.add_argument("--star", choices=tangles.STAR_CHOICES, default="nw")


def _report(args, config, verdict, violations, t0, extra=None):
    rep = {
        "command": " ".join(args.argv) or args.command,
        "config": config,
        "verdict": verdict,
        "violations": violations,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    if extra:
        rep.update(extra)
    if args.json:
        print(json.dumps(rep, indent=2, default=str))
    else:
        print(f"== {rep['command']}")
        for k, v in config.items():
            print(f"   {k} = {v}")
        if extra:
            for k, v in extra.items():
                print(f"   {k}: {v}")
        for v in violations[:20]:
            print(f"   violation: {v}")
        if len(violations) > 20:
            print(f"   ... and {len(violations) - 20} more")
        print(f"{verdict}  ({rep['wall_time_s']}s)")
    return rep


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv
    try:
        return _run(args, time.perf_counter())
    except tangles.TangleError as e:
        # a bad word or a refused cube size is a usage error, not a verdict
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


def _run(args, t0):
    if args.command == "verify":
        config = _DEPTHS[args.check]
        if args.check == "algebra-a":
            try:
                tables = acat.load_tables(args.table)
            except (ValueError, OSError) as e:
                sys.stderr.write(f"error: {e}\n")
                return EXIT_USAGE
            max_len = config["max_len"]
            bad = acat.verify_ainfty(tables, max_len)
            bad += acat.verify_subalgebra(tables)
            bad += acat.verify_units(tables)
            violations = [" ".join(b) for b in bad]
            extra = {"sequences": sum(map(acat.count_sequences,
                                          range(3, max_len + 1)))}
        elif args.check == "functor":
            bad, checked = functor.verify_functor(**config)
            violations = [f"{' '.join(seq)}: defect "
                          f"{sorted(f'{slot}:{t}' for slot, t in defect)}"
                          for seq, defect in bad]
            extra = {"sequences": checked}
        elif args.check == "bimodules":
            rep = bimod.verify_lemma_main(**config)
            violations = [k for k, ok in rep["checks"].items() if not ok]
            extra = {"checks": rep["checks"],
                     "max_weight_shifts": rep["max_weight_shifts"]}
        else:
            rep = functor.verify_quasi_iso(**config)
            violations = rep["failures"]
            extra = {"homology_dims": {
                f"Hom(L{s},L{d})": {w: n for w, n in v.items() if n}
                for (s, d), v in rep["dims"].items()}}
        _report(args, config, "FAIL" if violations else "PASS", violations,
                extra=extra, t0=t0)
        return EXIT_FAIL if violations else EXIT_PASS

    if args.command == "compute":
        word = tangles.parse_tangle(args.tangle)
        fn = (tangles.compute_dd1 if args.what == "dd1"
              else tangles.compute_lt_image)
        m = fn(word, args.star)
        text = dstruct.serialize(m)
        if args.json:
            print(json.dumps({"tangle": str(word), "what": args.what,
                              "structure": text}))
        else:
            print(text, end="")
        return EXIT_PASS

    if args.command == "compare":
        verdict, info = tangles.compare(tangles.parse_tangle(args.tangle),
                                        args.star)
        _report(args, {"tangle": args.tangle, "star": args.star}, verdict,
                [], extra={"witness" if verdict == tangles.EQUIVALENT
                           else "diagnostic": info}, t0=t0)
        return _VERDICT_EXIT[verdict]

    if args.command == "corpus":
        words = {}
        for w in args.words:   # a repeated word keeps its first spelling
            words.setdefault(tangles.parse_tangle(w), w or "(empty)")
        verdicts = {w: tangles.compare(word)[0] for word, w in words.items()}
        worst = max(map(_VERDICT_EXIT.get, verdicts.values()),
                    default=EXIT_PASS)
        overall = {code: v for v, code in _VERDICT_EXIT.items()}[worst]
        _report(args, {"entries": len(verdicts)}, overall,
                [w for w, v in verdicts.items() if v != tangles.EQUIVALENT],
                extra={"verdicts": verdicts}, t0=t0)
        return worst

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
