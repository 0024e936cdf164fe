"""Command-line front end.

Subcommands: classify-fourier, classify-schur, herz-schur, yeadon,
verify-theorems, list-characters.  Exit codes are a total function of the
outcome: 0 separating / certificate / suite passed, 1 not-separating /
witness / suite failed, 2 inconclusive / empty suite, 4 data or IO problems,
5 usage errors.
"""

import argparse
import dataclasses
import json
import sys

from .classify import (
    INCONCLUSIVE,
    NOT_SEPARATING,
    SEPARATING,
    ClassifyError,
    NotSeparating,
    check_trials,
    classify_fourier,
    classify_schur,
    fourier_multiplier_map,
    schur_multiplier_map,
    verdict_to_json,
    yeadon_extract,
)
from .groups import GroupError, enumerate_characters
from .linalg import LinalgError, check_p, matrix_from_json, matrix_to_json
from .schur import herz_schur_symbol, rank_one_unimodular_factor, recover_character
from .vna import VnaError, symbol_from_json, symbol_to_json
from .verify import (
    EmptySuite,
    SuiteError,
    config_from_json,
    default_config,
    format_report,
    load_group,
    read_json_file,
    report_passed,
    run_suite,
)

EXIT_SEPARATING = 0
EXIT_WITNESS = 1
EXIT_INCONCLUSIVE = 2
EXIT_DATA = 4
EXIT_USAGE = 5

_STATUS_EXIT = {
    SEPARATING: EXIT_SEPARATING,
    NOT_SEPARATING: EXIT_WITNESS,
    INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class DataError(Exception):
    """File, format, or dimension problems; mapped to exit code 4."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags, which collides with the
    # "inconclusive" verdict; usage problems get their own code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _load_symbol(path, expected_len):
    return symbol_from_json(read_json_file(path), expected_len)


def _load_matrix(path):
    return matrix_from_json(read_json_file(path))


def _emit(obj, args):
    if getattr(args, "compact", False):
        print(json.dumps(obj, sort_keys=True))
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _add_output_flags(parser):
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="compact", action="store_true",
                     help="single-line JSON output")
    fmt.add_argument("--pretty", dest="compact", action="store_false",
                     help="indented JSON output (default)")
    parser.set_defaults(compact=False)


def _add_classify_flags(parser):
    parser.add_argument("--p", type=float, default=2.0,
                        help="Schatten exponent for reporting (default 2)")
    parser.add_argument("--trials", type=int, default=200,
                        help="random disjoint pairs to try (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for all draws (default 0)")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="relative tolerance (default 1e-9)")


def cmd_classify_fourier(args):
    g = load_group(args.group)
    phi = _load_symbol(args.symbol, g.order)
    verdict = classify_fourier(g, phi, p=args.p, trials=args.trials,
                               seed=args.seed, tol=args.tol)
    _emit(verdict_to_json(verdict), args)
    return _STATUS_EXIT[verdict.status]


def cmd_classify_schur(args):
    m = _load_matrix(args.symbol)
    verdict = classify_schur(m, p=args.p, trials=args.trials,
                             seed=args.seed, tol=args.tol)
    _emit(verdict_to_json(verdict), args)
    return _STATUS_EXIT[verdict.status]


def cmd_herz_schur(args):
    # the flags are checked whether or not the symbol needs the search
    check_p(args.p)
    check_trials(args.trials)
    g = load_group(args.group)
    phi = _load_symbol(args.symbol, g.order)
    matrix = herz_schur_symbol(g, phi)
    out = {"group": args.group, "matrix": matrix_to_json(matrix)}
    cert = rank_one_unimodular_factor(matrix, args.tol)
    if cert is None:
        out["certificate"] = "NONE"
        verdict = classify_schur(matrix, p=args.p, trials=args.trials,
                                 seed=args.seed, tol=args.tol)
        out["verdict"] = verdict_to_json(verdict)
        _emit(out, args)
        return _STATUS_EXIT[verdict.status]
    out["certificate"] = {
        "c": [cert.c.real, cert.c.imag],
        "alpha": symbol_to_json(cert.alpha),
        "beta": symbol_to_json(cert.beta),
    }
    recovered = recover_character(g, cert, max(args.tol, 1e-9))
    if recovered is None:
        out["recovered"] = None
        _emit(out, args)
        return EXIT_WITNESS
    c_prime, psi = recovered
    out["recovered"] = {
        "c": [c_prime.real, c_prime.imag],
        "character": symbol_to_json(psi.values),
    }
    _emit(out, args)
    return EXIT_SEPARATING


def cmd_yeadon(args):
    if args.group is not None:
        g = load_group(args.group)
        phi = _load_symbol(args.symbol, g.order)
        tmap = fourier_multiplier_map(g, phi)
    else:
        tmap = schur_multiplier_map(_load_matrix(args.symbol))
    try:
        triple = yeadon_extract(tmap, tol=args.tol)
    except NotSeparating as exc:
        _emit({"separating": False, "reason": str(exc),
               "residuals": {k: float(v) for k, v in exc.residuals.items()}},
              args)
        return EXIT_WITNESS
    _emit({
        "separating": True,
        "w": matrix_to_json(triple.w),
        "b": matrix_to_json(triple.b),
        "jordan_images": [matrix_to_json(img) for img in triple.jmap.images],
        "residuals": {k: float(v) for k, v in triple.residuals.items()},
    }, args)
    return EXIT_SEPARATING


def cmd_list_characters(args):
    g = load_group(args.group)
    chars = enumerate_characters(g)
    _emit({
        "group": args.group,
        "order": g.order,
        "names": list(g.names),
        "characters": [symbol_to_json(ch.values) for ch in chars],
    }, args)
    return EXIT_SEPARATING


def cmd_verify_theorems(args):
    if args.config is not None:
        config = config_from_json(read_json_file(args.config))
    else:
        config = default_config()
    # replace() runs the config's validation on the overridden values too
    overrides = {"groups": args.group, "trials": args.trials, "seed": args.seed,
                 "tol": args.tol, "output": args.output}
    config = dataclasses.replace(config, **{
        key: value for key, value in overrides.items() if value is not None})
    try:
        report = run_suite(config)
    except EmptySuite as exc:
        print("nothing verified: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise DataError("cannot write %s: %s"
                            % (config.output, exc.strerror or exc))
    if args.report_json:
        _emit(report, args)
    else:
        print(format_report(report))
    return EXIT_SEPARATING if report_passed(report) else EXIT_WITNESS


def build_parser():
    parser = _Parser(prog="sepmult",
                     description="separating multiplier classification")
    from . import __version__

    parser.add_argument("--version", action="version",
                        version="sepmult %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify-fourier",
                       help="classify a Fourier multiplier symbol on VN(G)")
    p.add_argument("--group", required=True,
                   help="builtin family name or group JSON path")
    p.add_argument("--symbol", required=True,
                   help="JSON array of [re, im] pairs, one per element")
    _add_classify_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_classify_fourier)

    p = sub.add_parser("classify-schur",
                       help="classify a Schur multiplier symbol matrix")
    p.add_argument("--symbol", required=True, help="matrix JSON path")
    _add_classify_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_classify_schur)

    p = sub.add_parser("herz-schur",
                       help="build [phi(s^-1 t)], factor it, recover the character")
    p.add_argument("--group", required=True)
    p.add_argument("--symbol", required=True)
    _add_classify_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_herz_schur)

    p = sub.add_parser("yeadon",
                       help="extract and validate the triple (w, B, J)")
    p.add_argument("--group", default=None,
                   help="if given, the symbol is a Fourier symbol on this group; "
                        "otherwise it is a Schur matrix")
    p.add_argument("--symbol", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_output_flags(p)
    p.set_defaults(func=cmd_yeadon)

    p = sub.add_parser("list-characters", help="enumerate the characters of a group")
    p.add_argument("--group", required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_list_characters)

    p = sub.add_parser("verify-theorems",
                       help="run the seeded theorem-verification suite")
    p.add_argument("--config", default=None, help="suite config JSON path")
    p.add_argument("--group", action="append", default=None,
                   help="override the group list (repeatable)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--output", default=None, help="write the JSON report here")
    p.add_argument("--report-json", action="store_true",
                   help="print the JSON report instead of the table")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify_theorems)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, GroupError, VnaError, LinalgError, ClassifyError,
            SuiteError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
