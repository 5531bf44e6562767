"""Command-line entry point: reproducible verification runs and reports.

All numeric flags are exact rationals of the form ``p/q``, or integers
``p`` where a count is asked for, in ASCII digits; no floats are accepted
anywhere.  Reports embed the scalar cutoff and cyclotomic order in
use, and identical invocations produce byte-identical output.

Exit codes: 0 success, 2 usage error, 3 malformed rational, 1 any other
failure.

The parser of every command is built once per process, on first use, and
every later call to ``main`` reuses it.  argparse keeps no state between
parses, so reuse changes no byte, and a process that runs many commands (the
test suite, a benchmark worker) pays for the build once rather than per call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import ainfty, blowup, hochschild, linalg, openclosed, toric, trees
from .novikov import (DEFAULT_CUTOFF, MalformedRational, format_rational, json_field,
                      parse_int, parse_rational)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_MALFORMED_RATIONAL = 3


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _error(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message},
                                sort_keys=True) + "\n")
    return code


def _meta(order: int | None = None, cutoff=None) -> dict:
    return {
        "cutoff": format_rational(Fraction(cutoff)) if cutoff is not None
        else format_rational(DEFAULT_CUTOFF),
        "cyclotomic_order": order if order is not None else 1,
    }


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_trees_enumerate(args) -> int:
    metric = {
        "zero": (trees.ZERO,),
        "all": (trees.ZERO, trees.POS, trees.INF),
    }[args.metric]
    census = trees.census_by_dimension(args.boundary, args.interior, metric_classes=metric)
    lines = ["# cutoff=inf cyclotomic_order=1", "dimension,count"]
    lines.extend(f"{dim},{census[dim]}" for dim in sorted(census))
    lines.append(f"total,{sum(census.values())}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"JSON object repeats the key {repeated!r}")
    return obj


def _read_json(path: str):
    """The JSON of an algebra or category file; a repeated key, which
    ``json.load`` would let the later value win, is an error, and so is
    nesting deeper than the parser can recurse."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError as exc:
            raise ValueError(f"JSON nested too deeply: {exc}") from None


def cmd_ainfty_verify(args) -> int:
    data = _read_json(args.file)
    algebra = ainfty.AInftyAlgebra.from_json_dict(data)
    violations = ainfty.check_ainfty(algebra)
    unit_bad = algebra.unit_violations()
    degree_bad = algebra.degree_violations()
    # relations among truncated constants hold only modulo q^least_cutoff
    limited = algebra.least_cutoff is not None
    payload = {
        "meta": _meta(cutoff=algebra.least_cutoff),
        "rank": algebra.rank,
        "relation_violations": [
            {"arity": v.arity, "inputs": list(v.inputs), "output": v.output,
             "value": repr(v.value)}
            for v in violations
        ],
        "unit_violations": [repr(v) for v in unit_bad],
        "degree_violations": [repr(v) for v in degree_bad],
        "ok": not (violations or unit_bad or degree_bad or limited),
    }
    if limited:
        payload["cutoff_limited"] = True
    _emit(_json_dumps(payload), args.out)
    return EXIT_OK if payload["ok"] else EXIT_FAILURE


def cmd_hh_dims(args) -> int:
    data = _read_json(args.file)
    if isinstance(data, dict) and "objects" in data:
        algebras = [ainfty.AInftyAlgebra.from_json_dict(json_field(obj, "algebra", "object"))
                    for obj in json_field(data, "objects", "category", list)]
    else:
        algebras = [ainfty.AInftyAlgebra.from_json_dict(data)]
    category = hochschild.FlatCategory(tuple(algebras))
    report = hochschild.hochschild_homology_dims(category, args.length)
    # the arithmetic runs in the smallest field holding every scalar
    order = math.lcm(*(value.order() for alg in algebras for entries in alg.tensors.values()
                       for vec in entries.values() for value in vec.values()))
    # no object's scalars are known past the least cutoff of any of them
    cutoffs = [alg.least_cutoff for alg in algebras if alg.least_cutoff is not None]
    cutoff = format_rational(min(cutoffs)) if cutoffs else "inf"
    header = f"# cutoff={cutoff} cyclotomic_order={order}"
    if report.cutoff_limited:
        # a rank taken at the scalar cutoff is not a dimension to rely on
        header += " cutoff_limited=true"
    if report.rank_cutoff is not None:
        header += f" rank_cutoff={format_rational(report.rank_cutoff)}"
    if not report.graded:
        header += " graded=false"
    lines = [header, "degree,dimension,stable"]
    for degree in sorted(report.dims):
        lines.append(f"{degree},{report.dims[degree]},{str(report.stable).lower()}")
    lines.append(f"total,{report.total()},{str(report.stable).lower()}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_FAILURE if report.cutoff_limited else EXIT_OK


def _eps_without_exceptional() -> int:
    # the projective potential and OC matrix have no eps to set
    return _error(EXIT_USAGE, "usage error", "--eps applies only to --kind exceptional")


def cmd_potential_crit(args) -> int:
    if args.kind == "pn" and args.eps is not None:
        return _eps_without_exceptional()
    n = args.n
    if args.kind == "pn":
        potential = toric.PotentialFunction.clifford_torus(n)
    else:
        eps = parse_rational(args.eps) if args.eps is not None else None
        potential = toric.PotentialFunction.exceptional(n, eps)
    points = toric.critical_points(potential)
    entries = []
    for k, critical in enumerate(points):
        h = critical.hessian
        det = linalg.determinant(h)
        # the brane algebra is the rank-2^n Clifford algebra of Q = -H/2,
        # which clifford_algebra builds only for a nondegenerate form
        if det.is_zero():
            raise ValueError("degenerate quadratic form")
        entries.append({
            "index": k,
            "point": [repr(c) for c in critical.point],
            "potential_value": repr(critical.value),
            "hessian": [[repr(entry) for entry in row] for row in h],
            "hessian_det": repr(det),
            "clifford_rank": 1 << n,
            # generator relations: e_a e_b + e_b e_a = 2 Q_ab
            "clifford_form": [[repr(entry) for entry in row]
                              for row in toric.brane_quadratic_form(h)],
        })
    payload = {
        "meta": _meta(order=potential.order),
        "kind": args.kind,
        "n": n,
        "count": len(points),
        "critical_points": entries,
    }
    _emit(_json_dumps(payload), args.out)
    return EXIT_OK


def cmd_oc_matrix(args) -> int:
    if args.kind == "pn" and args.eps is not None:
        return _eps_without_exceptional()
    kind = openclosed.PROJECTIVE if args.kind == "pn" else openclosed.EXCEPTIONAL
    eps = parse_rational(args.eps) if args.eps is not None else None
    matrix = openclosed.oc_matrix(args.n, kind, eps)
    order = matrix.order
    if args.order is not None:
        if args.order % order:
            return _error(EXIT_FAILURE, "order override",
                          f"override {args.order} is not a multiple of {order}")
        order = args.order
    split_at = openclosed.SPLIT
    det = linalg.determinant(matrix.entries)
    det_report = {
        "split_at": format_rational(split_at),
        "det": repr(det),
        "det_below": repr(det.below(split_at)),
        "det_at_or_above": repr(det.at_or_above(split_at)),
        "surjectivity": openclosed.surjectivity(not det.is_zero(), matrix.entries),
    }
    meta_comment = (f"# cutoff=inf cyclotomic_order={order} "
                    f"det={det_report['det']} split_at={det_report['split_at']} "
                    f"surjectivity={det_report['surjectivity']}")
    if args.format == "json":
        payload = {
            "meta": _meta(order=order),
            "kind": args.kind,
            "n": args.n,
            "rows": list(matrix.rows),
            "cols": list(matrix.cols),
            "entries": [[matrix.entry(b, a).to_json_dict(order)
                         for a in range(len(matrix.cols))]
                        for b in range(len(matrix.rows))],
            "determinant": det_report,
        }
        text = _json_dumps(payload)
    elif args.format == "csv":
        lines = [meta_comment, "row," + ",".join(matrix.cols)]
        for b, label in enumerate(matrix.rows):
            lines.append(label + "," +
                         ",".join(repr(matrix.entry(b, a)).replace(",", ";")
                                  for a in range(len(matrix.cols))))
        text = "\n".join(lines) + "\n"
    else:  # markdown
        header = "| | " + " | ".join(matrix.cols) + " |"
        sep = "|" + "---|" * (len(matrix.cols) + 1)
        lines = [header, sep]
        for b, label in enumerate(matrix.rows):
            lines.append("| " + label + " | " +
                         " | ".join(repr(matrix.entry(b, a))
                                    for a in range(len(matrix.cols))) + " |")
        lines.append("")
        lines.append(f"- cutoff: inf; cyclotomic order: {order}")
        lines.append(f"- determinant: {det_report['det']}; split at {det_report['split_at']}: "
                     f"below = {det_report['det_below']}, "
                     f"surjectivity = {det_report['surjectivity']}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_blowup_split(args) -> int:
    eps = parse_rational(args.eps)
    report = blowup.split_report(args.n, eps)
    payload = {
        "meta": _meta(order=(args.n + 1) * max(args.n - 1, 1)),
        "report": {key: (format_rational(value) if isinstance(value, Fraction)
                         else value)
                   for key, value in sorted(report.items())},
    }
    if args.format == "md":
        lines = [f"# blowup splitting report (n={args.n}, eps={format_rational(eps)})", "",
                 f"- **cutoff**: {payload['meta']['cutoff']}",
                 f"- **cyclotomic order**: {payload['meta']['cyclotomic_order']}"]
        for key, value in sorted(payload["report"].items()):
            lines.append(f"- **{key}**: {value}")
        text = "\n".join(lines) + "\n"
    else:
        text = _json_dumps(payload)
    _emit(text, args.out)
    return EXIT_OK if report["status"] == blowup.GENERATES else EXIT_FAILURE


def cmd_verify_all(args) -> int:
    # only this command runs the suite, so only it imports the module
    from . import acceptance

    results = acceptance.run_all()
    text = acceptance.summary_table(results)
    _emit(text, args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


# ---------------------------------------------------------------------------
# parser


def _int(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = parse_int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


# command -> (help, subcommand, subcommand help, handler, arguments before
# the "--out" every command takes); each argument is (name, add_argument
# keywords).  verify-all is a command with no subcommand.
COMMANDS = {
    "trees": ("treed-disk combinatorics", "enumerate", "census of stable types",
              cmd_trees_enumerate,
              [("--boundary", {"type": _int, "required": True}),
               ("--interior", {"type": _int, "default": 0}),
               ("--metric", {"choices": ["zero", "all"], "default": "zero"})]),
    "ainfty": ("composition-relation checking", "verify", "verify an algebra file",
               cmd_ainfty_verify, [("file", {})]),
    "hh": ("Hochschild homology", "dims", "homology dimensions of a category file",
           cmd_hh_dims, [("file", {}), ("--length", {"type": _int, "default": 6})]),
    "potential": ("disk potentials", "crit", "critical points and Hessians",
                  cmd_potential_crit,
                  [("--kind", {"choices": ["pn", "exceptional"], "required": True}),
                   ("--n", {"type": _int, "required": True}),
                   ("--eps", {"default": None})]),
    "oc": ("open-closed matrices", "matrix", "emit the open-closed matrix", cmd_oc_matrix,
           [("--n", {"type": _int, "required": True}),
            ("--kind", {"choices": ["pn", "exceptional"], "required": True}),
            ("--eps", {"default": None}),
            ("--order", {"type": _positive_int, "default": None,
                         "help": "cyclotomic order override for serialization"}),
            ("--format", {"choices": ["json", "csv", "md"], "default": "json"})]),
    "blowup": ("blowup splitting", "split", "splitting and generation report",
               cmd_blowup_split,
               [("--n", {"type": _int, "required": True}),
                ("--eps", {"required": True}),
                ("--format", {"choices": ["json", "md"], "default": "json"})]),
    "verify-all": ("run the full acceptance suite", None, None, cmd_verify_all, []),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in ``COMMANDS``, built on first use."""
    parser = argparse.ArgumentParser(
        prog="qhsplit",
        description="exact verification of disk-potential and blowup-splitting identities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, leaf, leaf_help, func, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        if leaf:
            command = command.add_subparsers(dest="subcommand", required=True).add_parser(
                leaf, help=leaf_help)
        for arg, options in arguments + [("--out", {"default": None})]:
            command.add_argument(arg, **options)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # argparse reads "-1/10" as an option rather than a value, so a negative
    # rational is attached to its flag ("--eps=-1/10") and reaches the check
    # that rejects it
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] == "--eps" and arg[:1] == "-" and arg[1:2].isdigit():
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    args = build_parser().parse_args(joined)
    try:
        return args.func(args)
    except MalformedRational as exc:
        return _error(EXIT_MALFORMED_RATIONAL, "malformed rational", str(exc))
    except ValueError as exc:
        return _error(EXIT_FAILURE, "value error", str(exc))
    except FileNotFoundError as exc:
        return _error(EXIT_FAILURE, "missing file", str(exc))
    except OSError as exc:
        return _error(EXIT_FAILURE, "file error", str(exc))


if __name__ == "__main__":
    sys.exit(main())
