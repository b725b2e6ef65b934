"""Command-line front end.

Subcommands mirror the library operations: ``egalitarian`` and ``shapley``
compute allocations from a source-model JSON file, ``verify`` checks a rate
file against the region constraints, ``decompose`` prints the critical-ratio
chain, ``experiment`` runs the randomized size sweep to CSV, and ``check``
reports submodularity/monotonicity of a model.

Exit codes are a stable contract: 0 success (and member for ``verify``),
2 input error, 3 solver error, 4 verification failure (``verify`` of a
non-member, or an ``egalitarian`` / ``decompose`` result refused by its
certificate).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiment as exp
from .fairness import ConvergenceError, shapley_exact, verify_membership
from .setfn import (
    GroundSetTooLargeError,
    ModelLoadError,
    SetFunction,
    WeightVector,
    check_monotone,
    check_json_numbers,
    check_submodular,
    load_source,
)
from .split import (
    CertificationError,
    InternalConsistencyError,
    RateVector,
    decompose,
    egalitarian,
    traced_egalitarian,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelLoadError, GroundSetTooLargeError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, InternalConsistencyError) as e:
        print("solver error: %s" % e, file=sys.stderr)
        return EXIT_SOLVER
    except CertificationError as e:
        print("refused: %s" % e, file=sys.stderr)
        return EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swfair",
        description="Fair source-coding rate allocation in the "
                    "Slepian-Wolf region.")
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("egalitarian",
                       help="weighted egalitarian rates (the splitter's "
                            "depth-at-a-time loop, returned as a certified "
                            "chain)")
    p.add_argument("source", help="source model JSON file")
    add_weight_args(p)
    p.add_argument("--trace", metavar="PATH",
                   help="also write the recursion tree of the same run "
                        "of the loop and, up to 64 users, the adaptation "
                        "path as JSON")
    add_output_args(p)
    p.set_defaults(func=cmd_egalitarian)

    p = sub.add_parser("shapley", help="exact Shapley-value rates (closed "
                       "form for bit pools, subset sweep otherwise)")
    p.add_argument("source")
    add_output_args(p)
    p.set_defaults(func=cmd_shapley)

    p = sub.add_parser("verify", help="check rates against the region")
    p.add_argument("source")
    p.add_argument("rates", help="rates JSON file ({user: rate} or egalitarian/"
                                 "shapley --json output)")
    p.add_argument("--tolerance", type=float,
                   help="default: 1e-8 times the source's largest value")
    add_output_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="critical ratios and tight-set chain")
    p.add_argument("source")
    add_weight_args(p)
    add_output_args(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("experiment", help="randomized split-size sweep to CSV")
    p.add_argument("--out", required=True, metavar="CSV")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-timing", dest="timing", action="store_false",
                   help="zero the wall-time column (byte-reproducible CSV)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("check", help="submodularity / monotonicity report")
    p.add_argument("source")
    add_output_args(p)
    p.set_defaults(func=cmd_check)
    return parser


def add_weight_args(p):
    p.add_argument("--weights", metavar="W",
                   help="comma-separated weights in ground-set order, or a "
                        "path to a JSON file ({user: weight} or a list); "
                        "default all 1")


def add_output_args(p):
    p.add_argument("--json", action="store_true",
                   help="machine-parseable JSON on stdout")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the primary output to a file")


def parse_weights(source: SetFunction, spec: str | None) -> WeightVector:
    ground = source.ground
    if spec is None:
        return WeightVector.ones(ground)
    try:
        values = [float(v) for v in spec.split(",")]
    except ValueError:
        try:
            with open(spec) as fh:
                doc = json.load(fh)
            doc = (by_user(ground, doc, "weights") if isinstance(doc, dict)
                   else dict(enumerate(doc)))
        except (OSError, json.JSONDecodeError, TypeError) as e:
            raise ValueError("cannot read weights from %r: %s" % (spec, e))
        check_json_numbers(doc, "weights")
        values = [float(v) for v in doc.values()]
    if len(values) != ground.n:
        raise ValueError("expected %d weights, got %d" % (ground.n, len(values)))
    return WeightVector(ground, values)


def by_user(ground, doc: dict, what: str) -> dict:
    """``doc`` in ground-set order; it must name every user exactly once."""
    unknown = [u for u in doc if u not in ground.index]
    if unknown:
        raise ValueError("%s file names unknown user %r" % (what, unknown[0]))
    missing = [u for u in ground.users if u not in doc]
    if missing:
        raise ValueError("%s file lacks users %s"
                         % (what, ", ".join(map(repr, missing))))
    return {u: doc[u] for u in ground.users}


def emit(args, doc: dict, text) -> None:
    """Print ``doc`` as JSON with --json, else ``text()``, built only then."""
    # One compact line: without ``indent`` the C encoder runs.
    payload = json.dumps(doc, sort_keys=True, allow_nan=False,
                         separators=(",", ":"))
    print(payload if args.json else text())
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")


def rates_text(rates: RateVector) -> str:
    lines = ["%-8s %.12g" % (u, r) for u, r in rates.as_dict().items()]
    lines.append("%-8s %.12g" % ("sum", rates.total()))
    return "\n".join(lines)


def cmd_egalitarian(args) -> int:
    source = load_source(args.source)
    w = parse_weights(source, args.weights)
    if args.trace:
        rates, tree = traced_egalitarian(source, w)
        with open(args.trace, "w") as fh:
            fh.write(json.dumps(tree.to_dict(), indent=2))
    else:
        rates = egalitarian(source, w)
    doc = {"rates": rates.as_dict(), "sum_rate": rates.total(),
           "weights": dict(zip(source.ground.users, w.values.tolist()))}
    emit(args, doc, lambda: rates_text(rates))
    return EXIT_OK


def cmd_shapley(args) -> int:
    rates = shapley_exact(load_source(args.source))
    doc = {"rates": rates.as_dict(), "sum_rate": rates.total(),
           "method": "exact"}
    emit(args, doc, lambda: rates_text(rates))
    return EXIT_OK


def cmd_verify(args) -> int:
    source = load_source(args.source)
    with open(args.rates) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "rates" in doc:
        doc = doc["rates"]
    if not isinstance(doc, dict):
        raise ValueError("rates file must be a JSON object of {user: rate}")
    check_json_numbers(doc, "rates")
    rates = list(by_user(source.ground, doc, "rates").values())
    report = verify_membership(source, rates, args.tolerance)
    emit(args, report.to_dict(), lambda: (
        "%s (min slack %.3g at {%s}, sum gap %.3g)" % (
            "member" if report.in_region else "NOT a member", report.slack,
            ",".join(sorted(report.worst_constraint)), report.sum_gap)))
    return EXIT_OK if report.in_region else EXIT_VERIFY


def cmd_decompose(args) -> int:
    source = load_source(args.source)
    w = parse_weights(source, args.weights)
    dec = decompose(source, w)
    doc = dec.to_dict()
    emit(args, doc, lambda: "\n".join(
        "lambda_%d = %-12.10g  S_%d = {%s}" % (
            j + 1, lam, j + 1, ",".join(sorted(chain)))
        for j, (lam, chain) in enumerate(zip(doc["critical_values"],
                                             doc["chain"]))))
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = exp.ExperimentConfig(
        n_min=args.n_min, n_max=args.n_max, repetitions=args.reps,
        seed=args.seed, measure_time=args.timing)
    rows, csv_text = exp.run_experiment(cfg)
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    print("wrote %d rows to %s" % (len(rows), args.out))
    return EXIT_OK


def cmd_check(args) -> int:
    source = load_source(args.source)
    sub_ok, sub_witness = check_submodular(source)
    mono_ok, mono_witness = check_monotone(source)
    doc = {"submodular": sub_ok, "monotone": mono_ok}
    lines = ["submodular: %s" % ("yes" if sub_ok else "NO"),
             "monotone:   %s" % ("yes" if mono_ok else "NO")]
    if not sub_ok:
        X, Y, i = sub_witness
        doc["submodular_witness"] = {"X": sorted(X), "Y": sorted(Y), "i": i}
        lines.append("  marginal of %s onto {%s} exceeds its marginal onto "
                     "{%s}" % (i, ",".join(sorted(Y)), ",".join(sorted(X))))
    if not mono_ok:
        X, i = mono_witness
        doc["monotone_witness"] = {"X": sorted(X), "i": i}
        lines.append("  adding %s to {%s} decreases the value"
                     % (i, ",".join(sorted(X))))
    emit(args, doc, lambda: "\n".join(lines))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
