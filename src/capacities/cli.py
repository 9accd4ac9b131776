"""Command line front end over the JSON file schemas.

Subcommands: transform, eval, interaction, verify, compare, rank.
Results go to stdout (text by default, --format json for the machine
form), diagnostics to stderr. Exit codes: 0 on success, 1 on domain
errors (invalid capacity, dimension mismatch, unknown axiom), 2 on usage
errors. All numbers are printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import subsets
from .axioms import (
    AXIOM_NAMES,
    AxiomCheckConfig,
    check_axiom,
    compare_extensions,
)
from .errors import CapacitiesError, InvalidFormat
from .integrals import make_extension
from .interaction import interaction_index, interaction_report
from .model import acts_from_obj, model_from_dict, rank_acts
from .set_function import (
    DEFAULT_TOL,
    MobiusRepr,
    SetFunction,
    as_capacity,
    co_mobius,
    conjugate,
    mobius,
    ordinal_mobius,
    to_dict,
    vector_from_dict,
    zeta,
)

INTEGRAL_CHOICES = ("choquet", "sipos", "mle", "smle", "sugeno-prod", "cpt")


class _UsageError(Exception):
    pass


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _round12(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _print_json(payload) -> None:
    print(json.dumps(_round12(payload), indent=2, sort_keys=True))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CapacitiesError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise CapacitiesError("%s is not valid JSON: %s" % (path, exc)) from exc


def _load_capacity(path: str):
    n, vals = vector_from_dict(_load_json(path))
    return as_capacity(vals, n=n)


def _load_extension(args):
    """--capacity and the --integral extension on it (cpt alone takes --capacity2)."""
    mu = _load_capacity(args.capacity)
    name = "sugeno_product" if args.integral == "sugeno-prod" else args.integral
    mu2 = None
    if name == "cpt":
        if args.capacity2 is None:
            raise _UsageError("--integral cpt needs --capacity2")
        mu2 = _load_capacity(args.capacity2)
    elif args.capacity2 is not None:
        raise _UsageError("--capacity2 only applies to --integral cpt")
    return mu, make_extension(name, mu, mu2)


def _scores_arg(text: str):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("scores must be comma-separated reals, got %r" % text)


def _bounds_arg(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("bounds must look like LO:HI, got %r" % text)
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("bounds must be numeric, got %r" % text)


def _subset_label(mask: int) -> str:
    return "{%s}" % subsets.subset_key(mask)


def _print_table(n: int, values) -> None:
    labels = [_subset_label(mask) for mask in range(1 << n)]
    width = max(len(s) for s in labels)
    for mask, value in enumerate(values):
        print("%-*s  %s" % (width, labels[mask], _fmt(value)))


def _cmd_transform(args) -> None:
    obj = _load_json(args.input)
    n, vals = vector_from_dict(obj)
    if args.operation == "mobius":
        out = mobius(SetFunction(n, vals))
    elif args.operation == "zeta":
        out = zeta(MobiusRepr(n, vals))
    elif args.operation == "comobius":
        out = co_mobius(SetFunction(n, vals))
    elif args.operation == "ordinal":
        out = ordinal_mobius(as_capacity(vals, n=n))
    else:
        out = conjugate(as_capacity(vals, n=n))
    payload = to_dict(out)
    if args.format == "json":
        _print_json(payload)
    else:
        _print_table(n, payload["values_by_mask"])


def _cmd_eval(args) -> None:
    _, ext = _load_extension(args)
    value = ext(np.asarray(args.scores))
    if args.format == "json":
        _print_json({"integral": args.integral, "scores": list(args.scores), "value": value})
    else:
        print(_fmt(value))


def _cmd_interaction(args) -> None:
    if args.coalition is not None and (args.max_order is not None or args.tol is not None):
        raise _UsageError("--max-order and --tol do not apply to --coalition")
    mu = _load_capacity(args.capacity)
    if args.coalition is not None:
        mask = subsets.parse_subset_key(args.coalition, mu.n)
        value = interaction_index(mu, mask)
        if args.format == "json":
            _print_json({"coalition": subsets.subset_key(mask), "value": value})
        else:
            print(_fmt(value))
        return
    tol = DEFAULT_TOL if args.tol is None else args.tol
    try:
        report = interaction_report(mu, max_order=args.max_order, tol=tol)
    except InvalidFormat as exc:
        raise _UsageError(str(exc)) from None
    if args.format == "json":
        _print_json(report.to_dict())
        return
    for i in range(mu.n):
        print("shapley %d  %s" % (i + 1, _fmt(report.shapley[i])))
    for mask in sorted(report.values):
        if subsets.member_count(mask) < 2:
            continue
        print(
            "interaction %-12s %-16s %s"
            % (_subset_label(mask), _fmt(report.values[mask]), report.labels[mask])
        )


def _verify_config(args) -> AxiomCheckConfig:
    kwargs = {
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        "allow_out_of_domain": args.allow_out_of_domain,
    }
    if args.score_bounds is not None:
        kwargs["score_bounds"] = args.score_bounds
    if args.alpha_bounds is not None:
        kwargs["alpha_bounds"] = args.alpha_bounds
    try:
        return AxiomCheckConfig(**kwargs)
    except CapacitiesError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_verify(args) -> None:
    cfg = _verify_config(args)
    mu, ext = _load_extension(args)
    if args.axioms.strip().lower() == "all":
        wanted = list(AXIOM_NAMES)
    else:
        wanted = [a.strip() for a in args.axioms.split(",") if a.strip()]
        if not wanted:
            raise _UsageError("--axioms needs at least one axiom name")
    reports = [check_axiom(axiom, ext, mu, cfg) for axiom in wanted]
    if args.format == "json":
        _print_json({"extension": ext.name, "axioms": [r.to_dict() for r in reports]})
        return
    for r in reports:
        if r.passed:
            print(
                "%-3s pass  (%d samples, %d skipped)" % (r.axiom, r.samples_tested, r.skipped)
            )
        else:
            ce = r.counterexample
            print(
                "%-3s FAIL  expected %s got %s at %s"
                % (r.axiom, _fmt(ce.expected), _fmt(ce.got), json.dumps(_round12(ce.inputs)))
            )


def _cmd_compare(args) -> None:
    cfg = _verify_config(args)
    mu = _load_capacity(args.capacity)
    points = _load_json(args.scores_file)
    if not isinstance(points, list):
        raise CapacitiesError("scores file must hold a JSON array of score vectors")
    table = compare_extensions(mu, points, cfg)
    if args.format == "json":
        _print_json(table.to_dict())
        return
    header = ["scores"] + list(table.operators)
    print("  ".join("%-16s" % h for h in header))
    for point, row in zip(table.points, table.table):
        cells = [",".join(_fmt(x) for x in point)] + [_fmt(v) for v in row]
        print("  ".join("%-16s" % c for c in cells))
    print()
    for op in table.operators:
        verdicts = table.verdicts[op]
        line = "  ".join(
            "%s=%s" % (ax, "pass" if verdicts[ax] else "fail") for ax in verdicts
        )
        print("%-16s %s" % (op, line))


def _cmd_rank(args) -> None:
    model = model_from_dict(_load_json(args.model))
    acts = acts_from_obj(_load_json(args.acts))
    ranking = rank_acts(model, acts)
    if args.format == "json":
        _print_json({"ranking": [r.to_dict() for r in ranking]})
        return
    for r in ranking:
        name = r.act.label or ("act %d" % r.index)
        tie = "  ~ indifferent with previous" if r.indifferent_to_previous else ""
        print("%d: %s  score %s%s" % (r.position, name, _fmt(r.score), tie))


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_verify_flags(p) -> None:
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--score-bounds", type=_bounds_arg, default=None, metavar="LO:HI")
    p.add_argument("--alpha-bounds", type=_bounds_arg, default=None, metavar="LO:HI")
    p.add_argument("--allow-out-of-domain", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capacities",
        description="Capacities on finite criteria sets: transforms, integrals, "
        "interaction indices, axiom checks, and act ranking.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("transform", help="apply a transform to a value table")
    p.add_argument("operation", choices=("mobius", "zeta", "comobius", "ordinal", "conjugate"))
    p.add_argument("--input", required=True, help="JSON file with the value table")
    _add_format(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("eval", help="evaluate an integral on a score vector")
    p.add_argument("--integral", choices=INTEGRAL_CHOICES, required=True)
    p.add_argument("--capacity", required=True)
    p.add_argument("--capacity2", default=None, help="loss-side capacity for cpt")
    p.add_argument("--scores", type=_scores_arg, required=True, metavar="X1,X2,...")
    _add_format(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("interaction", help="interaction indices and Shapley values")
    p.add_argument("--capacity", required=True)
    p.add_argument("--coalition", default=None, metavar="1,3", help="single coalition to evaluate")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--tol", type=float, default=None, help="non-interactive band (default 1e-9)")
    _add_format(p)
    p.set_defaults(func=_cmd_interaction)

    p = sub.add_parser("verify", help="sample aggregation axioms against an integral")
    p.add_argument("--capacity", required=True)
    p.add_argument("--capacity2", default=None, help="loss-side capacity for cpt")
    p.add_argument("--integral", choices=INTEGRAL_CHOICES, required=True)
    p.add_argument("--axioms", default="all", metavar="HE,A1,...")
    _add_verify_flags(p)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="tabulate the extensions on score vectors")
    p.add_argument("--capacity", required=True)
    p.add_argument("--scores-file", required=True, help="JSON array of score vectors")
    _add_verify_flags(p)
    _add_format(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("rank", help="rank acts under an aggregation model")
    p.add_argument("--model", required=True)
    p.add_argument("--acts", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_rank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except CapacitiesError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
