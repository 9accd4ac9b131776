"""Command line front end over the JSON file schemas.

Subcommands: transform, eval, interaction, verify, compare, rank. Each
returns one payload, a JSON-ready dict, and prints nothing: :func:`main`
alone writes it to stdout, as JSON (--format json) or rendered as text
(the default), every number with 12 significant digits. Diagnostics go to
stderr. Exit codes: 0 on success, 1 on domain errors (invalid capacity,
dimension mismatch, unknown axiom), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

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
    capacity_from_dict,
    co_mobius,
    conjugate,
    mobius,
    ordinal_mobius,
    set_function_from_dict,
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
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past the digit limit
        raise CapacitiesError("%s is not valid JSON: %s" % (path, exc)) from exc


def _load_capacity(path: str):
    return capacity_from_dict(_load_json(path))


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


def _cmd_transform(args) -> dict:
    obj = _load_json(args.input)
    if args.operation == "mobius":
        out = mobius(set_function_from_dict(obj))
    elif args.operation == "zeta":
        out = zeta(MobiusRepr._own(*vector_from_dict(obj)))
    elif args.operation == "comobius":
        out = co_mobius(set_function_from_dict(obj))
    elif args.operation == "ordinal":
        out = ordinal_mobius(capacity_from_dict(obj))
    else:
        out = conjugate(capacity_from_dict(obj))
    return to_dict(out)


def _cmd_eval(args) -> dict:
    _, ext = _load_extension(args)
    value = ext(np.asarray(args.scores))
    return {"integral": args.integral, "scores": list(args.scores), "value": value}


def _cmd_interaction(args) -> dict:
    if args.coalition is not None and (args.max_order is not None or args.tol is not None):
        raise _UsageError("--max-order and --tol do not apply to --coalition")
    mu = _load_capacity(args.capacity)
    if args.coalition is not None:
        mask = subsets.parse_subset_key(args.coalition, mu.n)
        return {"coalition": subsets.subset_key(mask), "value": interaction_index(mu, mask)}
    tol = DEFAULT_TOL if args.tol is None else args.tol
    try:
        return interaction_report(mu, max_order=args.max_order, tol=tol).to_dict()
    except InvalidFormat as exc:
        raise _UsageError(str(exc)) from None


def _verify_config(args) -> AxiomCheckConfig:
    cfg = {f.name: getattr(args, f.name, f.default) for f in fields(AxiomCheckConfig)}
    try:
        return AxiomCheckConfig(**cfg)
    except CapacitiesError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_verify(args) -> dict:
    cfg = _verify_config(args)
    mu, ext = _load_extension(args)
    if args.axioms.strip().lower() == "all":
        wanted = list(AXIOM_NAMES)
    else:
        wanted = [a.strip() for a in args.axioms.split(",") if a.strip()]
        if not wanted:
            raise _UsageError("--axioms needs at least one axiom name")
    reports = [check_axiom(a, ext, mu, cfg) for a in wanted]
    return {"extension": ext.name, "axioms": [r.to_dict() for r in reports]}


def _cmd_compare(args) -> dict:
    cfg = _verify_config(args)
    mu = _load_capacity(args.capacity)
    points = _load_json(args.scores_file)
    if not isinstance(points, list):
        raise CapacitiesError("scores file must hold a JSON array of score vectors")
    return compare_extensions(mu, points, cfg).to_dict()


def _cmd_rank(args) -> dict:
    model = model_from_dict(_load_json(args.model))
    acts = acts_from_obj(_load_json(args.acts))
    return {"ranking": [r.to_dict() for r in rank_acts(model, acts)]}


# The text renderers: each prints one subcommand's payload as lines.


def _print_table(payload) -> None:
    labels = ["{%s}" % subsets.subset_key(mask) for mask in range(1 << payload["n"])]
    width = max(len(s) for s in labels)
    for label, value in zip(labels, payload["values_by_mask"]):
        print("%-*s  %s" % (width, label, _fmt(value)))


def _print_value(payload) -> None:
    print(_fmt(payload["value"]))


def _print_interaction(payload) -> None:
    if "coalition" in payload:
        _print_value(payload)
        return
    for i, phi in enumerate(payload["shapley"], 1):
        print("shapley %d  %s" % (i, _fmt(phi)))
    for key, value in payload["values"].items():  # in mask order
        if "," in key:
            print("interaction %-12s %-16s %s"
                  % ("{%s}" % key, _fmt(value), payload["labels"][key]))


def _print_verify(payload) -> None:
    for r in payload["axioms"]:
        if r["passed"]:
            print("%-3s pass  (%d samples, %d skipped)"
                  % (r["axiom"], r["samples_tested"], r["skipped"]))
        else:
            ce = r["counterexample"]
            print("%-3s FAIL  expected %s got %s at %s" % (
                r["axiom"], _fmt(ce["expected"]), _fmt(ce["got"]),
                json.dumps(_round12(ce["inputs"]))))


def _print_compare(payload) -> None:
    header = ["scores"] + payload["operators"]
    print("  ".join("%-16s" % h for h in header))
    for point, row in zip(payload["points"], payload["table"]):
        cells = [",".join(_fmt(x) for x in point)] + [_fmt(v) for v in row]
        print("  ".join("%-16s" % c for c in cells))
    print()
    for op, verdicts in payload["verdicts"].items():
        line = "  ".join(
            "%s=%s" % (ax, "pass" if ok else "fail") for ax, ok in verdicts.items()
        )
        print("%-16s %s" % (op, line))


def _print_ranking(payload) -> None:
    for r in payload["ranking"]:
        name = r["label"] or ("act %d" % r["index"])
        tie = "  ~ indifferent with previous" if r["indifferent_to_previous"] else ""
        print("%d: %s  score %s%s" % (r["position"], name, _fmt(r["score"]), tie))


def _add_verify_flags(p) -> None:
    cfg = AxiomCheckConfig()
    p.add_argument("--samples", type=int, default=cfg.samples)
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--tol", type=float, default=cfg.tol)
    p.add_argument("--score-bounds", type=_bounds_arg, default=cfg.score_bounds, metavar="LO:HI")
    p.add_argument("--alpha-bounds", type=_bounds_arg, default=cfg.alpha_bounds, metavar="LO:HI")


@functools.cache  # parsing leaves the parser as it was, so one per process serves
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
    p.set_defaults(func=_cmd_transform, render=_print_table)

    p = sub.add_parser("eval", help="evaluate an integral on a score vector")
    p.add_argument("--integral", choices=INTEGRAL_CHOICES, required=True)
    p.add_argument("--capacity", required=True)
    p.add_argument("--capacity2", default=None, help="loss-side capacity for cpt")
    p.add_argument("--scores", type=_scores_arg, required=True, metavar="X1,X2,...")
    p.set_defaults(func=_cmd_eval, render=_print_value)

    p = sub.add_parser("interaction", help="interaction indices and Shapley values")
    p.add_argument("--capacity", required=True)
    p.add_argument("--coalition", default=None, metavar="1,3", help="single coalition to evaluate")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--tol", type=float, default=None, help="non-interactive band (default 1e-9)")
    p.set_defaults(func=_cmd_interaction, render=_print_interaction)

    p = sub.add_parser("verify", help="sample aggregation axioms against an integral")
    p.add_argument("--capacity", required=True)
    p.add_argument("--capacity2", default=None, help="loss-side capacity for cpt")
    p.add_argument("--integral", choices=INTEGRAL_CHOICES, required=True)
    p.add_argument("--axioms", default="all", metavar="HE,A1,...")
    _add_verify_flags(p)
    # compare always samples its verdicts out of domain, so only verify takes the flag.
    p.add_argument("--allow-out-of-domain", action="store_true")
    p.set_defaults(func=_cmd_verify, render=_print_verify)

    p = sub.add_parser("compare", help="tabulate the extensions on score vectors")
    p.add_argument("--capacity", required=True)
    p.add_argument("--scores-file", required=True, help="JSON array of score vectors")
    _add_verify_flags(p)
    p.set_defaults(func=_cmd_compare, render=_print_compare)

    p = sub.add_parser("rank", help="rank acts under an aggregation model")
    p.add_argument("--model", required=True)
    p.add_argument("--acts", required=True)
    p.set_defaults(func=_cmd_rank, render=_print_ranking)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except CapacitiesError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.format == "json":
        _print_json(payload)
    else:
        args.render(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
