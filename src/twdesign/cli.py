"""Command-line entry point.

Subcommands: gen (write a random instance), design (windows for a given
route), solve (route and windows together), eval (out-of-sample report),
guideline (service-level sweep).  Exit codes: 0 success, 1 bad input,
2 proven infeasibility.  All randomness flows from one --seed, split
into named substreams (covgen, sampling-train, sampling-test), so reruns
are byte-identical; --no-timestamp drops the only non-deterministic
output fields.  --config names a JSON object of option values that
fills in, for the chosen command, each option the command line leaves
out; a typed flag wins.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .evaluate import evaluate_plan, guideline_sweep, report_rows, write_report_csv
from .instance import (
    BUDGET_FACTOR,
    CovGenParams,
    _open_for_write,
    _read_json,
    _write_json,
    load_instance,
    load_route,
    random_network,
    route_to_xy,
    sample_travel_times,
    save_instance,
    save_route,
    substream,
)
from .solver import InfeasibleError, branch_and_bound, build_model, route_cuts
from .window_design import (
    PenaltyConfig,
    design_fixed_width,
    load_plan,
    penalties_from_beta,
    save_plan,
    write_cost_csv,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # infeasibility here, so bad flags exit 1 instead.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise ValueError(f"--{name} is required")


# a draw keeps q x arcs float64 values and peaks near 24 bytes a value
# while it is drawn: about 86 MB at q = 100,000 on 36 arcs
_MAX_SCENARIOS = 100_000


def _scenario_count(text) -> int:
    """The type of --q-train and --q-test: an integer from 1 to _MAX_SCENARIOS."""
    try:
        q = int(text)
    except (TypeError, ValueError):
        q = 0
    if not 1 <= q <= _MAX_SCENARIOS:
        raise argparse.ArgumentTypeError(f"expected an integer from 1 to {_MAX_SCENARIOS}")
    return q


def _add_penalty_flags(p):
    p.add_argument("--beta-l", type=float, help="target early-arrival tolerance")
    p.add_argument("--beta-u", type=float, help="target late-arrival tolerance")
    p.add_argument("--a-w", type=float, help="explicit width weight")
    p.add_argument("--a-l", type=float, help="explicit earliness weight")
    p.add_argument("--a-u", type=float, help="explicit tardiness weight")


def _add_model_flags(p):
    p.add_argument("--model", choices=("sm", "rm"))
    p.add_argument("--q-train", type=_scenario_count, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha2", type=float, default=0.0)


def _penalties(args, n_customers: int) -> PenaltyConfig:
    explicit = [args.a_w, args.a_l, args.a_u]
    betas = [args.beta_l, args.beta_u]
    if any(v is not None for v in explicit):
        if any(v is not None for v in betas):
            raise ValueError("give either --beta-l/--beta-u or --a-w/--a-l/--a-u, not both")
        if any(v is None for v in explicit):
            raise ValueError("explicit weights need all of --a-w, --a-l, --a-u")
        ones = np.ones(n_customers)
        return PenaltyConfig(args.a_w * ones, args.a_l * ones, args.a_u * ones)
    if any(v is None for v in betas):
        raise ValueError("penalties required: --beta-l and --beta-u (or explicit --a-w/--a-l/--a-u)")
    return penalties_from_beta(args.beta_l, args.beta_u, n_customers)


def build_parser() -> _Parser:
    parser = _Parser(prog="twdesign", description=__doc__)
    parser.add_argument("--config", type=Path, help="JSON file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--customers", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--complete", action="store_true", help="use the complete arc set")
    p.add_argument("--cv-min", type=float, default=0.01)
    p.add_argument("--cv-max", type=float, default=0.2)
    p.add_argument("--neg-flip-prob", type=float, default=0.05)
    p.add_argument("--time-budget", type=float, default=None,
                   help=f"route duration budget (default: {BUDGET_FACTOR} x the mean duration of the embedded cycle)")

    p = sub.add_parser("design", help="design windows for a fixed route")
    p.add_argument("--instance", type=Path)
    p.add_argument("--route", type=Path)
    _add_model_flags(p)
    _add_penalty_flags(p)
    p.add_argument("--fixed-width", action="store_true", help="shared window width (sm only)")
    p.add_argument("--out", type=Path)
    p.add_argument("--cost-csv", type=Path, default=None)
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("solve", help="optimise the route and its windows")
    p.add_argument("--instance", type=Path)
    _add_model_flags(p)
    _add_penalty_flags(p)
    p.add_argument("--alpha1", type=float, default=0.0)
    p.add_argument("--cut-log", type=Path, default=None)
    p.add_argument("--out-dir", type=Path)
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("eval", help="score a plan on fresh test draws")
    p.add_argument("--instance", type=Path)
    p.add_argument("--route", type=Path)
    p.add_argument("--plan", type=Path)
    p.add_argument("--q-test", type=_scenario_count, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default="")
    p.add_argument("--beta-l", type=float, default=None)
    p.add_argument("--beta-u", type=float, default=None)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("guideline", help="sweep service levels across models and seeds")
    p.add_argument("--instance", type=Path)
    p.add_argument("--beta-pair", action="append",
                   metavar="BL,BU", help="repeatable, e.g. --beta-pair 0.05,0.05")
    p.add_argument("--models", default="sm,rm")
    p.add_argument("--seeds", help="comma-separated master seeds")
    p.add_argument("--q-train", type=_scenario_count, default=1000)
    p.add_argument("--q-test", type=_scenario_count, default=1000)
    p.add_argument("--alpha1", type=float, default=0.0)
    p.add_argument("--alpha2", type=float, default=0.0)
    p.add_argument("--out", type=Path)
    return parser


def _timestamp_extra(args) -> dict:
    if getattr(args, "no_timestamp", False):
        return {}
    return {"created_at": datetime.now(timezone.utc).isoformat()}


def _cmd_gen(args) -> int:
    _require(args, "customers", "out")
    if args.customers < 1:
        raise ValueError("--customers must be >= 1")
    params = CovGenParams(
        cv_min=args.cv_min,
        cv_max=args.cv_max,
        neg_flip_prob=args.neg_flip_prob,
        seed=substream(args.seed, "covgen"),
    )
    net = random_network(
        args.customers,
        seed=args.seed,
        complete=args.complete,
        cov_params=params,
        time_budget=args.time_budget,
    )
    save_instance(net, args.out)
    print(f"wrote instance with {net.n_customers} customers, {net.n_arcs} arcs to {args.out}")
    return 0


def _model(args, net):
    """The model named by --model (design has no --alpha1)."""
    return build_model(args.model, net, args.seed, args.q_train, getattr(args, "alpha1", 0.0), args.alpha2)


def _cmd_design(args) -> int:
    _require(args, "instance", "route", "model", "out")
    net = load_instance(args.instance)
    route = route_to_xy(load_route(args.route), net)
    pen = _penalties(args, net.n_customers)
    if args.fixed_width and args.model != "sm":
        raise ValueError("--fixed-width applies to the sm model only")
    model = _model(args, net)
    if args.fixed_width:
        plan = design_fixed_width(route, model.samples, pen)
    else:
        plan = model.context(net, pen).plan(route)
    save_plan(plan, args.out, extra=_timestamp_extra(args))
    if args.cost_csv is not None:
        write_cost_csv(plan, args.cost_csv)
    print(f"wrote {plan.kind} window plan (total cost {plan.total_cost:.6g}) to {args.out}")
    return 0


def _anchor_hash(anchor: np.ndarray) -> str:
    return hashlib.sha256(anchor.astype(float).tobytes()).hexdigest()[:16]


def _write_cut_log(path, cuts, net) -> None:
    labels = net.arc_labels()
    with _open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["customer", "anchor_hash", "intercept", "nonzero_coeffs"])
        for cut in cuts:
            nz = ";".join(
                f"{labels[a]}={float(cut.coeffs[a])!r}"
                for a in np.nonzero(np.abs(cut.coeffs) > 1e-15)[0]
            )
            writer.writerow([cut.customer, _anchor_hash(cut.anchor), repr(float(cut.intercept)), nz])


def _cmd_solve(args) -> int:
    _require(args, "instance", "model", "out-dir")
    net = load_instance(args.instance)
    pen = _penalties(args, net.n_customers)
    model = _model(args, net)
    res = branch_and_bound(net, model, pen)
    doc = res.to_json_dict(include_timing=not args.no_timestamp)
    _write_json({**doc, **_timestamp_extra(args)}, args.out_dir / "solve.json")
    save_plan(res.plan, args.out_dir / "plan.json", extra=_timestamp_extra(args))
    save_route(res.route.seq, args.out_dir / "route.json")
    if args.cut_log is not None:
        _write_cut_log(args.cut_log, route_cuts(model.context(net, pen), res.route), net)
    print(
        f"solved {res.model}: objective {res.objective:.6g}, route {list(res.route.seq)}, "
        f"{res.nodes} nodes, wrote {args.out_dir}"
    )
    return 0


def _cmd_eval(args) -> int:
    _require(args, "instance", "route", "plan", "out")
    net = load_instance(args.instance)
    route = route_to_xy(load_route(args.route), net)
    plan = load_plan(args.plan)
    test = sample_travel_times(net, args.q_test, substream(args.seed, "sampling-test"))
    rep = evaluate_plan(route, plan, test)
    rows = report_rows(
        rep,
        model=args.model,
        beta_l="" if args.beta_l is None else args.beta_l,
        beta_u="" if args.beta_u is None else args.beta_u,
        seed=args.seed,
        objective=plan.total_cost,
    )
    write_report_csv(rows, args.out)
    print(
        f"evaluated plan on {args.q_test} draws: early rate {rep.early_rate:.4f}, "
        f"late rate {rep.late_rate:.4f}, wrote {args.out}"
    )
    return 0


def _cmd_guideline(args) -> int:
    _require(args, "instance", "beta-pair", "seeds", "out")
    net = load_instance(args.instance)
    grid = []
    for pair in args.beta_pair:
        parts = str(pair).split(",")
        if len(parts) != 2:
            raise ValueError(f"--beta-pair expects BL,BU, got {pair!r}")
        bl_bu = (float(parts[0]), float(parts[1]))
        if bl_bu in grid:
            raise ValueError(f"--beta-pair: {pair!r} repeats an earlier pair")
        grid.append(bl_bu)
    if not grid:
        raise ValueError("--beta-pair: no BL,BU pair to sweep")
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if not models:
        raise ValueError("--models: no model to sweep")
    if len(set(models)) < len(models):
        raise ValueError(f"--models: a model is repeated in {args.models!r}")
    try:
        seeds = [int(s) for s in str(args.seeds).split(",")]
    except ValueError:
        raise ValueError(f"--seeds expects comma-separated integers, got {args.seeds!r}") from None
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"--seeds: a seed is repeated in {args.seeds!r}")
    rows = guideline_sweep(
        net,
        grid,
        models,
        seeds,
        q_train=args.q_train,
        q_test=args.q_test,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
    )
    write_report_csv(rows, args.out)
    print(f"wrote guideline sweep ({len(rows)} rows) to {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "design": _cmd_design,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "guideline": _cmd_guideline,
}


def _config_value(action, value):
    """A --config value checked and converted as argparse treats the flag's
    text: a JSON number or string goes through the option's ``type`` as
    text (so 2.5 is no int), or is kept as that text when the option has
    no ``type``; a boolean is no number or text, a switch takes only
    a boolean, a repeatable flag a list of strings, and the value must be
    one of the option's choices; a type that explains its refusal
    (``argparse.ArgumentTypeError``) is quoted.  Every value for the
    chosen command is checked, also one whose flag was typed and so is
    not used."""
    if value is None and action.default is None:
        return value
    if isinstance(action, argparse._AppendAction):
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise ValueError(f"{action.dest}: expected a list of strings, got {json.dumps(value)}")
        return value
    if action.nargs == 0 and not isinstance(value, bool):
        raise ValueError(f"{action.dest}: expected true or false, got {json.dumps(value)}")
    text = str(value) if isinstance(value, (str, int, float)) and not isinstance(value, bool) else None
    if action.type is None and text is None:
        raise ValueError(f"{action.dest}: expected a string or number, got {json.dumps(value)}")
    try:
        converted = text if action.type is None else action.type(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{action.dest}: {exc}, got {json.dumps(value)}") from None
    except (TypeError, ValueError):
        raise ValueError(f"{action.dest}: expected {action.type.__name__}, got {json.dumps(value)}") from None
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"{action.dest}: expected one of {', '.join(action.choices)}, got {json.dumps(value)}")
    return converted


def _commands(parser) -> dict:
    return parser._subparsers._group_actions[0].choices


@functools.cache
def _parsers(typed: bool = False):
    """The command parser, built once a process on first use.  With
    ``typed``, a copy in which every option defaults to SUPPRESS, so that
    parsing argv with it keeps only the options the command line gave."""
    parser = build_parser()
    if typed:
        for p in _commands(parser).values():
            for action in p._actions:
                action.default = argparse.SUPPRESS
    return parser


def _fill_from_config(args, argv) -> None:
    """Set on ``args`` each --config value for an option of the chosen
    command that ``argv`` left out."""
    cfg = _read_json(args.config, "config")
    commands = _commands(_parsers())
    # the keys are the dests that store a value; help stores none
    known = {a.dest for p in commands.values() for a in p._actions if a.default is not argparse.SUPPRESS}
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    typed = vars(_parsers(typed=True).parse_args(argv))
    for action in commands[args.command]._actions:
        if action.dest in cfg:
            value = _config_value(action, cfg[action.dest])
            if action.dest not in typed:
                setattr(args, action.dest, value)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parsers().parse_args(argv)
    if args.config is not None:
        try:
            _fill_from_config(args, argv)
        except (OSError, ValueError) as exc:
            print(f"twdesign: error: --config: {exc}", file=sys.stderr)
            return 1
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleError as exc:
        print(f"twdesign: infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"twdesign: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
