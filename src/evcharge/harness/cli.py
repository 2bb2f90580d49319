"""Command-line front end.

Exit codes: 0 success, 1 validation error, 2 input/output error,
3 internal-consistency violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..core import InternalConsistencyError, ValidationError, validate_spec
from ..online import make_policy
from ..ratio import solve_pi_star
from .config import ExperimentConfig, _coerce, apply_overrides, load_config
from .ingest import IngestResult, ParseError, ingest_prices
from .report import emit_report, write_report, write_simulate_reports
from .runner import check_kwh_range, spec_from_calibration
from .sweeps import sweep_alpha, sweep_rate_limit

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


def _spec_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p-min", type=float, required=True)
    sub.add_argument("--p-max", type=float, required=True)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--capacity", default="1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evcharge", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve-ratio", help="print the best maintainable ratio target")
    _spec_args(solve)

    adv = commands.add_parser("adversary", help="emit a worst-case price trace as CSV")
    _spec_args(adv)
    adv.add_argument("--pi", type=float, default=None, help="ratio target (default: solved)")
    adv.add_argument("--steps", type=int, default=1000)
    adv.add_argument("--rate-limited", action="store_true",
                     help="repeat each level ceil(capacity) times")
    adv.add_argument("--out", default=None, help="output CSV (default stdout)")

    sim = commands.add_parser("simulate", help="run policies over ingested price episodes")
    sim.add_argument("--config", default=None)
    sim.add_argument("--prices", default=None)
    sim.add_argument("--policies", default=None, help="comma-separated override")
    sim.add_argument("--alpha", type=float, default=None)
    sim.add_argument("--capacity", default=None)
    sim.add_argument("--out", default=None, help="output directory")

    sweep = commands.add_parser("sweep", help="sweep dissatisfaction price or rate limit")
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--prices", default=None)
    sweep.add_argument("--out", default=None)
    mode = sweep.add_mutually_exclusive_group(required=True)
    mode.add_argument("--alpha-grid", default=None, help="comma list of p_min multiples")
    mode.add_argument("--rate-grid", default=None, help="comma list of rate factors")
    return parser


def _load_cfg(args) -> ExperimentConfig:
    """The config file (or the defaults) with every flag the command was
    given over it; a text flag is parsed as its config line would be."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for flag in ("prices", "alpha", "capacity", "out", "policies", "alpha_grid", "rate_grid"):
        value = getattr(args, flag, None)  # None: not given, or not this command's
        key = "out_dir" if flag == "out" else flag
        overrides[key] = _coerce(key, value) if isinstance(value, str) else value
    return apply_overrides(cfg, **overrides)


def _cmd_solve_ratio(args) -> int:
    spec = validate_spec(args.p_min, args.p_max, args.alpha, args.capacity)
    sol = solve_pi_star(spec)
    payload = {
        "p_min": spec.p_min,
        "p_max": spec.p_max,
        "alpha": spec.alpha,
        "capacity": str(spec.capacity),
        "theta": spec.theta,
        "pi_star": sol.pi_star,
        "alpha_star": sol.alpha_star,
        "branch": sol.branch,
        "upper_bound": sol.upper_bound,
        "residual": sol.residual,
    }
    print(json.dumps(payload, indent=1))
    return EXIT_OK


def _cmd_adversary(args) -> int:
    # imported here, so that the other commands do not load it
    from ..adversary import worst_case_no_limit, worst_case_rate_limited
    spec = validate_spec(args.p_min, args.p_max, args.alpha, args.capacity)
    pi = args.pi if args.pi is not None else solve_pi_star(spec).pi_star
    worst_case = worst_case_rate_limited if args.rate_limited else worst_case_no_limit
    trace = worst_case(spec, pi, args.steps)
    rows = [{"slot": i, "price": price} for i, price in enumerate(trace)]
    if args.out is None:
        write_report(rows, "csv", sys.stdout)
    else:
        emit_report(rows, "csv", args.out)
    return EXIT_OK


def _ingest(command: str, cfg: ExperimentConfig) -> IngestResult:
    if cfg.prices is None:
        raise ValidationError(f"{command} needs --prices or a config with a prices path")
    data = ingest_prices(cfg.prices, cfg)
    if not data.episodes:
        raise ValidationError(f"{cfg.prices}: no complete episodes")
    return data


def _cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    data = _ingest("simulate", cfg)
    spec = spec_from_calibration(cfg, data.calibration)
    for policy in cfg.policies:
        make_policy(policy, spec)  # a bad policy fails here, before any output
    check_kwh_range(cfg, spec)
    os.makedirs(cfg.out_dir, exist_ok=True)
    summary = write_simulate_reports(cfg, spec, data)
    print(f"wrote {len(summary)} episode rows to {cfg.out_dir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    sweep, name = ((sweep_alpha, "sweep_alpha") if args.alpha_grid is not None
                   else (sweep_rate_limit, "sweep_rate"))
    rows = sweep(cfg, _ingest("sweep", cfg))
    os.makedirs(cfg.out_dir, exist_ok=True)
    emit_report(rows, "csv", os.path.join(cfg.out_dir, f"{name}.csv"))
    emit_report(rows, "json", os.path.join(cfg.out_dir, f"{name}.json"))
    print(f"wrote {len(rows)} rows to {cfg.out_dir}/{name}.(csv|json)")
    return EXIT_OK


_COMMANDS = {
    "solve-ratio": _cmd_solve_ratio,
    "adversary": _cmd_adversary,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
