"""Command-line driver.

    toda2 algebra build sl3 [--out spec.json]
    toda2 algebra validate <name-or-path>
    toda2 check {mcybe,jacobi,involutivity,casimir,morphism,independence,
                 rank,rais,quadratic-relations,toda,all} --algebra sl2 …
    toda2 flow run --algebra sl2 --field t --dt 1e-3 --T 1.0 [--csv out.csv]
    toda2 flow commutation --algebra sl2

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error, 3 a program bug: any other exception, whose traceback
goes to stderr.  Each check keeps its own tolerance; no flag changes it.
Reports are deterministic for fixed flags.  This module only parses, runs
and emits: every report, those of `flow run` and `flow commutation`
included, is built by `checks`.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
import traceback
from pathlib import Path

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    AlgebraValidationError,
    build_gl,
    build_sl,
    describe_violation,
    load_spec,
    save_spec,
    spec_to_json,
)
from .checks import BATTERY_NAMES, flow_commutation_reports, flow_run_reports, run_battery
from .flows import FIELDS, MAX_STEPS, FlowConfig, integrate, trajectory_to_csv
from .poisson import CapabilityError, PreconditionError, phase_tp
from .reports import CheckReport, all_pass, emit_report

_BUILTIN = re.compile(r"^(sl|gl)([1-9]\d*)$")
# builder orders the CLI accepts: the structure tensor is dim³·8 bytes (~0.5 GB
# at sl20); validate_spec takes 23 ms at sl9 and 29 ms at gl9, so the bound
# waits on checking the orders above 9, not on the build
BUILTIN_ORDERS = range(2, 10)
# every battery draws its samples as one array: involutivity on gl9 takes
# ~0.26 MB per sample, so a run at this bound stays near 0.3 GB
MAX_SAMPLES = 1000


def resolve_algebra(token: str) -> AlgebraSpec:
    """A builtin name sl<n>/gl<n> with n in BUILTIN_ORDERS, or a spec document path."""
    m = _BUILTIN.match(token)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if n not in BUILTIN_ORDERS:
            raise AlgebraError(
                f"builtin algebra {token!r}: order must be between "
                f"{BUILTIN_ORDERS.start} and {BUILTIN_ORDERS.stop - 1}, got {n}"
            )
        return build_sl(n) if kind == "sl" else build_gl(n)
    if Path(token).exists():
        return load_spec(token)
    raise AlgebraError(
        f"unknown algebra {token!r}: expected sl<n>, gl<n>, or a spec file path"
    )


def _emit(reports: list[CheckReport], args) -> int:
    text = emit_report(reports, fmt=args.format)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0 if all_pass(reports) else 1


def _cmd_algebra_build(args) -> int:
    alg = resolve_algebra(args.name)
    if args.out:
        save_spec(alg, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(spec_to_json(alg))
    return 0


def _cmd_algebra_validate(args) -> int:
    # building or loading validates: a spec that comes back holds every invariant
    try:
        alg = resolve_algebra(args.algebra)
    except AlgebraValidationError as err:   # parsed, but violates invariants
        for v in err.violations:
            print(f"violated: {describe_violation(v)}")
        return 1
    print(f"{alg.name}: all structural invariants hold (dim={alg.dim}, rank={alg.rank})")
    return 0


def _cmd_check(args) -> int:
    reports: list[CheckReport] = []
    for token in args.algebra:
        alg = resolve_algebra(token)
        reports.extend(run_battery(args.name, alg, samples=args.samples, seed=args.seed))
    return _emit(reports, args)


def _cmd_flow_run(args) -> int:
    cfg = FlowConfig(field=args.field, dt=args.dt, T=args.T, i=args.i,
                     lam=args.lam)
    ps = phase_tp(resolve_algebra(args.algebra))
    traj = integrate(cfg, ps.sample_points(args.seed, 1)[0])
    reports = flow_run_reports(ps, cfg, traj, args.seed)
    if args.csv:
        trajectory_to_csv(traj, args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    return _emit(reports, args)


def _cmd_flow_commutation(args) -> int:
    m0 = phase_tp(resolve_algebra(args.algebra)).sample_points(args.seed, 1)[0]
    return _emit(flow_commutation_reports(m0, args.dt, args.steps, args.seed), args)


def _whole(least: int, most: float):
    """An argparse type: a whole number from `least` to `most`."""

    def whole(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be a whole number, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value

    return whole


class _Parser(argparse.ArgumentParser):
    """Takes a token that starts like a number (-1e-3, -5., -inf) for a value,
    which Python 3.11's argparse takes for an option unless it reads -1 or
    -1.5; no option here looks like a number.  Subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_whole(0, math.inf), default=42)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="toda2",
        description="R-matrix laboratory for the 2-Toda lattice on graded Lie algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ap = sub.add_parser("algebra", help="build or validate algebra specs")
    asub = ap.add_subparsers(dest="subcommand", required=True)
    b = asub.add_parser("build", help="emit the spec document of a builtin algebra")
    b.add_argument("name", help="builtin algebra name, e.g. sl3 or gl2")
    b.add_argument("--out", help="write JSON here instead of stdout")
    b.set_defaults(fn=_cmd_algebra_build)
    v = asub.add_parser("validate", help="check every structural invariant")
    v.add_argument("algebra", help="builtin name or spec file path")
    v.set_defaults(fn=_cmd_algebra_validate)

    c = sub.add_parser("check", help="run a named check battery")
    c.add_argument("name", choices=sorted(BATTERY_NAMES) + ["all"])
    c.add_argument("--algebra", action="append", default=None,
                   help="builtin name or spec path; repeatable (default sl2)")
    c.add_argument("--samples", type=_whole(1, MAX_SAMPLES), default=20)
    _add_report_flags(c)
    c.set_defaults(fn=_cmd_check)

    f = sub.add_parser("flow", help="integrate Lax flows")
    fsub = f.add_subparsers(dest="subcommand", required=True)
    r = fsub.add_parser("run", help="integrate one flow and report drifts")
    r.add_argument("--algebra", default="sl2")
    r.add_argument("--field", choices=FIELDS, default="t")
    r.add_argument("--i", type=int, default=None,
                   help="generator label (an exponent of the algebra) for "
                        "quadratic/linear pencil fields")
    r.add_argument("--lam", type=float, default=None,
                   help="pencil parameter for quadratic/linear pencil fields")
    r.add_argument("--dt", type=float, default=1e-3)
    r.add_argument("--T", type=float, default=1.0)
    r.add_argument("--csv", help="write the trajectory as CSV to this path")
    _add_report_flags(r)
    r.set_defaults(fn=_cmd_flow_run)
    fc = fsub.add_parser("commutation", help="t/s flow commutation defect")
    fc.add_argument("--algebra", default="sl2")
    fc.add_argument("--dt", type=float, default=1e-3)
    fc.add_argument("--steps", type=_whole(1, MAX_STEPS), default=100)
    _add_report_flags(fc)
    fc.set_defaults(fn=_cmd_flow_commutation)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    for token in sys.argv[1:] if argv is None else argv:
        # argparse drops the value of --opt=-- and stores [] instead of calling its type
        if token.startswith("--") and token.endswith("=--"):
            parser.error(f"argument {token[:-3]}: expected one argument")
    args = parser.parse_args(argv)
    if getattr(args, "algebra", None) is None and args.command == "check":
        args.algebra = ["sl2"]
    try:
        return args.fn(args)
    except (AlgebraError, CapabilityError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
