"""Command-line interface.

Subcommands: run, sweep, lg-check, entangle, appendix-a, validate.
Exit codes: 0 success, 1 validation/runtime failure, 2 config error.
Each ``_cmd_*`` returns ``(files, lines, code)``: its files as ``{name:
text}``, its stdout lines and its exit code.  :func:`main` checks --out
(default ./out) before the command runs and writes the files after it, in
its one output step.  Files are byte-exact deterministic; wall-clock timing
goes to stdout only, where ``run`` prints its own timing of its scenario.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

from .entanglement import TwoModeGaussianParams, is_entangled, probe_c_matrices
from .errors import ConfigError, PointersimError
from .fouriercorr import appendix_a_check
from .scenarios import (
    json_text,
    load_config,
    report_json_text,
    reports_csv_text,
    run_scenario,
    run_sweep,
    sweep_json_text,
)
from .shifts import lg_check
from . import validation


def _cmd_run(args):
    cfg = load_config(args.scenario)
    t0 = time.perf_counter()
    report = run_scenario(cfg)
    wall = time.perf_counter() - t0
    csv_name, json_name = f"{cfg.scenario_id}.csv", f"{cfg.scenario_id}.json"
    lines = [f"scenario {cfg.scenario_id}: prob={report.probability:.6f} wall={wall:.3f}s"]
    for axis in range(len(report.shift_q)):
        lines.append(f"  axis {axis + 1}: dq={report.shift_q[axis]:+.6e} "
                     f"(pred {report.predicted_dq[axis]:+.6e})  "
                     f"dp={report.shift_p[axis]:+.6e} (pred {report.predicted_dp[axis]:+.6e})")
    lines.append(f"wrote {os.path.join(args.out, csv_name)} and "
                 f"{os.path.join(args.out, json_name)}")
    return {csv_name: reports_csv_text([report]), json_name: report_json_text(report)}, lines, 0


def _cmd_sweep(args):
    cfg = load_config(args.scenario)
    multipliers = args.multipliers if args.multipliers else cfg.sweep
    if not multipliers:
        raise ConfigError("no --multipliers given and the scenario has no sweep list",
                          "sweep")
    reports, summary = run_sweep(cfg, multipliers)
    files = {f"{cfg.scenario_id}_sweep.csv": reports_csv_text(reports),
             f"{cfg.scenario_id}_sweep.json": sweep_json_text(reports, summary)}
    slope = summary["slope"]
    return files, [
        f"scenario {cfg.scenario_id}: multipliers {summary['multipliers']}",
        f"residual norms: {['%.3e' % n for n in summary['residual_norms']]}",
        f"log-log residual slope: {'n/a' if slope is None else f'{slope:.3f}'}",
    ], 0


def _cmd_lg_check(args):
    l, sigma = args.l, args.sigma
    m, residual = lg_check(l, sigma)
    obj = {
        "l": l,
        "sigma": sigma,
        "corr_x_py": float(m.cov_qp[0, 1]),
        "corr_y_px": float(m.cov_qp[1, 0]),
        "corr_x_y": float(m.cov_qq[0, 1]),
        "expected_corr_x_py": 0.5 * l,
        "expected_corr_y_px": -0.5 * l,
        "residual": float(residual),
    }
    return {f"lg_check_l{l}.json": json_text(obj)}, [
        f"l={l}: corr(x,p_y)={obj['corr_x_py']:+.6f} (target {0.5 * l:+.2f}), "
        f"corr(y,p_x)={obj['corr_y_px']:+.6f} (target {-0.5 * l:+.2f}), "
        f"corr(x,y)={obj['corr_x_y']:+.2e}, residual={residual:.2e}"], 0


def _cmd_entangle(args):
    direct, recon = probe_c_matrices(TwoModeGaussianParams(args.alpha, args.beta, args.gamma),
                                     args.strength)
    obj = {
        "alpha": args.alpha,
        "beta": args.beta,
        "gamma": args.gamma,
        "probe_strength": args.strength,
        "c_direct": [[float(v) for v in row] for row in direct.entries],
        "c_from_shifts": [[float(v) for v in row] for row in recon.entries],
        "det_direct": direct.det,
        "det_from_shifts": recon.det,
        "entangled_direct": is_entangled(direct),
        "entangled_from_shifts": is_entangled(recon),
    }
    name = f"entangle_a{args.alpha:g}_b{args.beta:g}_g{args.gamma:g}.json"
    return {name: json_text(obj)}, [
        f"det(C) direct = {direct.det:+.6e}, from shifts = {recon.det:+.6e}",
        f"entangled: direct={obj['entangled_direct']} "
        f"from_shifts={obj['entangled_from_shifts']}"], 0


def _cmd_appendix_a(args):
    numeric, analytic, residual = appendix_a_check(args.sigma1, args.sigma2, args.c12)
    obj = {
        "sigma1": args.sigma1,
        "sigma2": args.sigma2,
        "c12": args.c12,
        "numeric": [numeric.real, numeric.imag],
        "analytic": [analytic.real, analytic.imag],
        "residual": residual,
    }
    name = f"appendix_a_s{args.sigma1:g}_{args.sigma2:g}_c{args.c12:g}.json"
    return {name: json_text(obj)}, [
        f"numeric = {numeric.real:+.6e}{numeric.imag:+.6e}i, "
        f"analytic = {analytic.real:+.6e}{analytic.imag:+.6e}i, residual = {residual:.2e}"], 0


def _cmd_validate(args):
    results = validation.run_all()
    files = {"validate_summary.json": validation.summary_json_text(results),
             "validate_summary.csv": validation.summary_csv_text(results)}
    lines = [r.line() for r in results]
    failed = [r.number for r in results if not r.ok]
    lines.append(f"FAILED criteria: {failed}" if failed else "all criteria passed")
    return files, lines, 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointersim",
        description="Weak-measurement simulations with correlated pointer states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("run", parents=[common], help="run one scenario file")
    p.add_argument("scenario", help="path to a scenario JSON document")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", parents=[common], help="run a scenario over strength multipliers")
    p.add_argument("scenario")
    p.add_argument("--multipliers", type=float, nargs="+",
                   help="defaults to the scenario's own sweep list")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lg-check", parents=[common], help="measure the vortex-mode correlation law")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=_cmd_lg_check)

    p = sub.add_parser("entangle", parents=[common], help="direct vs shift-reconstructed C matrix")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--strength", type=float, default=0.05)
    p.set_defaults(func=_cmd_entangle)

    p = sub.add_parser("appendix-a", parents=[common],
                       help="partial-transform correlation identity")
    p.add_argument("--sigma1", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--c12", type=float, required=True)
    p.set_defaults(func=_cmd_appendix_a)

    p = sub.add_parser("validate", parents=[common], help="run the full verification suite")
    p.set_defaults(func=_cmd_validate)
    # "-" then a digit or ".digit" is a number, not an option: --gamma -1e-3.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Before any work: --out's nearest existing ancestor is a writable directory.
        if not args.out:
            raise PointersimError("cannot write output: --out is empty")
        ancestor = os.path.abspath(args.out)
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
            raise PointersimError(f"cannot write output: {args.out}: "
                                  f"{ancestor} is not a writable directory")
        files, lines, code = args.func(args)
        try:
            os.makedirs(args.out, exist_ok=True)
            for name, text in files.items():
                with open(os.path.join(args.out, name), "w", encoding="utf-8",
                          newline="") as fh:
                    fh.write(text)
        except OSError as exc:
            raise PointersimError(f"cannot write output: {exc}") from None
        print("\n".join(lines))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PointersimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
