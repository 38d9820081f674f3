"""Command-line interface.

Commands: roots, simulate, estimate, limit-sample, experiment, convergence.
JSON configs are validated by ExperimentConfig.from_dict (unknown keys
rejected); the CLI itself reads only their "command" and "write_residuals"
keys.  CSV holds bulk numbers.  Exit codes: 0 success, 2 argument/config
or file error (also a normalization or limit law that the regime lacks),
3 numeric failure (singular design, overflow, a non-finite estimate, no
valid replications, a transition covariance that is not PSD).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .estimate import estimate_path, estimate_sigma
from .io import dump_json, read_path_csv, write_path_csv, write_rows_csv
from .limits import sample_limit
from .model import ModelParams, classify_params
from .montecarlo import ExperimentConfig, convergence_study, run_experiment
from .regimes import rate_functions
from .simulate import rescale_time, simulate

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_experiment(args, command: str) -> tuple[ExperimentConfig, bool]:
    """The config at args.config, with args.seed applied, and write_residuals."""
    try:
        with open(args.config) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    found = raw.pop("command", None)
    if found != command:
        raise ValueError(f"config command {found!r}, expected {command!r}")
    write_residuals = raw.pop("write_residuals", False)
    if not isinstance(write_residuals, bool):
        raise ValueError(f"write_residuals must be a boolean, got {write_residuals!r}")
    cfg = ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg, write_residuals


def _out_dir(args) -> Path:
    """The output directory args.out, created if missing."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _params_from_args(args) -> ModelParams:
    return ModelParams(theta1=args.theta1, theta2=args.theta2, sigma=args.sigma,
                       x0=args.x0, dx0=args.dx0)


def _roots_info(params: ModelParams, tol: float | None) -> dict:
    regime = classify_params(params, tol)
    roots, spec = regime.roots, rate_functions(regime)
    return {
        "p": [roots.p.real, roots.p.imag],
        "q": [roots.q.real, roots.q.imag],
        "regime": regime.tag.value,
        "v1_expr": spec.v1_expr,
        "v2_expr": spec.v2_expr,
        "ld1": spec.label1,
        "ld2": spec.label2,
        "nlrr": spec.nlrr,
        "llr_label": spec.llr_label,
    }


def cmd_roots(args) -> int:
    info = _roots_info(_params_from_args(args), args.tol)
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    params = _params_from_args(args)
    path = simulate(params, args.horizon, args.n_steps, record_noise=args.record_noise,
                    seed=args.seed, rep=args.rep)
    if args.rescale != 1.0:
        path = rescale_time(path, args.rescale)
    out = _out_dir(args)
    csv_file = out / "path.csv"
    meta_file = out / "path.meta.json"
    write_path_csv(path, csv_file)
    dump_json({
        "params": dataclasses.asdict(path.params),
        "horizon": path.horizon,
        "n_steps": path.n_steps,
        "seed": args.seed,
        "replication_index": args.rep,
    }, meta_file)
    print(f"simulate: wrote {csv_file} and {meta_file} ({path.n_steps} steps)")
    return 0


def cmd_estimate(args) -> int:
    meta_file = Path(args.meta) if args.meta else Path(args.path).with_suffix(".meta.json")
    try:
        with open(meta_file) as handle:
            meta = json.load(handle)
        params = ModelParams(**meta["params"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read path metadata {meta_file}: {exc}") from exc
    path = read_path_csv(args.path, params)
    est = estimate_path(path)
    if not (math.isfinite(est.theta1_hat) and math.isfinite(est.theta2_hat)):
        raise FloatingPointError(f"non-finite estimate ({est.theta1_hat!r}, {est.theta2_hat!r})")
    record = {
        "theta1_hat": est.theta1_hat,
        "theta2_hat": est.theta2_hat,
        "det_D": est.det_D,
        "psi": [[est.psi[0, 0], est.psi[0, 1]], [est.psi[1, 0], est.psi[1, 1]]],
        "cond_flag": est.cond_flag,
        "sigma_hat": estimate_sigma(path),
        "sigma_used": est.stats.sigma_used,
        "T": path.horizon,
        "n": path.n_steps,
        "seed": meta.get("seed"),
    }
    out = _out_dir(args)
    dest = out / "estimate.json"
    dump_json(record, dest)
    print(f"estimate: theta1_hat={est.theta1_hat!r} theta2_hat={est.theta2_hat!r} "
          f"-> {dest}")
    return 0


def cmd_limit_sample(args) -> int:
    params = _params_from_args(args)
    regime = classify_params(params, args.tol)
    roots = regime.roots
    draws = sample_limit(regime, params, args.n, grid_n=args.grid_n,
                         seed=args.seed, horizon=args.horizon)
    out = _out_dir(args)
    csv_file = out / "limit.csv"
    meta_file = out / "limit.meta.json"
    write_rows_csv(zip(draws.l1.tolist(), draws.l2.tolist()), csv_file, "l1,l2")
    dump_json({
        "regime": draws.regime.value,
        "p": [roots.p.real, roots.p.imag],
        "q": [roots.q.real, roots.q.imag],
        "grid_n": draws.grid_n,
        "seed": draws.seed,
        "n": int(draws.l1.size),
        "horizon": args.horizon,
    }, meta_file)
    print(f"limit-sample: wrote {csv_file} and {meta_file} ({args.n} draws)")
    return 0


def cmd_experiment(args) -> int:
    cfg, write_residuals = _load_experiment(args, "experiment")
    report = run_experiment(cfg)
    out = _out_dir(args)
    dest = out / "report.json"
    dump_json(report.to_artifact_dict(), dest)
    written = [str(dest)]
    if write_residuals:
        res_file = out / "residuals.csv"
        write_rows_csv(report.residual_rows(), res_file, "rep,T,r1,r2")
        written.append(str(res_file))
    print(f"experiment: regime={report.regime} wrote {' '.join(written)} "
          f"(wall {report.wall_time_s:.2f}s)")
    return 0


def cmd_convergence(args) -> int:
    cfg, _ = _load_experiment(args, "convergence")
    report = convergence_study(cfg)
    out = _out_dir(args)
    dest = out / "convergence.json"
    dump_json(report.to_artifact_dict(), dest)
    print(f"convergence: regime={report.regime} stabilized="
          f"{report.stabilized1}/{report.stabilized2} wrote {dest}")
    return 0


def _add_model_args(parser, with_sim: bool = False):
    parser.add_argument("--theta1", type=float, required=True)
    parser.add_argument("--theta2", type=float, required=True)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--x0", type=float, default=0.0)
    parser.add_argument("--dx0", type=float, default=0.0)
    if with_sim:
        parser.add_argument("--horizon", type=float, required=True)
        parser.add_argument("--n-steps", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="car2",
        description="CAR(2) simulation and drift-MLE laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="characteristic roots, regime, rates")
    _add_model_args(p_roots)
    p_roots.add_argument("--tol", type=float, default=None)
    p_roots.set_defaults(func=cmd_roots)

    p_sim = sub.add_parser("simulate", help="simulate one path to CSV")
    _add_model_args(p_sim, with_sim=True)
    p_sim.add_argument("--record-noise", action="store_true")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--rep", type=int, default=0)
    p_sim.add_argument("--rescale", type=float, default=1.0,
                       help="optionally time-rescale the path by this factor")
    p_sim.add_argument("--out", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate (theta1, theta2) from a path CSV")
    p_est.add_argument("--path", required=True)
    p_est.add_argument("--meta", default=None,
                       help="metadata JSON (default: <path>.meta.json)")
    p_est.add_argument("--out", default=".")
    p_est.set_defaults(func=cmd_estimate)

    p_lim = sub.add_parser("limit-sample", help="draw from a regime's limit law")
    _add_model_args(p_lim)
    p_lim.add_argument("--n", type=int, required=True)
    p_lim.add_argument("--grid-n", type=int, default=10_000)
    p_lim.add_argument("--seed", type=int, default=0)
    p_lim.add_argument("--tol", type=float, default=None)
    p_lim.add_argument("--horizon", type=float, default=None,
                       help="phase horizon (UnstableOscillation only)")
    p_lim.add_argument("--out", default=".")
    p_lim.set_defaults(func=cmd_limit_sample)

    for name, what, func in (("experiment", "replication experiment", cmd_experiment),
                             ("convergence", "convergence study", cmd_convergence)):
        p_cfg = sub.add_parser(name, help=f"{what} from a JSON config")
        p_cfg.add_argument("--config", required=True)
        p_cfg.add_argument("--seed", type=int, default=None, help="override config seed")
        p_cfg.add_argument("--out", default=".")
        p_cfg.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
