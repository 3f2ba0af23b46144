"""Command line interface.

Each subcommand runs one analysis of a model file and prints a PASS/FAIL
line per verdict; it exits 0 exactly when every verdict passed, 1 when one
failed and 2 on a usage error or a named failure (a malformed model, say).

A handler ``cmd_NAME(model, args)`` is given the model, which ``main``
loads, and its parsed arguments.  It returns ``(params, results, verdicts)``
or ``(params, results, verdicts, table)``: its parameters other than
``model``, its results, its verdicts by name, and at most one table
``(name, header, rows, ylabel)``.  It writes no file (``cumulant`` prints
its GC symmetry line).  ``_emit`` does the rest for every subcommand: it
builds the ``RunReport`` and, under ``--out PREFIX``, writes the table to
PREFIX.csv, a plot script of its first two columns to PREFIX_plot.py where
the table has a y label, and the report to PREFIX.json.  Outputs are
deterministic: rerunning a command byte-identically reproduces its files.

``validate`` reports the certificate that ``build_model`` took of each
probe (``MrisModel.certificates``: Choi margin, TP residual, resummation
residual); it recomputes none of it.

Each subcommand imports the analysis module it runs (``trajectories``,
``fluctuations`` or ``adiabatic``) in its handler, so a process loads only
what its subcommand needs.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import extended, models, output
from .chains import ChainError, classify_chain, stationary_vector
from .modelfile import ModelFileError, load_model, read_matrix, read_tolerances

# typed errors of the analysis modules that the handlers import
_ANALYSIS_ERRORS = (("fluctuations", "FluctuationError"),
                    ("adiabatic", "AdiabaticError"),
                    ("trajectories", "TrajectoryError"),
                    ("trajectories", "NumericalCorruption"))


def _parse_tol(pairs) -> dict:
    """--tol NAME=VALUE overrides, read by the rule of a model file's
    "tolerances" object: known names, finite values > 0.  A bad pair is a
    usage error (exit 2)."""
    overrides = {}
    for item in pairs or []:
        name, _, value = item.partition("=")
        try:
            overrides[name] = float(value)
        except ValueError:
            overrides[name] = value
    try:
        return read_tolerances(overrides, "--tol")
    except ModelFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _load(args):
    """The model, with DEFAULT tolerances, then the file's, then --tol."""
    return load_model(args.model, overrides=_parse_tol(args.tol))


def _emit(args, params: dict, results: dict, verdicts: dict, table=None) -> int:
    """Print and, under --out, write what a handler returned (see the module
    docstring); the exit code is 0 exactly when every verdict passed."""
    report = output.RunReport(command=args.command,
                              params={"model": args.model, **params},
                              results=results, verdicts=verdicts)
    if table and args.out:
        name, header, rows, ylabel = table
        output.write_csv(args.out + ".csv", header, rows)
        line = f"{name}: {args.out}.csv"
        if ylabel:
            output.write_plot_script(args.out + "_plot.py", args.out + ".csv",
                                     x=header[0], ys=header[1:2], ylabel=ylabel)
            line += f"  plot: {args.out}_plot.py"
        print(line)
    for name, ok in sorted(verdicts.items()):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if args.out:
        report.write(args.out + ".json")
        print(f"report: {args.out}.json")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(model, args):
    tol = model.tol
    results = {"labels": list(model.labels), "dim_sys": model.dim_sys}
    worst_choi, worst_tp, worst_comp, worst_kms = 0.0, 0.0, 0.0, 0.0
    per_probe = {}
    for l in model.labels:
        cert = model.certificates[l]
        kms = model.unravelings[l].kms_residual
        per_probe[l] = {
            "min_choi_eig": cert.min_choi_eig,
            "tp_residual": cert.tp_residual,
            "unraveling_completeness": cert.completeness,
            "entropy_observable_residual": kms,
            "n_outcomes": model.unravelings[l].n_outcomes,
        }
        worst_choi = min(worst_choi, cert.min_choi_eig)
        worst_tp = max(worst_tp, cert.tp_residual)
        worst_comp = max(worst_comp, cert.completeness)
        if kms is not None:
            worst_kms = max(worst_kms, kms)
    results["probes"] = per_probe
    results["chain"] = classify_chain(model.chain, tol).__dict__
    tri = models.check_tri(model)
    results["time_reversal"] = {"holds": tri["holds"],
                                "max_residual": tri["max_residual"]}
    return {}, results, {
        "channels_completely_positive": worst_choi >= -tol.psd,
        "channels_trace_preserving": worst_tp <= tol.tp,
        "unravelings_resum_to_channels": worst_comp <= 1e-12,
        "entropy_observables_thermal": worst_kms <= 1e-10,
    }


def cmd_classify(model, args):
    chain_cls = classify_chain(model.chain, model.tol)
    gen_cls = extended.classify_generator(model.generator, model.tol)
    results = {
        "chain": {k: getattr(chain_cls, k) for k in (
            "irreducible", "period", "primitive", "stationary", "detailed_balance")},
        "generator": {k: getattr(gen_cls, k) for k in (
            "kind", "period", "gap", "eigenvalue_one_multiplicity", "peripheral")},
    }
    # an irreducible extended generator needs an irreducible driving chain
    consistent = gen_cls.kind == "reducible" or chain_cls.irreducible
    return {}, results, {"chain_consistent_with_generator": consistent}


def cmd_ess(model, args):
    ss = model.steady_state
    decomp = ss.decomposition
    pi_stat, _ = stationary_vector(model.chain.P)
    eq = models.check_equilibrium(model)
    results = {
        "fixed_point_residual": ss.residual,
        "bordered_condition": ss.condition,
        "pi_plus": decomp.pi_plus,
        "rho_plus": {l: decomp.rho_plus[l] for l in model.labels},
        "reconstruction_residual": decomp.reconstruction_residual(
            model.generator, ss.state),
        "steady_fluxes": eq["steady_fluxes"],
        "entropy_production_rate": eq["entropy_production_rate"],
        "equilibrium": eq["is_equilibrium"],
        "equilibrium_residual": eq["max_residual"],
    }
    return {}, results, {
        "fixed_point": ss.residual <= 1e-8,
        "decomposition_reconstructs": results["reconstruction_residual"] <= 1e-8,
        "marginal_is_chain_stationary": float(np.abs(decomp.pi_plus - pi_stat).max()) <= 1e-8,
    }


def cmd_simulate(model, args):
    from . import trajectories

    cfg = trajectories.TrajectoryConfig(
        n_steps=args.steps, n_traj=args.traj, seed=args.seed,
        n_threads=args.threads, chunk=args.chunk,
        initial="stationary" if args.stationary else "model")
    sample = trajectories.sample_entropy_process(model, cfg)
    r_plus, _ = model.ess()
    results = {"n_steps": cfg.n_steps, "n_traj": cfg.n_traj, "seed": cfg.seed,
               "floored_outcomes": sample.floored, "per_probe": {}}
    lln_ok = True
    for k, l in enumerate(model.labels):
        target = -model.probes[l].beta * extended.expectation(
            r_plus, models.flux_extended(model, l))
        est = float(sample.svec[:, k].mean()) / cfg.n_steps
        se = float(sample.svec[:, k].std(ddof=1)) / cfg.n_steps / np.sqrt(cfg.n_traj)
        diff = est - target     # with zero spread, within exactly when diff is 0
        z = diff / se if se > 0 else math.copysign(math.inf, diff) if diff else 0.0
        results["per_probe"][l] = {"mean_rate": est, "stderr": se,
                                   "steady_target": target, "z": z}
        lln_ok &= abs(z) <= 5.0
    params = {"steps": args.steps, "traj": args.traj, "seed": args.seed,
              "threads": args.threads, "stationary": bool(args.stationary)}
    header = ["traj"] + [f"s_{l}" for l in model.labels]
    rows = [[t] + list(sample.svec[t]) for t in range(cfg.n_traj)]
    return (params, results, {"entropy_rates_within_5_stderr": bool(lln_ok)},
            ("totals", header, rows, None))


def cmd_cumulant(model, args):
    from . import fluctuations

    gc = fluctuations.gc_symmetry_report(model)
    ray = np.linspace(-1.0, 2.0, args.grid_points)
    e0, *ray_vals = fluctuations.e_of_alpha(model, np.append(0.0, ray)[:, None]
                                            * np.ones(model.chain.n))
    results = {
        "e_at_zero": e0,
        "gc_symmetry": {
            "max_residual": gc.max_residual,
            "holds": gc.holds,
            "entries": [{"alpha": a, "e": va, "e_mirror": vb, "residual": r}
                        for a, va, vb, r in gc.entries],
        },
        "diagonal_ray": {"a": ray, "e": ray_vals},
    }
    print(f"gc symmetry: {'holds' if gc.holds else 'violated'} "
          f"(max residual {'<=' if gc.holds else '>'} threshold {gc.threshold:.0e})")
    return ({"grid_points": args.grid_points}, results,
            {"vanishes_at_origin": abs(e0) <= 1e-12},
            ("ray", ["a", "e"], [[a, v] for a, v in zip(ray, ray_vals)], "cumulant rate"))


def cmd_ratefn(model, args):
    from . import fluctuations

    ones = np.ones(model.chain.n)
    a_grid = np.linspace(-args.alpha_range, args.alpha_range, args.points)
    # s = -ebar'(-a) with ebar(b) = e(b 1), from the exact gradients
    grads = fluctuations._perron(model, -a_grid[:, None] * ones).derivatives()[1]
    s_grid = np.sort([-ones @ g for g in grads])
    res = fluctuations.entropy_rate_function(model, s_grid)
    results = {
        "s": res.s, "rate": res.values, "maximizer": res.maximizers,
        "unbounded": [bool(b) for b in res.unbounded],
        "converged": [bool(b) for b in res.converged],
        "grad_norm": res.grad_norm,
    }
    rows = [[s, v, a] for s, v, a in zip(res.s, res.values, res.maximizers)]
    return ({"points": args.points, "alpha_range": args.alpha_range}, results,
            {"transform_finite_on_grid": all(np.isfinite(res.values)),
             "maximizers_interior": not res.unbounded.any()},
            ("grid", ["s", "rate", "alpha_star"], rows, "rate function"))


def cmd_linresp(model, args):
    from . import fluctuations

    kin = fluctuations.kinetic_coefficients(model)
    cov = fluctuations.clt_covariance(model)
    gk = fluctuations.green_kubo(model)
    fdr = cov / (2 * kin.beta_bar ** 2)
    scale = float(np.abs(kin.matrix).max())
    gk_err = float(np.abs(gk.matrix - kin.matrix).max())
    # with no transport K is exactly 0: Green-Kubo reproduces it only as 0
    rel_gk = gk_err / scale if scale else math.inf if gk_err else 0.0
    results = {
        "beta_bar": kin.beta_bar,
        "kinetic_matrix": kin.matrix,
        "route_b": kin.route_b,
        "route_discrepancy": kin.discrepancy,
        "covariance": cov,
        "fdr_matrix": fdr,
        "green_kubo": gk.matrix,
        "green_kubo_per_epsilon": {f"{e:g}": m for e, m in gk.per_epsilon.items()},
        "green_kubo_rel_err": rel_gk,
        "row_sums": kin.row_sums,
        "col_sums": kin.col_sums,
    }
    rows = [[str(la), str(lb), kin.matrix[a, b], kin.route_b[a, b], fdr[a, b], gk.matrix[a, b]]
            for a, la in enumerate(model.labels) for b, lb in enumerate(model.labels)]
    return {}, results, {
        "onsager_symmetric": float(np.abs(kin.matrix - kin.matrix.T).max()) <= 1e-6,
        "fluctuation_dissipation": float(np.abs(kin.matrix - fdr).max()) <= 1e-6,
        "routes_agree": kin.discrepancy <= 1e-5,
        "green_kubo_within_1pct": rel_gk <= 1e-2,
        "row_sums_vanish": float(np.abs(kin.row_sums).max()) <= 1e-6,
        "col_sums_vanish": float(np.abs(kin.col_sums).max()) <= 1e-6,
    }, ("matrices", ["omega", "nu", "kinetic", "route_b", "fdr", "green_kubo"], rows, None)


def cmd_adiabatic(model, args):
    from . import adiabatic

    p_end = _matrix_arg(args.p_end, model.chain.n)
    sched = adiabatic.AdiabaticSchedule(p_start=model.chain.P, p_end=p_end,
                                        kind=args.kind)
    steps = args.steps
    runs = {n: adiabatic.adiabatic_evolve(model, sched, n) for n in steps}
    plateaus = [runs[n].plateau_error for n in steps]
    # a zero plateau makes its ratio inf (x/0) or nan (0/0)
    ratios = [a / b if b else math.inf if a else math.nan
              for a, b in zip(plateaus, plateaus[1:])]
    results = {
        "kind": args.kind,
        "steps": steps,
        "plateau_errors": plateaus,
        "ratios": ratios,
        "instantaneous_gap_min": runs[steps[0]].instantaneous_gap_min,
    }
    decreasing = all(a > b for a, b in zip(plateaus, plateaus[1:]))
    return ({"kind": args.kind, "steps": steps}, results,
            {"primitive_along_path": results["instantaneous_gap_min"] > model.tol.gap,
             "tracking_error_decreases": decreasing},
            ("plateaus", ["n_steps", "plateau_error"],
             [[n, p] for n, p in zip(steps, plateaus)], "plateau tracking error"))


def _matrix_arg(text: str, n: int) -> np.ndarray:
    """--p-end: an n x n real matrix, inline JSON or @path to a JSON file."""
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    except (OSError, ValueError) as exc:
        raise ModelFileError(f"--p-end: cannot read a JSON matrix ({exc})") from exc
    return read_matrix(doc, "--p-end", n, real=True)


def _checked(convert, ok, expected: str):
    """Argument type: convert(text) if that succeeds and ok() accepts the
    value; otherwise a usage error (exit 2) naming the option."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_count = _checked(int, lambda n: n >= 1, "an integer >= 1")
_positive = _checked(float, lambda x: math.isfinite(x) and x > 0, "a finite number > 0")


def _step_counts(text: str) -> list:
    """adiabatic --steps: the verdict compares the tracking error between
    counts, and each is a sweep of at least adiabatic._MIN_STEPS steps.
    Only an adiabatic command parses --steps, so only it imports adiabatic."""
    from .adiabatic import _MIN_STEPS
    return _checked(lambda t: sorted({int(s) for s in t.split(",")}),
                    lambda steps: len(steps) >= 2 and steps[0] >= _MIN_STEPS,
                    "at least two distinct comma-separated step counts "
                    f">= {_MIN_STEPS}")(text)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mris",
        description="Numerical laboratory for Markovian repeated "
                    "interaction systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", help="output prefix (writes PREFIX.json etc.)")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override, repeatable")
        p.set_defaults(func=func)
        return p

    add("validate", "certify channels and unravelings", cmd_validate)
    add("classify", "chain and generator classification", cmd_classify)
    add("ess", "steady state, fluxes, entropy production", cmd_ess)

    p = add("simulate", "sample the entropy-exchange process", cmd_simulate)
    p.add_argument("--steps", type=_count, default=1000)
    p.add_argument("--traj", type=_checked(int, lambda n: n >= 2, "an integer >= 2"),
                   default=200, help="at least 2: the verdict needs a standard error")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_count, default=None,
                   help="cap on the worker processes (default: every usable core)")
    p.add_argument("--chunk", type=_count, default=512)
    p.add_argument("--stationary", action="store_true",
                   help="start trajectories in the steady ensemble")

    p = add("cumulant", "cumulant function and its symmetry", cmd_cumulant)
    p.add_argument("--grid-points", type=_count, default=61)

    p = add("ratefn", "entropy-exchange rate function", cmd_ratefn)
    p.add_argument("--points", type=_count, default=21)
    p.add_argument("--alpha-range", type=_positive, default=0.45,
                   help="half-width of the tilt grid generating the s values")

    add("linresp", "kinetic coefficients at equilibrium", cmd_linresp)

    p = add("adiabatic", "slow chain driving and tracking error", cmd_adiabatic)
    p.add_argument("--p-end", required=True,
                   help="target transition matrix: inline JSON or @file")
    p.add_argument("--kind", choices=("linear", "smoothstep"), default="linear")
    p.add_argument("--steps", type=_step_counts, default="64,128,256",
                   help="comma-separated step counts, at least two distinct, "
                        "each >= 4")

    return parser


def _typed_errors() -> tuple:
    """The failures that exit 2: a named cause, not a crash.  Only an
    analysis module already imported can have raised its errors, so none is
    imported here."""
    loaded = tuple(getattr(sys.modules[f"mris.{module}"], name)
                   for module, name in _ANALYSIS_ERRORS
                   if f"mris.{module}" in sys.modules)
    return (ModelFileError, OSError, models.ModelError, extended.GeneratorError,
            ChainError) + loaded


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _emit(args, *args.func(_load(args), args))
    except _typed_errors() as exc:      # evaluated once the handler has failed
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
