"""Batch front end: index runs, gradings, flow and matching experiments,
chain algebra, and the acceptance selftest.

Exit codes: 0 success, 2 configuration errors, 3 numerical failures,
4 invariant violations (the violated invariant is named on stderr).
Outputs are byte-identical for identical configuration and seed; CSV uses
a header row, '.' decimals, and LF line endings, JSON is sorted-key.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import acceptance as acc
from . import gradflow as gf
from . import grading as gr
from . import hybrid as hy
from . import model as mo
from . import rsindex as rsi
from . import z2complex as z2
from ._files import write_json, write_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4


class ConfigError(ValueError):
    pass


# numeric options: flag -> (test, requirement); a subcommand without the
# flag skips its rule
_NUMBER_RULES = {
    "n": (lambda v: 1 <= v <= 3, "in 1..3"),
    "tol": (lambda v: math.isfinite(v) and v > 0, "a finite number > 0"),
    "steps": (lambda v: v >= 1, "at least 1"),
    "amplitude": (lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0"),
    "horizon": (lambda v: math.isfinite(v) and v > 0, "a finite number > 0"),
    "sigma": (math.isfinite, "a finite number"),
    "delta": (math.isfinite, "a finite number"),
}


def _check_numbers(args):
    for name, (ok, requirement) in _NUMBER_RULES.items():
        val = getattr(args, name, None)
        if val is not None and not ok(val):
            raise ConfigError(f"--{name} must be {requirement}, got {val!r}")
    if getattr(args, "cutoff", None) is None:
        return
    # an orbit start of multiplicity k lives in the modes |k|; a grid of
    # 2 cutoff + 2 samples is the smallest that resolves the flowed modes
    built = not getattr(args, "loop", None)
    least = max(1, abs(args.k)) if built and args.start == "orbit" else 1
    if args.cutoff < least:
        raise ConfigError(f"--cutoff must be at least {least}, got {args.cutoff}")
    if built and args.nt < 2 * args.cutoff + 2:
        raise ConfigError(f"--nt must be at least 2 * cutoff + 2 = {2 * args.cutoff + 2}, "
                          f"got {args.nt}")


# flow flags that shape a built start, with their defaults; the flow
# parser leaves them unset so that a --loop start can refuse them
_START_FLAGS = {"nt": 256, "k": 1, "start": "orbit", "flavor": "extended",
                "sigma": 0.0, "amplitude": 1e-5, "seed": 0}
# a rabinowitz orbit start diverges from the extended defaults; these are
# criterion 7's, which stop above the free-period saddle's rounding-noise
# floor near 3e-7
_RABINOWITZ_ORBIT_DEFAULTS = {"amplitude": 3e-6, "tol": 1e-6}


def _resolve_start_flags(args):
    if args.loop:
        given = [f"--{name}" for name in _START_FLAGS if getattr(args, name) is not None]
        if given:
            raise ConfigError(f"{', '.join(given)} shape a built start and cannot be "
                              "combined with --loop")
    defaults = dict(_START_FLAGS, tol=FLAGS["--tol"]["default"])
    if not args.loop and args.flavor == "rabinowitz" and args.start in (None, "orbit"):
        defaults.update(_RABINOWITZ_ORBIT_DEFAULTS)
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _kv_floats(pairs, required):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"value for {key} is not a number: {val!r}") from exc
        if not math.isfinite(out[key]):
            raise ConfigError(f"value for {key} must be finite, got {val!r}")
    missing = [k for k in required if k not in out]
    if missing:
        raise ConfigError(f"missing parameters: {', '.join(missing)}")
    return out


def _load_model(path: str | None, n: int) -> mo.ModelSystem:
    if path:
        return mo.model_from_json(path)
    return mo.make_model(n=n)


def _out(args):
    """Where a subcommand writes its output: --out, else stdout."""
    return args.out or sys.stdout


# -- subcommands ------------------------------------------------------------------


def _cmd_index(args) -> int:
    if args.theta:
        params = _kv_floats(args.params, required=("tau", "hp", "hpp"))
        path = rsi.theta_path(params["tau"], params["hp"], params["hpp"])
    elif args.csv:
        form = rsi.theta_form() if args.form == "theta" else None
        path = rsi.load_path_csv(args.csv, form=form, tol=args.tol)
    else:
        raise ConfigError("index needs --theta with tau= hp= hpp= or --csv PATH")
    if args.delta is not None:
        if path.generator is None:
            raise ConfigError("--delta needs a path with a generator (--theta); a CSV path has none")
        path = rsi.perturbed_path(path, args.delta)
    value = rsi.rs_index(path)
    print(f"mu_rs = {value}")
    if args.out:
        if args.format == "json":
            write_json(args.out, {"mu_rs": str(value), "twice_value": value.twice_value,
                                  "seed": args.seed})
        else:
            write_text(args.out, "mu_rs,twice_value,seed\n"
                       f"{value},{value.twice_value},{args.seed}\n")
    return EXIT_OK


def _cmd_grade(args) -> int:
    if args.constants:
        comps = gr.model_components(_load_model(args.model, args.n), ks=())
        print(f"mu(K) = {gr.mu_K(comps[0])}")
        if args.out:
            write_text(args.out, gr.index_report_csv(comps))
        return EXIT_OK
    if args.components:
        comps = gr.components_from_json(args.components)
    else:
        sy = _load_model(args.model, args.n)
        ks = tuple(int(s) for s in args.ks.split(",")) if args.ks else (-2, -1, 1, 2)
        comps = gr.model_components(sy, ks=ks)
    report = gr.index_report_csv(comps)
    if args.format == "json":
        rows = [line.split(",") for line in report.strip().splitlines()]
        head, data = rows[0], rows[1:]
        write_json(_out(args), {"seed": args.seed,
                                "components": [dict(zip(head, r)) for r in data]})
    else:
        write_text(_out(args), report)
    return EXIT_OK


def _build_start(sy, args, flavor: str):
    """The start loop of ``flavor`` (extended or rabinowitz) that --start,
    --k, --nt, --sigma, --amplitude, --cutoff and --seed describe."""
    nt = args.nt
    rng = np.random.default_rng(args.seed)
    if args.start == "orbit":
        base = gf.discrete_orbit_loop(sy, args.k, nt)
    else:
        base = gf.discrete_constant_loop(sy, nt=nt)
    if flavor == "extended":
        base = gf.lift_loop(base, sigma=args.sigma)
    if args.amplitude > 0:
        rate_min = 2.0 if (flavor == "extended" or args.start == "constants") else 0.5
        base = gf.stable_perturbation(
            sy, base, rng, kmax=args.cutoff, amplitude=args.amplitude, rate_min=rate_min,
        )
    return base


def _cmd_flow(args) -> int:
    sy = _load_model(args.model, args.n)
    if args.loop:
        start = gf.loop_from_json(args.loop)
        dim = start.x.shape[1]
        if dim != 2 * sy.n:
            raise ConfigError(f"--loop holds a loop of dimension {dim}, but the model has "
                              f"--n {sy.n}, dimension {2 * sy.n}")
        if start.nt < 2 * args.cutoff + 2:
            raise ConfigError(f"--loop holds a loop of N_t = {start.nt} samples, but --cutoff "
                              f"{args.cutoff} needs at least 2 * cutoff + 2 = "
                              f"{2 * args.cutoff + 2}")
    else:
        start = _build_start(sy, args, args.flavor)
    controls = gf.IntegrateControls(
        eps_stop=args.tol, max_steps=args.steps, freq_cutoff=args.cutoff,
    )
    loop, diags = gf.integrate(sy, start, controls)
    text = gf.diagnostics_to_csv(diags)
    if args.format == "json":
        write_json(_out(args), {
            "seed": args.seed,
            "converged": diags.converged, "stop_reason": diags.stop_reason,
            "target_component": diags.target_component,
            "action_start": diags.action_start, "action_end": diags.action_end,
            "energy_total": diags.energy_total,
            "energy_identity_residual": diags.energy_identity_residual,
        })
    else:
        write_text(_out(args), text)
    if args.snapshot:
        gf.loop_to_json(loop, args.snapshot)
    print(f"flow: converged={diags.converged} target={diags.target_component} "
          f"steps={len(diags.rows) - 1}")
    if not diags.converged:
        print(f"numerical failure: {diags.stop_reason} after {args.steps} steps "
              f"(gradient still above --tol {args.tol:g})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_hybrid(args) -> int:
    sy = _load_model(args.model, args.n)
    base = _build_start(sy, args, "rabinowitz")
    controls = hy.HybridControls(horizon=args.horizon, freq_cutoff=args.cutoff,
                                 max_steps=args.steps)
    state = hy.initial_hybrid_state(sy, base, sigma=args.sigma)
    out, diags = hy.hybrid_relax(sy, state, controls)
    text = hy.hybrid_diagnostics_to_csv(out)
    if args.format == "json":
        write_json(_out(args), {
            "seed": args.seed,
            "converged": diags.converged, "sweeps": diags.sweeps,
            "horizon": diags.horizon,
            "energy_minus": diags.energy_minus, "energy_plus": diags.energy_plus,
            "energy_identity_residual": diags.energy_identity_residual,
            "mid_action_residual": diags.mid_action_residual,
            "action_chain_ok": diags.action_chain_ok,
        })
    else:
        write_text(_out(args), text)
    print(f"hybrid: converged={diags.converged} sweeps={diags.sweeps} "
          f"energy={diags.energy_minus + diags.energy_plus:.6g}")
    if diags.budget_exhausted:
        print(f"numerical failure: a half-run used up its step budget of --steps {args.steps} "
              f"in sweep {diags.sweeps} (horizon {diags.horizon:g}, plus end gradient "
              f"{diags.end_grad_plus:.3e})", file=sys.stderr)
        return EXIT_NUMERICAL
    if not diags.converged:
        print(f"numerical failure: plus end gradient {diags.end_grad_plus:.3e} still above "
              f"the end tolerance after {diags.sweeps} sweeps (horizon {diags.horizon:g})",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_complex(args) -> int:
    c, m = z2.load_instance(args.instance)
    ok, witness = z2.verify_d_squared(c)
    if not ok:
        print(f"invariant violated: boundary square nonzero at {witness}", file=sys.stderr)
        return EXIT_INVARIANT
    ranks = z2.homology(c)
    lines = ["degree,betti"]
    for k in sorted((k for k in ranks if k is not None)):
        lines.append(f"{k},{ranks[k]}")
    if None in ranks:
        lines.append(f"-,{ranks[None]}")
    text = "\n".join(lines) + "\n"
    if m is not None:
        inv = z2.phi_invert(m)
        _, p = z2.phi_matrix(m)
        _, q = z2.phi_matrix(inv)
        eye = np.eye(p.shape[0], dtype=np.uint8)
        inv_ok = np.array_equal(z2.gf2_matmul(p, q), eye)
        text += f"phi_invertible,{int(inv_ok)}\n"
        if not inv_ok:
            print("invariant violated: chain map failed to invert", file=sys.stderr)
            return EXIT_INVARIANT
    if args.format == "json":
        write_json(_out(args), {"betti": {str(k): v for k, v in ranks.items()}, "seed": args.seed})
    else:
        write_text(_out(args), text)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    which = None
    if args.only:
        which = sorted(int(s) for s in args.only.split(","))
        bad = [k for k in which if k not in acc.CRITERIA]
        if bad:
            raise ConfigError(f"unknown criteria: {bad}")
    results = acc.run_criteria(which, seed=args.seed)
    for r in results:
        print(r.line())
    if args.out:
        acc.write_artifacts(results, args.out, seed=args.seed)
    if not all(r.passed for r in results):
        return EXIT_NUMERICAL
    return EXIT_OK


# -- parser -----------------------------------------------------------------------

# the flags several subcommands share; each subcommand declares the ones it reads
FLAGS = {
    "--model": dict(help="model system JSON file"),
    "--n": dict(type=int, default=1, help="model half-dimension (1..3)"),
    "--nt": dict(type=int, default=256, help="loop grid size"),
    "--tol": dict(type=float, default=1e-7, help="stop/validation tolerance"),
    "--steps": dict(type=int, default=10**6, help="step budget (hybrid: of each half-run)"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--out": dict(help="output path (default stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfhlab",
        description="index calculus, loop-space gradient flows, and Z2 cascade algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, *flags):
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])

    p = sub.add_parser("index", help="half-integer indices of symplectic paths")
    add(p, "--tol", "--seed", "--out", "--format")
    p.add_argument("--steps", type=int, default=10**6,
                   help="not read; accepted so that existing command lines parse")
    p.add_argument("--theta", action="store_true", help="use the built-in unipotent path")
    p.add_argument("--csv", help="load a path from CSV")
    p.add_argument("--form", choices=("standard", "theta"), default="standard")
    p.add_argument("--delta", type=float, help="perturb the generator by -delta*I first")
    p.add_argument("params", nargs="*", help="key=value parameters (tau= hp= hpp=)")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("grade", help="component gradings and dimension reports")
    add(p, "--model", "--n", "--seed", "--out", "--format")
    p.add_argument("--constants", action="store_true", help="grade the constants component")
    p.add_argument("--components", help="component table JSON")
    p.add_argument("--ks", help="orbit multiplicities, comma separated")
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser("flow", help="negative gradient flow runs with diagnostics")
    add(p, "--model", "--n", "--nt", "--steps", "--seed", "--out", "--format")
    p.add_argument("--tol", type=float,
                   help="stop tolerance (default 1e-7; 1e-6 for a rabinowitz orbit start)")
    p.add_argument("--loop", help="initial loop JSON (instead of a built start)")
    p.add_argument("--start", choices=("orbit", "constants"))
    p.add_argument("--flavor", choices=("extended", "rabinowitz"))
    p.add_argument("--k", type=int, help="orbit multiplicity")
    p.add_argument("--sigma", type=float)
    p.add_argument("--amplitude", type=float,
                   help="start perturbation (default 1e-5; 3e-6 for a rabinowitz orbit start)")
    p.add_argument("--cutoff", type=int, default=1, help="Fourier cutoff (stabilizer)")
    p.add_argument("--snapshot", help="write the final loop as JSON")
    p.set_defaults(func=_cmd_flow, **dict.fromkeys(_START_FLAGS))

    p = sub.add_parser("hybrid", help="coupled half-cylinder relaxation")
    add(p, "--model", "--n", "--nt", "--steps", "--seed", "--out", "--format")
    p.add_argument("--start", choices=("orbit", "constants"), default="orbit")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--amplitude", type=float, default=0.0)
    p.add_argument("--cutoff", type=int, default=1)
    p.add_argument("--horizon", type=float, default=20.0)
    p.set_defaults(func=_cmd_hybrid)

    p = sub.add_parser("complex", help="verify and reduce a chain-complex instance")
    add(p, "--seed", "--out", "--format")
    p.add_argument("--instance", required=True, help="instance file (gen/bnd/phi records)")
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    add(p, "--seed", "--out")
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "flow":
            _resolve_start_flags(args)
        _check_numbers(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a missing file, a directory, no permission: the message names it
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (rsi.ResolutionError, gf.StepSizeError, gf.DivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (z2.FiltrationError, z2.GradingError, z2.NotInvertibleError,
            gr.IndexArithmeticError, hy.CouplingError, hy.ActionChainError) as exc:
        print(f"invariant violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
