"""Outside-in tracer for the traced benchmark run.

The tracer wraps public functions and methods at each layer boundary of
rfhlab and records one span per call: name, start, end, parent span and
the benchmark op that was running.  Nothing under ``src/`` is edited; the
wrappers replace each wrapped object in every module namespace (and every
module-level dict, such as ``acceptance.CRITERIA``) that holds it, because
``hybrid`` and ``grading`` import names directly and those calls would
otherwise escape the trace.

Generator evaluations are counted, not spanned: the ``gen`` argument of
``rsindex.path_from_generator`` is replaced by a counting closure, which
``perturbed_path`` inherits because it calls the constructor through the
module global.  Counts are charged to the innermost open span.

Spans stay in memory until ``write_spans`` writes them at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# span record slots
NAME, PARENT, T0, T1, OP, NOTE, GEN, ERR = range(8)


def _size_note(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) >= 2 else 1


def _arr_points(args, kwargs, result):
    return int(getattr(args[0], "size", 0))


def _integrate_note(args, kwargs, result):
    loop0 = args[1]
    _, diags = result
    return (loop0.nt, len(diags.rows) - 1, len(diags.rows))


def _relax_note(args, kwargs, result):
    out, diags = result
    return (out.plus.loops[0].nt, diags.sweeps, len(out.minus.loops) + len(out.plus.loops))


def _matmul_note(args, kwargs, result):
    a, b = args[0], args[1]
    n, k = a.shape
    m = b.shape[1]
    return (n, n * k * m, a.nbytes + b.nbytes + result.nbytes)


def _square_note(args, kwargs, result):
    return args[0].shape[0]


def _chain_note(args, kwargs, result):
    return len(args[0].generators)


def _crit3_note(args, kwargs, result):
    return (result.details.get("pairs", 0), result.details.get("attempts", 0))


def _cli_note(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else ""


def _at_route(args, kwargs, result):
    path = args[0]
    if path.evaluator is not None:
        return "closed"
    if path.generator is not None:
        return "gen"
    return "interp"


# (module, name, note) for module-level functions
FUNCTIONS = [
    ("rsindex", "rs_index", None),
    ("rsindex", "rs_index_detailed", None),
    ("rsindex", "rs_index_segment", None),
    ("rsindex", "theta_path", None),
    ("rsindex", "rotation_path", None),
    ("rsindex", "perturbed_path", None),
    ("rsindex", "block_diag", None),
    ("rsindex", "conjugate_path", None),
    ("rsindex", "save_path_csv", None),
    ("rsindex", "load_path_csv", None),
    ("model", "make_model", None),
    ("gradflow", "integrate", _integrate_note),
    ("gradflow", "gradient_rabinowitz", None),
    ("gradflow", "gradient_extended", None),
    ("gradflow", "action_rabinowitz", None),
    ("gradflow", "action_extended", None),
    ("gradflow", "fourier_project", None),
    ("gradflow", "stable_perturbation", None),
    ("gradflow", "reduced_hessian", None),
    ("gradflow", "loop_to_json", None),
    ("gradflow", "loop_from_json", None),
    ("gradflow", "diagnostics_to_csv", None),
    ("hybrid", "hybrid_relax", _relax_note),
    ("hybrid", "initial_hybrid_state", None),
    ("hybrid", "hessian_agreement", None),
    ("hybrid", "auto_transversality_check", None),
    ("hybrid", "hybrid_diagnostics_to_csv", None),
    ("grading", "model_components", None),
    ("grading", "model_lambda_path", None),
    ("grading", "index_report_csv", None),
    ("z2complex", "phi_invert", _chain_note),
    ("z2complex", "phi_matrix", None),
    ("z2complex", "gf2_matmul", _matmul_note),
    ("z2complex", "gf2_rank", _square_note),
    ("z2complex", "homology", None),
    ("z2complex", "verify_d_squared", None),
    ("z2complex", "verify_chain_map", None),
    ("z2complex", "random_filtered_complex", None),
    ("z2complex", "random_triangular", None),
    ("z2complex", "save_instance", None),
    ("z2complex", "load_instance", None),
    ("cli", "main", _cli_note),
] + [("acceptance", f"criterion_{k}", _crit3_note if k == 3 else None) for k in range(1, 10)]

# (module, class, method, note)
METHODS = [
    ("rsindex", "SymplecticPath", "at", _at_route),
    ("model", "ModelSystem", "hamiltonian", _size_note),
    ("model", "ModelSystem", "grad_hamiltonian", _size_note),
    ("model", "ModelSystem", "x_h", _size_note),
    ("model", "ModelSystem", "lam", _size_note),
]

FFT_NAMES = ("rfft", "irfft", "fft", "ifft")


class Tracer:
    """Spans and counters for one traced run of one workload."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = ""
        self.loose_gen = 0  # generator evaluations outside any span
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, orig, name, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, self.op, None, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                rec[ERR] = type(exc).__name__
                raise
            finally:
                rec[T1] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return functools.wraps(orig)(traced)

    def _count_gen(self, gen):
        spans, stack = self.spans, self.stack

        def counted(t):
            if stack:
                spans[stack[-1]][GEN] += 1
            else:
                self.loose_gen += 1
            return gen(t)

        return counted

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = "rfhlab."
        return [m for k, m in sorted(sys.modules.items()) if k.startswith(prefix) and m is not None]

    def _replace_everywhere(self, orig, repl):
        for mod in self._modules():
            for key, val in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if val is orig:
                    self._undo.append((setattr, mod, key, orig))
                    setattr(mod, key, repl)
                elif type(val) is dict:
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            self._undo.append((dict.__setitem__, val, dkey, orig))
                            val[dkey] = repl

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for modname, fname, note in FUNCTIONS:
            orig = getattr(mods[modname], fname)
            self._replace_everywhere(orig, self._wrap(orig, f"{modname}.{fname}", note))

        rsi = mods["rsindex"]
        build = rsi.path_from_generator
        traced_build = self._wrap(build, "rsindex.path_from_generator", None)

        def path_from_generator(gen, *args, **kwargs):
            return traced_build(self._count_gen(gen), *args, **kwargs)

        self._replace_everywhere(build, functools.wraps(build)(path_from_generator))

        for modname, cname, meth, note in METHODS:
            cls = getattr(mods[modname], cname)
            orig = cls.__dict__[meth]
            self._undo.append((setattr, cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, f"{modname}.{cname}.{meth}", note))

        # gradflow's ``np`` global becomes a copy of numpy whose FFTs are traced
        gf = mods["gradflow"]
        real_np = gf.np
        fft = types.ModuleType(real_np.fft.__name__)
        fft.__dict__.update(real_np.fft.__dict__)
        for fname in FFT_NAMES:
            setattr(fft, fname, self._wrap(getattr(real_np.fft, fname), f"fft.{fname}", _arr_points))
        proxy = types.ModuleType(real_np.__name__)
        proxy.__dict__.update(real_np.__dict__)
        proxy.fft = fft
        self._undo.append((setattr, gf, "np", real_np))
        gf.np = proxy

    def uninstall(self):
        while self._undo:
            fn, target, key, orig = self._undo.pop()
            fn(target, key, orig)

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.loose_gen = 0



def write_spans(path: str, spans):
    """One CSV row per span: id, parent, name, start, end, self, op, gen."""
    own = self_times(spans)
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_s,end_s,self_s,op,generator_evals,error\n")
        for i, rec in enumerate(spans):
            fh.write(
                f"{i},{rec[PARENT]},{rec[NAME]},{rec[T0]:.9f},{rec[T1]:.9f},"
                f"{own[i]:.9f},{rec[OP]},{rec[GEN]},{rec[ERR] or ''}\n"
            )


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct child spans."""
    own = [rec[T1] - rec[T0] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[T1] - rec[T0]
    return own
