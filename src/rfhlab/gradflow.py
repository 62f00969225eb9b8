"""Negative L2 gradient flows of the two action functionals, on loop grids.

Discretization: uniform periodic t-grid with N_t samples and centered
differences for d/dt.  With this pairing the discrete L2 gradient of the
discretized action coincides sample-by-sample with the discretized
analytic gradient:

    free period (x, tau):   ( J (x' - tau X_H(x)),  -integral H(x) dt )
    fixed period (x,eta,zeta): ( J (x' - eta X_H(x)),  zeta' - H(x),  -eta' )

where J is the model's compatible structure (-J_n).  Time stepping is
explicit Euler with Armijo backtracking on the action; one kernel takes
every step, for ``integrate`` and for the half-runs of ``hybrid``.

Both states, and their gradients, are tuples of parts: (x, tau) and
(x, eta, zeta).  The two kinds differ only in which parts are loops.
Loop-shaped parts are arrays over the N_t samples; the L2 metric weighs
them by 1/N_t and the flow projects them to its Fourier cutoff.  Scalar
parts (tau) weigh 1 and are never projected.  The step, the metric, the
projection and the reduced-basis coordinates follow this rule alone; only
the actions, the gradients and the diagnostics read a kind's meaning.

Both action functionals are strongly indefinite: the linearized flow has
growth rates of both signs up to the grid frequency, so the unfiltered
initial value problem amplifies rounding noise at rate O(N_t) and no
time-stepping scheme can converge a long run in double precision.  The
integrator therefore flows under a Fourier cutoff ``freq_cutoff``: the
flow is the exact negative gradient flow of the action restricted to
the span of modes |k| <= freq_cutoff (a Galerkin subspace that contains
the model's critical manifolds), while the stopping criterion and the
structural diagnostics are still evaluated with the full, unprojected
gradient.  ``second_variation`` differentiates the discrete gradients
exactly, along a batch of tangents, with the closed-form Hessian of the
radial Hamiltonian; ``reduced_hessian`` restricts it to the same subspace
and ``stable_perturbation`` draws from its contracting directions, so that
experiments can start from perturbations that the flow contracts.

Diagnostics recorded per accepted step: action (non-increasing), full and
flow gradient norms, cumulative discrete energy (trapezoidal quadrature of
<grad, -velocity>, which equals the action drop up to O(ds^2) per unit
flow time), residual of the averaged multiplier ODE etahat' = integral
H(u) dt, drift of the conserved average zetahat, max |H| with the
small-gradient threshold implication, containment in the plateau ball,
and the zeta-spread bound.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields
from functools import reduce

import numpy as np

from ._files import number, number_array, read_json, read_record, string, write_chunks, write_text
from .model import ModelSystem, radius

__all__ = [
    "RabinowitzLoop",
    "ExtendedLoop",
    "FlowStep",
    "FlowDiagnostics",
    "IntegrateControls",
    "StepSizeError",
    "DivergenceError",
    "action_rabinowitz",
    "action_extended",
    "gradient_rabinowitz",
    "gradient_extended",
    "second_variation",
    "grad_norm",
    "integrate",
    "circ_diff",
    "fourier_project",
    "discrete_orbit_loop",
    "discrete_constant_loop",
    "lift_loop",
    "reduced_hessian",
    "stable_perturbation",
    "loop_to_json",
    "loop_from_json",
    "diagnostics_to_csv",
    "DIAG_COLUMNS",
]


class StepSizeError(RuntimeError):
    """Armijo backtracking hit the minimum step without an action decrease."""


class DivergenceError(RuntimeError):
    """The flow produced non-finite values."""


class _Loop:
    """A loop state as the tuple of its parts, in field order: loop-shaped
    parts are arrays over the N_t samples, scalar parts are floats."""

    @property
    def parts(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    @property
    def nt(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class RabinowitzLoop(_Loop):
    """Free-period state: loop samples x (N_t, 2n) and the multiplier tau."""

    x: np.ndarray
    tau: float


@dataclass(frozen=True)
class ExtendedLoop(_Loop):
    """Fixed-period state: loop samples x (N_t, 2n), eta (N_t,), zeta (N_t,)."""

    x: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray

    @property
    def zeta_avg(self) -> float:
        # recomputed on demand, never cached
        return float(np.mean(self.zeta))

    @property
    def eta_avg(self) -> float:
        return float(np.mean(self.eta))


def circ_diff(arr: np.ndarray, nt: int | None = None) -> np.ndarray:
    """Centered difference d/dt on the periodic unit-time grid: row k is
    (a[k+1] - a[k-1]) * (n/2), indices mod N_t, written from slices."""
    n = arr.shape[0] if nt is None else nt
    out = np.empty_like(arr)
    np.subtract(arr[2:], arr[:-2], out=out[1:-1])
    np.subtract(arr[1:2], arr[-1:], out=out[:1])
    np.subtract(arr[:1], arr[-2:-1], out=out[-1:])
    out *= n / 2.0
    return out


def fourier_project(arr: np.ndarray, kmax: int) -> np.ndarray:
    """Zero out Fourier modes with |k| > kmax along the time axis."""
    spec = np.fft.rfft(arr, axis=0)
    spec[kmax + 1:] = 0.0
    return np.fft.irfft(spec, n=arr.shape[0], axis=0)


# -- actions -------------------------------------------------------------------


def _loop_lambda_integral(sys: ModelSystem, x: np.ndarray) -> float:
    """Quadrature of integral x^* lambda with centered differences."""
    return float(np.mean(sys.lam(x, circ_diff(x))))


def _loop_h_integral(sys: ModelSystem, x: np.ndarray) -> float:
    return float(np.mean(sys.hamiltonian(x)))


def action_rabinowitz(sys: ModelSystem, loop: RabinowitzLoop) -> float:
    """Free-period action: integral x^* lambda - tau * integral H(x) dt."""
    return _loop_lambda_integral(sys, loop.x) - loop.tau * _loop_h_integral(sys, loop.x)


def action_extended(sys: ModelSystem, loop: ExtendedLoop) -> float:
    """Fixed-period action: integral x^* lambda - zeta eta' - eta H(x) dt.

    The middle term pairs zeta against the centered difference of eta; on
    the periodic grid it is exactly invariant under zeta -> zeta + const,
    and it vanishes identically when eta is constant, which makes the
    value agree exactly with the free-period action on lifted states.
    """
    mid = float(np.mean(loop.zeta * circ_diff(loop.eta)))
    coupling = float(np.mean(loop.eta * sys.hamiltonian(loop.x)))
    return _loop_lambda_integral(sys, loop.x) - mid - coupling


# -- gradients -----------------------------------------------------------------


def gradient_rabinowitz(sys: ModelSystem, loop: RabinowitzLoop):
    """L2 gradient (J(x' - tau X_H(x)), -integral H dt); exact for the
    discretized action, so it vanishes exactly at discrete critical loops."""
    gx = (circ_diff(loop.x) - loop.tau * sys.x_h(loop.x)) @ sys.acs().T
    gtau = -_loop_h_integral(sys, loop.x)
    return gx, gtau


def gradient_extended(sys: ModelSystem, loop: ExtendedLoop):
    """L2 gradient (J(x' - eta X_H(x)), zeta' - H(x), -eta')."""
    eta = loop.eta[:, None]
    gx = (circ_diff(loop.x) - eta * sys.x_h(loop.x)) @ sys.acs().T
    geta = circ_diff(loop.zeta) - sys.hamiltonian(loop.x)
    gzeta = -circ_diff(loop.eta)
    return gx, geta, gzeta


def _time_diff(arr: np.ndarray) -> np.ndarray:
    """circ_diff along the last axis."""
    return np.moveaxis(circ_diff(np.moveaxis(arr, -1, 0)), 0, -1)


def second_variation(sys: ModelSystem, loop, tangents):
    """Derivative of the loop's discrete L2 gradient along a batch of tangents.

    ``tangents`` is a part tuple in the loop's layout with a leading batch
    axis: (xi, dtau) of shapes (m, N_t, 2n), (m,), or (xi, deta, dzeta) of
    shapes (m, N_t, 2n), (m, N_t), (m, N_t).  The result has the same
    layout.  With Hess H(x) = (h'/r) I + (h'' - h'/r) xhat xhat^T in closed
    form and A the compatible structure, it is

        free period:  ((xi' - tau J Hess H xi - dtau X_H) A^T, -mean <grad H, xi>)
        fixed period: ((xi' - eta J Hess H xi - deta X_H) A^T,
                       dzeta' - <grad H, xi>,  -deta')

    and <t, L t> in the L2 metric is the second variation of the action.
    """
    # the 2n axis is short, so the loop parts are worked with time as the
    # last axis; tangents from _part_blocks are time-contiguous in memory
    x = np.ascontiguousarray(loop.x.T)
    xi = np.swapaxes(tangents[0], 1, 2)
    free = isinstance(loop, RabinowitzLoop)
    mult = loop.tau if free else loop.eta
    dmult = tangents[1][:, None] if free else tangents[1]
    r = radius(loop.x)
    rate = sys.angular_rate(r)  # h'/r, with grad_hamiltonian's guard at the origin
    bend = np.where(r > 1e-12, (sys.profile.hpp(r) - rate) / np.maximum(r, 1e-12) ** 2, 0.0)
    x_dot_xi = np.einsum("kt,mkt->mt", x, xi)
    dh = rate * x_dot_xi  # <grad H, xi>
    # A J = I for A = -J, so J Hess H xi and X_H = J grad H leave A^T as
    # Hess H xi = rate xi + bend <x, xi> x and grad H = rate x
    gx = sys.acs() @ _time_diff(xi)
    gx -= mult * rate * xi
    gx -= (mult * bend * x_dot_xi + dmult * rate)[:, None] * x
    gx = np.swapaxes(gx, 1, 2)
    if free:
        return gx, -np.mean(dh, axis=1)
    return gx, _time_diff(tangents[2]) - dh, -_time_diff(dmult)


# -- the parts rule ----------------------------------------------------------------


def _g_inner(g1, g2, nt: int) -> float:
    """L2 inner product of two part tuples: the loop parts' sums, added left
    to right, over N_t, plus the products of the scalar parts."""
    pairs = list(zip(g1, g2))
    loops = reduce(operator.add, [float(np.sum(a * b)) for a, b in pairs if np.ndim(a)])
    return reduce(operator.add, [a * b for a, b in pairs if not np.ndim(a)], loops / nt)


def grad_norm(g, nt: int) -> float:
    """Discrete L2 norm of a gradient tuple (loop parts weighted by dt)."""
    return math.sqrt(_g_inner(g, g, nt))


def _project(parts, kmax: int) -> tuple:
    """The loop parts cut to the modes |k| <= kmax; scalar parts as they are."""
    return tuple(fourier_project(a, kmax) if np.ndim(a) else a for a in parts)


def _apply_step(loop, g, ds: float):
    return type(loop)(*(p - ds * d for p, d in zip(loop.parts, g)))


# the functional of each loop kind, looked up in module-level dicts so that
# a wrapper installed in this module's namespace also wraps these calls
_ACTION = {RabinowitzLoop: action_rabinowitz, ExtendedLoop: action_extended}
_GRADIENT = {RabinowitzLoop: gradient_rabinowitz, ExtendedLoop: gradient_extended}


def _action(sys, loop) -> float:
    return _ACTION[type(loop)](sys, loop)


def _gradient(sys, loop):
    return _GRADIENT[type(loop)](sys, loop)


# -- descent kernel ----------------------------------------------------------------

# step policy of every descent run: first step, smallest step tried before
# giving up, default largest step, Armijo constant, backtrack and growth
DS0 = 1e-3
DS_MIN = 1e-12
DS_MAX = 5e-2
ARMIJO_C = 1e-4
BACKTRACK = 0.5
GROW = 1.3


@dataclass
class _Descent:
    """A descent run so far: the current loop with its action, full
    gradient and that gradient's norm, the flow time, the cumulative
    energy and the step count."""

    loop: object
    action: float
    grad: tuple
    norm: float
    s: float = 0.0
    energy: float = 0.0
    steps: int = 0


def _descend(sys, loop, kmax, stop, on_step, max_steps, ds_max=DS_MAX, horizon=None):
    """Explicit Euler descent along the negative gradient projected to the
    modes |k| <= kmax, with Armijo backtracking on the action.

    ``on_step(state, prev, ds)`` sees the start (prev None, ds 0) and each
    accepted step.  Each state's full gradient norm is computed once, as
    ``state.norm``; before a step ``stop(state.norm)`` ends the run with
    (state, True).  The run also ends, with (state, False), after
    ``max_steps`` steps or at flow time ``horizon``, which clips the last
    step.  The energy is the trapezoidal
    quadrature of <grad, -velocity> along each accepted chord.

    Raises DivergenceError on a non-finite action or gradient or an action
    beyond 1e100, StepSizeError if no step down to DS_MIN decreases it.
    """
    nt = loop.nt
    grad = _gradient(sys, loop)
    st = _Descent(loop, _action(sys, loop), grad, grad_norm(grad, nt))
    g_flow = _project(st.grad, kmax)
    on_step(st, None, 0.0)
    ds = DS0
    while st.steps < max_steps and (horizon is None or st.s < horizon):
        if not (np.isfinite(st.norm) and np.isfinite(st.action)) or abs(st.action) > 1e100:
            raise DivergenceError(
                f"flow diverged (action {st.action:.3e}, gradient {st.norm:.3e})"
            )
        if stop(st.norm):
            return st, True
        flow_sq = _g_inner(g_flow, g_flow, nt)
        while True:
            if ds < DS_MIN:
                raise StepSizeError(
                    f"no action decrease at minimum step {DS_MIN:g} "
                    f"(action {st.action:.12g}, grad {st.norm:.3e})"
                )
            step = ds if horizon is None else min(ds, horizon - st.s)
            cand = _apply_step(st.loop, g_flow, step)
            a_new = _action(sys, cand)
            if not np.isfinite(a_new):
                raise DivergenceError("action became non-finite; the flow diverged")
            if a_new <= st.action - ARMIJO_C * step * flow_sq:
                break
            ds *= BACKTRACK

        g_full_new = _gradient(sys, cand)
        g_flow_new = _project(g_full_new, kmax)
        vel = tuple((c - p) / step for c, p in zip(cand.parts, st.loop.parts))
        gmid = tuple(0.5 * (a + b) for a, b in zip(g_flow, g_flow_new))
        st.energy += -step * _g_inner(gmid, vel, nt)
        prev = st.loop
        st.loop, st.action, st.grad = cand, a_new, g_full_new
        st.norm = grad_norm(g_full_new, nt)
        g_flow = g_flow_new
        st.s += step
        st.steps += 1
        on_step(st, prev, step)
        ds = min(ds * GROW, ds_max)
    return st, False


# -- integration -----------------------------------------------------------------


DIAG_COLUMNS = (
    "step", "s", "action", "grad_norm", "energy_cum",
    "eta_avg_residual", "zeta_drift", "max_abs_H", "containment",
)


@dataclass(frozen=True)
class FlowStep:
    step: int
    s: float
    action: float
    grad_norm: float
    energy_cum: float
    eta_avg_residual: float
    zeta_drift: float
    max_abs_h: float
    containment: bool
    lem1_ok: bool
    zeta_spread: float


@dataclass
class FlowDiagnostics:
    rows: list[FlowStep] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    target_component: str = ""
    energy_total: float = 0.0
    action_start: float = 0.0
    action_end: float = 0.0
    h_sup: float = 0.0

    @property
    def energy_identity_residual(self) -> float:
        return abs(self.energy_total - (self.action_start - self.action_end))

    @property
    def max_eta_residual(self) -> float:
        return max((r.eta_avg_residual for r in self.rows), default=0.0)

    @property
    def max_zeta_drift(self) -> float:
        return max((abs(r.zeta_drift) for r in self.rows), default=0.0)

    @property
    def actions_non_increasing(self) -> bool:
        acts = [r.action for r in self.rows]
        return all(b <= a + 1e-12 for a, b in zip(acts, acts[1:]))

    @property
    def lem1_always(self) -> bool:
        return all(r.lem1_ok for r in self.rows)

    @property
    def contained_always(self) -> bool:
        return all(r.containment for r in self.rows)

    def zeta_spread_bound_ok(self) -> bool:
        bound = 2.0 * math.sqrt(max(self.energy_total, 0.0)) + self.h_sup
        return all(r.zeta_spread <= bound + 1e-9 for r in self.rows)


@dataclass(frozen=True)
class IntegrateControls:
    ds_max: float = DS_MAX
    eps_stop: float = 1e-7
    max_steps: int = 10**6
    freq_cutoff: int = 1


def _lem1_check(sys: ModelSystem, full_norm: float, max_abs_h: float) -> bool:
    """Threshold implication: small gradient forces |H| below h_thr."""
    threshold = 0.5 * sys.h_thr * min(1.0 / sys.x_h_sup, 1.0)
    if full_norm >= threshold:
        return True
    return max_abs_h < sys.h_thr


def _observe(sys, loop, h):
    """max |H|, containment and zeta spread of a loop whose H samples are h."""
    habs = np.abs(h)
    contained = bool(np.max(radius(loop.x)) <= sys.profile.r_plateau + 1e-9)
    if isinstance(loop, ExtendedLoop):
        spread = float(
            math.sqrt(max(np.mean((loop.zeta - loop.zeta_avg) ** 2), 0.0))
        )
    else:
        spread = 0.0
    return float(np.max(habs)), contained, spread


def identify_target(sys: ModelSystem, loop) -> str:
    """Nearest critical component by (action value, |multiplier| bucket),
    among the constants and the orbits of multiplicity |k| <= 3."""
    act = _action(sys, loop)
    tau = loop.tau if isinstance(loop, RabinowitzLoop) else loop.eta_avg
    base = sys.base_period()
    best, best_key = "constants", (abs(act - 0.0), abs(abs(tau) - 0.0))
    for k in range(-3, 4):
        if k == 0:
            continue
        key = (abs(act - np.pi * k), abs(abs(tau) - abs(k) * base))
        if key < best_key:
            best, best_key = f"orbit{k:+d}", key
    return best


def integrate(sys: ModelSystem, loop0, controls: IntegrateControls = IntegrateControls()):
    """Run the negative gradient flow until the full gradient norm drops
    below controls.eps_stop or the step budget is exhausted.

    Returns (final loop, FlowDiagnostics).  Raises StepSizeError if the
    action cannot be decreased at the minimum step, DivergenceError on
    non-finite values.
    """
    kmax = controls.freq_cutoff
    loop = type(loop0)(*_project(loop0.parts, kmax))
    nt = loop.nt
    extended = isinstance(loop, ExtendedLoop)
    zeta0_mean = math.fsum(loop.zeta.tolist()) / nt if extended else 0.0
    diags = FlowDiagnostics(h_sup=float(np.abs(sys.profile.plateau_value())))
    # integral H of the last recorded loop, which is the next step's prev:
    # H is evaluated once per accepted loop
    h_mean = 0.0

    def record(st, prev, ds):
        nonlocal h_mean
        cur = st.loop
        h = sys.hamiltonian(cur.x)
        eta_resid = 0.0
        if prev is not None:
            # residual of the averaged multiplier ODE etahat' = integral H
            if extended:
                rate = (np.mean(cur.eta) - np.mean(prev.eta)) / ds
            else:
                rate = (cur.tau - prev.tau) / ds
            eta_resid = abs(rate - h_mean)
        h_mean = float(np.mean(h))
        max_h, contained, spread = _observe(sys, cur, h)
        drift = math.fsum(cur.zeta.tolist()) / nt - zeta0_mean if extended else 0.0
        diags.rows.append(
            FlowStep(
                step=st.steps, s=st.s, action=st.action, grad_norm=st.norm,
                energy_cum=st.energy, eta_avg_residual=eta_resid, zeta_drift=drift,
                max_abs_h=max_h, containment=contained,
                lem1_ok=_lem1_check(sys, st.norm, max_h), zeta_spread=spread,
            )
        )

    end, converged = _descend(
        sys, loop, kmax, lambda norm: norm < controls.eps_stop, record,
        controls.max_steps, ds_max=controls.ds_max,
    )
    diags.converged = converged
    diags.stop_reason = "gradient below threshold" if converged else "step budget exhausted"
    diags.energy_total = end.energy
    diags.action_start = diags.rows[0].action
    diags.action_end = end.action
    diags.target_component = identify_target(sys, end.loop)
    return end.loop, diags


# -- discrete critical loops -------------------------------------------------------


def discrete_orbit_loop(sys: ModelSystem, k: int, nt: int = 256, base=None) -> RabinowitzLoop:
    """The multiplicity-k circle orbit as an exact fixed point of the
    discrete gradient: the sampled unit-sphere loop with the multiplier
    tuned to the centered-difference symbol, tau = sin(2 pi k / N_t) * N_t
    / (k h'(1)) * k ... explicitly tau = sin(2 pi k dt)/(dt h'(1))."""
    if k == 0:
        raise ValueError("k = 0 has no orbit; use discrete_constant_loop")
    t = np.arange(nt) / nt
    if base is None:
        base = np.zeros(sys.dim)
        base[0] = 1.0
    base = np.asarray(base, float)
    base = base / np.linalg.norm(base)
    theta = 2.0 * np.pi * k * t
    x = np.cos(theta)[:, None] * base + np.sin(theta)[:, None] * (sys.jmat @ base)
    dt = 1.0 / nt
    tau = math.sin(2.0 * np.pi * k * dt) / (dt * float(sys.profile.hp(1.0)))
    return RabinowitzLoop(x=x, tau=tau)


def discrete_constant_loop(sys: ModelSystem, point=None, nt: int = 256) -> RabinowitzLoop:
    """A constant loop on the unit sphere with multiplier zero."""
    if point is None:
        point = np.zeros(sys.dim)
        point[0] = 1.0
    point = np.asarray(point, float)
    point = point / np.linalg.norm(point)
    return RabinowitzLoop(x=np.tile(point, (nt, 1)), tau=0.0)


def lift_loop(loop: RabinowitzLoop, sigma: float = 0.0) -> ExtendedLoop:
    """Lift (x, tau) to (x, eta = tau const, zeta = sigma const)."""
    nt = loop.nt
    return ExtendedLoop(
        x=np.array(loop.x), eta=np.full(nt, loop.tau), zeta=np.full(nt, float(sigma))
    )


# -- reduced second variation --------------------------------------------------------


def _fourier_basis(nt: int, kmax: int) -> np.ndarray:
    """Orthonormal real trig basis (columns) for modes |k| <= kmax."""
    t = np.arange(nt) / nt
    cols = [np.ones(nt)]
    for k in range(1, kmax + 1):
        cols.append(np.sqrt(2.0) * np.cos(2 * np.pi * k * t))
        cols.append(np.sqrt(2.0) * np.sin(2 * np.pi * k * t))
    return np.stack(cols, axis=1)


# reduced coordinates: per part in field order, a loop part's basis
# coefficients component by component, a scalar part as itself


def _width(part, nb: int) -> int:
    """Number of reduced coordinates of one part."""
    return nb * (part.size // len(part)) if np.ndim(part) else 1


def _pack_dim(loop, kmax: int) -> int:
    return sum(_width(p, 2 * kmax + 1) for p in loop.parts)


def _pack(batch, basis: np.ndarray) -> np.ndarray:
    """Reduced coordinates, one row per member, of a batch of part tuples."""
    nt = basis.shape[0]
    m = len(batch[0])
    # orthonormal w.r.t. the mean inner product
    return np.hstack([
        ((basis.T @ a.reshape(m, nt, -1)) / nt).transpose(0, 2, 1).reshape(m, -1)
        if a.ndim > 1 else a[:, None]
        for a in batch
    ])


def _unpack(loop, vecs, basis):
    """The batch of tangents at ``loop`` whose reduced coordinates are the
    rows of vecs; loop parts come out time-contiguous in memory."""
    nt, nb = basis.shape
    m = len(vecs)
    out, i = [], 0
    for p in loop.parts:
        w = _width(p, nb)
        if np.ndim(p):
            samples = vecs[:, i:i + w].reshape(-1, nb) @ basis.T
            out.append(np.swapaxes(samples.reshape(m, -1, nt), 1, 2).reshape((m,) + p.shape))
        else:
            out.append(vecs[:, i])
        i += w
    return tuple(out)


def _shift(loop, vec, basis, eps):
    """The loop moved by eps times the reduced tangent vector vec."""
    d = _unpack(loop, (eps * vec)[None], basis)
    return type(loop)(*(p + q[0] for p, q in zip(loop.parts, d)))


def _part_blocks(loop, basis):
    """The unit tangents of the reduced coordinates, one block at a time.

    Per part in field order and, for a loop part, per component: the slice
    of reduced coordinates that block spans, and the batch of tangents
    whose coordinates are that slice's unit vectors.  The block's own part
    holds the basis columns (a scalar part, 1); the other parts are
    read-only broadcast zeros, never allocated.
    """
    nt, nb = basis.shape
    parts = loop.parts
    i = 0
    for j, p in enumerate(parts):
        m = nb if np.ndim(p) else 1
        ncomp = _width(p, nb) // m
        for k in range(ncomp):
            if np.ndim(p):
                # time-contiguous, as second_variation works with time last
                own = np.zeros((nb, ncomp, nt))
                own[:, k] = basis.T
                own = np.swapaxes(own, 1, 2).reshape((nb,) + p.shape)
            else:
                own = np.ones(1)
            tangents = tuple(own if q == j else np.broadcast_to(0.0, (m,) + np.shape(parts[q]))
                             for q in range(len(parts)))
            yield slice(i, i + m), tangents
            i += m


def reduced_hessian(sys: ModelSystem, loop, kmax: int = 2) -> np.ndarray:
    """Second variation of the action on the |k| <= kmax Fourier subspace.

    B^T L B for an orthonormal basis B of the subspace and L the exact
    ``second_variation``, then symmetrized; the discrete L2 metric is the
    identity in these coordinates.  The rows are assembled one part block
    at a time (the x part component by component, then each eta, tau or
    zeta part), so that the working memory is one block's tangents and
    derivatives, not the whole batch's.
    """
    basis = _fourier_basis(loop.nt, kmax)
    dim = _pack_dim(loop, kmax)
    cols = np.empty((dim, dim))
    for rows, tangents in _part_blocks(loop, basis):
        cols[rows] = _pack(second_variation(sys, loop, tangents), basis)
    return 0.5 * (cols + cols.T)


def stable_perturbation(
    sys: ModelSystem,
    loop,
    rng: np.random.Generator,
    kmax: int = 1,
    amplitude: float = 3e-6,
    rate_min: float = 2.0,
):
    """Random tangent in the fast-stable cone of the reduced Hessian.

    The flow contracts these directions at rate >= rate_min; starting
    there keeps a run clear of the (genuine) unstable directions of the
    indefinite functional for long enough to converge.  Returns a
    perturbed copy of the loop.
    """
    basis = _fourier_basis(loop.nt, kmax)
    hess = reduced_hessian(sys, loop, kmax=kmax)
    evals, evecs = np.linalg.eigh(hess)
    stable = evecs[:, evals >= rate_min]
    if stable.shape[1] == 0:
        raise ValueError(f"no Hessian directions with rate >= {rate_min}")
    coef = rng.standard_normal(stable.shape[1])
    vec = stable @ (coef / np.linalg.norm(coef))
    return _shift(loop, vec, basis, amplitude)


# -- serialization ----------------------------------------------------------------


def loop_to_json(loop, file=None) -> str | None:
    """Write the loop's ``type`` and parts as one compact JSON object with
    sorted keys, then a newline: the text of ``json.dumps(payload,
    sort_keys=True)``.

    Each part is encoded and written on its own, so the working memory is
    one part's nested list and text.  ``file`` follows the rules of
    ``_files.write_chunks``; returns the text when ``file`` is None.
    """
    payload = {"type": "rabinowitz" if isinstance(loop, RabinowitzLoop) else "extended"}
    payload.update((f.name, getattr(loop, f.name)) for f in fields(loop))

    def chunks():
        # compact: indented, the arrays would print one number per line
        for i, key in enumerate(sorted(payload)):
            value = payload[key]
            value = value.tolist() if isinstance(value, np.ndarray) else value
            yield ("{" if i == 0 else ", ") + json.dumps(key) + ": " + json.dumps(value)
        yield "}\n"

    return write_chunks(file, chunks())


def loop_from_json(source):
    """The loop ``loop_to_json`` wrote (a path or an open handle), its fields
    read by ``_files.read_record``.

    Raises ValueError naming the field that is missing, ill-typed or of the
    wrong shape: ``type`` not rabinowitz or extended, ``x`` not a (N_t, 2n)
    array, ``tau`` not a number, or ``eta`` / ``zeta`` not N_t numbers.
    """
    payload = read_json(source)
    kind = read_record(payload, "loop file", {"type": string})["type"]
    if kind not in ("rabinowitz", "extended"):
        raise ValueError(f"loop field 'type' must be 'rabinowitz' or 'extended', got {kind!r}")
    names = ("x", "tau") if kind == "rabinowitz" else ("x", "eta", "zeta")
    values = read_record(payload, f"{kind} loop file",
                         {name: number if name == "tau" else number_array for name in names})
    x = values["x"]
    if x.ndim != 2 or not x.size:
        raise ValueError(f"loop field 'x' must be an (N_t, 2n) array, got shape {x.shape}")
    if kind == "rabinowitz":
        return RabinowitzLoop(**values)
    for name in ("eta", "zeta"):
        if values[name].shape != (len(x),):
            raise ValueError(f"loop field {name!r} must hold N_t = {len(x)} numbers, "
                             f"got shape {values[name].shape}")
    return ExtendedLoop(**values)


def diagnostics_to_csv(diags: FlowDiagnostics, file=None) -> str:
    """Diagnostics stream: one row per recorded step, spec'd column order."""
    lines = [",".join(DIAG_COLUMNS)]
    for r in diags.rows:
        floats = (r.s, r.action, r.grad_norm, r.energy_cum, r.eta_avg_residual, r.zeta_drift,
                  r.max_abs_h)
        row = [str(r.step), *(format(v, ".17g") for v in floats), str(int(r.containment))]
        lines.append(",".join(row))
    return write_text(file, "\n".join(lines) + "\n")
