"""Coupled half-cylinder problem matching the two gradient flows at s = 0.

A hybrid configuration is a pair: a free-period trajectory v = (u-, eta-)
on (-S, 0] and a fixed-period trajectory u~ = (u+, eta+, zeta+) on [0, S),
coupled by

    u+(0, t) = u-(0, t)   and   eta+(0, t) = eta-(0)   for all t.

Because eta+(0, .) is constant in t, the two action values agree exactly
at the matching time, giving the chain
A(v(-s)) >= A(v(0)) = A~(u~(0)) >= A~(u~(s))  and the sharp energy identity
E(v) + E(u~) = A(v(-S)) - A~(u~(S))  up to quadrature error.

``hybrid_relax`` realizes configurations by alternating sweeps: flow the
minus input forward for the horizon, project the coupling (exact, the
constraint is affine), flow the plus side onward.  A half-run freezes once
its gradient drops below the end tolerance; if the plus end is still away
from critical at the horizon, the horizon doubles and the sweep repeats.
A half-run that uses up its step budget ends the relaxation unconverged.

``hessian_agreement`` verifies that the second variations of the two
functionals agree on coupled directions (v, rho) vs (v, rho, xi): both are
the exact quadratic forms of ``gradflow.second_variation``, and the xi
terms integrate away when rho is constant in t, so the discrete values
agree to rounding for any loop xi.  ``auto_transversality_check``
examines the linearization at a stationary configuration: the reduced
second variation has kernel spanned by the critical-manifold tangents
(which the Morse data on the quotient pins) plus the sigma-shift, so the
sigma-shift is the only neutral direction of the matching problem itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._files import write_text
from .gradflow import (
    ExtendedLoop,
    RabinowitzLoop,
    _descend,
    _fourier_basis,
    _g_inner,
    _pack,
    grad_norm,
    gradient_rabinowitz,
    lift_loop,
    reduced_hessian,
    second_variation,
)
from .model import ModelSystem, radius

__all__ = [
    "HybridState",
    "HybridControls",
    "HybridDiagnostics",
    "AutoTransversalityReport",
    "initial_hybrid_state",
    "hybrid_relax",
    "hessian_agreement",
    "auto_transversality_check",
    "hybrid_diagnostics_to_csv",
    "HYBRID_DIAG_COLUMNS",
]


@dataclass
class HalfRun:
    """One relaxed half-trajectory: its start and end loops, per-step
    scalar series, and sup values folded in as the run goes."""

    s: list[float] = field(default_factory=list)
    loops: list = field(default_factory=list)
    actions: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    energy_cum: list[float] = field(default_factory=list)
    budget_exhausted: bool = False
    eta_inf: float = 0.0
    zeta_spread_inf: float = 0.0
    contained: bool = True

    @property
    def energy(self) -> float:
        return self.energy_cum[-1] if self.energy_cum else 0.0

    def observe(self, loop, r_plateau: float):
        """Fold one loop into the sup of |eta|, the zeta spread and containment."""
        if isinstance(loop, RabinowitzLoop):
            self.eta_inf = max(self.eta_inf, abs(loop.tau))
        else:
            self.eta_inf = max(self.eta_inf, float(np.max(np.abs(loop.eta))))
            spread = float(np.max(np.abs(loop.zeta - np.mean(loop.zeta))))
            self.zeta_spread_inf = max(self.zeta_spread_inf, spread)
        self.contained = self.contained and (
            float(np.max(radius(loop.x))) <= r_plateau + 1e-9
        )


@dataclass
class HybridState:
    """Pair of coupled half-trajectories."""

    minus: HalfRun
    plus: HalfRun

    @property
    def plus_end(self) -> ExtendedLoop:
        return self.plus.loops[-1]

    def coupling_residuals(self) -> tuple[float, float]:
        # both are exactly 0.0 after hybrid_relax, whose plus start is the
        # lift of the minus end: x copied, eta the constant tau
        v0 = self.minus.loops[-1]
        u0 = self.plus.loops[0]
        r_loop = float(np.max(np.abs(u0.x - v0.x)))
        r_eta = float(np.max(np.abs(u0.eta - v0.tau)))
        return r_loop, r_eta


# a half-run freezes once its full gradient is this small; the horizon
# doubles at most MAX_DOUBLINGS times
END_TOL = 1e-6
MAX_DOUBLINGS = 3


@dataclass(frozen=True)
class HybridControls:
    horizon: float = 20.0
    freq_cutoff: int = 1
    max_steps: int = 10**6  # step budget of each half-run


def initial_hybrid_state(
    sys: ModelSystem,
    minus_input: RabinowitzLoop,
    sigma: float = 0.0,
) -> HybridState:
    """Constant-in-s configuration through the given free-period loop.

    The plus side is the coupled lift with zeta = sigma; the coupling
    invariants hold by construction.
    """
    plus0 = lift_loop(minus_input, sigma)
    return HybridState(minus=HalfRun(loops=[minus_input]), plus=HalfRun(loops=[plus0]))


def _half_run(sys, loop, s_offset: float, horizon: float, controls: HybridControls) -> HalfRun:
    """Negative-gradient half-run over flow time ``horizon``, or over
    ``controls.max_steps`` steps if that budget runs out first.

    Records every accepted step; freezes (stops stepping) once the full
    gradient drops to END_TOL, since past that point the trajectory stays
    within END_TOL/rate of the frozen loop.
    """
    run = HalfRun()
    r_plateau = sys.profile.r_plateau

    def record(st, prev, ds):
        run.s.append(s_offset + st.s)
        run.actions.append(st.action)
        run.grad_norms.append(st.norm)
        run.energy_cum.append(st.energy)
        run.observe(st.loop, r_plateau)

    end, _ = _descend(
        sys, loop, controls.freq_cutoff, lambda norm: norm <= END_TOL, record,
        controls.max_steps, horizon=horizon,
    )
    run.loops = [loop, end.loop]
    run.budget_exhausted = end.steps >= controls.max_steps and end.s < horizon
    return run


@dataclass
class HybridDiagnostics:
    sweeps: int = 0
    horizon: float = 0.0
    coupling_residual_loop: float = 0.0
    coupling_residual_eta: float = 0.0
    mid_action_residual: float = 0.0
    action_chain_ok: bool = False
    energy_minus: float = 0.0
    energy_plus: float = 0.0
    energy_identity_residual: float = 0.0
    end_grad_plus: float = 0.0
    converged: bool = False
    budget_exhausted: bool = False
    eta_minus_inf: float = 0.0
    eta_plus_inf: float = 0.0
    zeta_spread_inf: float = 0.0
    contained: bool = True


def hybrid_relax(
    sys: ModelSystem,
    state: HybridState,
    controls: HybridControls = HybridControls(),
):
    """Relax a hybrid configuration by alternating half-flows.

    Each sweep flows the stored minus input forward over the horizon,
    re-imposes the coupling at s = 0 exactly, and flows the plus side on.
    The horizon doubles (re-sweeping from the same input) until the plus
    end gradient passes END_TOL or the doubling budget runs out.  A
    half-run that uses up ``controls.max_steps`` ends the sweeps, since a
    longer horizon would repeat the same steps from the same input.

    Returns (relaxed HybridState, HybridDiagnostics).  The summed-energy
    identity and the coupling residuals are recorded.  The coupling and the
    action chain hold by construction: the plus start is ``lift_loop`` of
    the minus end, so both residuals are exactly 0.0, and ``_descend``
    accepts a step only if a_new <= action - c ds |g|^2, so neither half's
    actions ever rise.  Half-runs raise StepSizeError and DivergenceError as
    ``integrate`` does.
    """
    minus_input = state.minus.loops[0]
    sigma_ref = float(np.mean(state.plus.loops[0].zeta))
    horizon = controls.horizon

    sweeps = 0
    while True:
        sweeps += 1
        minus = _half_run(sys, minus_input, -horizon, horizon, controls)
        plus0 = lift_loop(minus.loops[-1], sigma_ref)
        plus = _half_run(sys, plus0, 0.0, horizon, controls)
        exhausted = minus.budget_exhausted or plus.budget_exhausted
        if plus.grad_norms[-1] <= END_TOL or exhausted or sweeps > MAX_DOUBLINGS:
            break
        horizon *= 2.0

    out = HybridState(minus=minus, plus=plus)
    r_loop, r_eta = out.coupling_residuals()
    e_m, e_p = minus.energy, plus.energy
    diags = HybridDiagnostics(
        sweeps=sweeps,
        horizon=horizon,
        coupling_residual_loop=r_loop,
        coupling_residual_eta=r_eta,
        mid_action_residual=abs(minus.actions[-1] - plus.actions[0]),
        action_chain_ok=True,  # no accepted step raises the action (Armijo)
        energy_minus=e_m,
        energy_plus=e_p,
        energy_identity_residual=abs((e_m + e_p) - (minus.actions[0] - plus.actions[-1])),
        end_grad_plus=plus.grad_norms[-1],
        converged=plus.grad_norms[-1] <= END_TOL and not exhausted,
        budget_exhausted=exhausted,
        eta_minus_inf=minus.eta_inf,
        eta_plus_inf=plus.eta_inf,
        zeta_spread_inf=plus.zeta_spread_inf,
        contained=minus.contained and plus.contained,
    )
    return out, diags


# -- second variations ------------------------------------------------------------


def _quadratic_forms(sys: ModelSystem, loop, tangents) -> np.ndarray:
    """<t, L t> for each tangent t of the batch, L the exact second variation."""
    lt = second_variation(sys, loop, tangents)
    return np.array([
        _g_inner([a[i] for a in tangents], [b[i] for b in lt], loop.nt)
        for i in range(len(tangents[0]))
    ])


def hessian_agreement(
    sys: ModelSystem,
    xhat: RabinowitzLoop,
    sigma: float = 0.0,
    probes=None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max discrepancy between the two second variations over probes.

    Each probe is (v, rho, xi): a loop tangent field, a multiplier
    direction, and an arbitrary zeta-direction loop; without ``probes``,
    50 random ones in the modes |k| <= 3.  The free-period functional
    sees (v, rho); its lift sees (v, rho const, xi).  Both second
    variations are the exact quadratic forms <t, L t> of
    ``second_variation``; the lift's extra terms vanish identically, so
    the discrepancy is rounding noise.  Requires the base point to be
    critical (gradient norm at most 1e-8).
    """
    g = gradient_rabinowitz(sys, xhat)
    if grad_norm(g, xhat.nt) > 1e-8:
        raise ValueError("hessian_agreement requires a critical base point")
    nt = xhat.nt
    if probes is None:
        rng = rng or np.random.default_rng(0)
        basis = _fourier_basis(nt, 3)
        probes = []
        for _ in range(50):
            v = basis @ rng.standard_normal((basis.shape[1], xhat.x.shape[1]))
            rho = float(rng.standard_normal())
            xi = basis @ rng.standard_normal(basis.shape[1])
            probes.append((v, rho, xi))

    v, rho, xi = (np.array(part) for part in zip(*probes))
    q_free = _quadratic_forms(sys, xhat, (v, rho))
    q_lift = _quadratic_forms(
        sys, lift_loop(xhat, sigma), (v, np.repeat(rho[:, None], nt, axis=1), xi)
    )
    return float(np.max(np.abs(q_free - q_lift)))


# -- automatic transversality at stationary configurations -------------------------


@dataclass
class AutoTransversalityReport:
    kernel_eigenvalues: np.ndarray
    kernel_dim: int
    expected_kernel_dim: int
    rstar_in_kernel: bool
    kernel_spanned_by_manifold_and_rstar: bool
    rstar_only_neutral: bool


def _k_tangent_vectors(sys: ModelSystem, xhat: RabinowitzLoop, basis: np.ndarray) -> np.ndarray:
    """Reduced coordinates, as columns, spanning the critical-manifold
    tangent at the lift.

    For an orbit loop x(t) = rot(theta t) p these are the fields
    rot(theta t) w with w in T_p Sigma; for a constant loop, the constant
    fields tangent to Sigma.  Zero eta and zeta parts.
    """
    x = xhat.x
    p = x[0] / np.linalg.norm(x[0])
    # the rows of V^T after the first, in p = U S V^T: an orthonormal basis of T_p Sigma
    tangs = np.linalg.svd(p[None])[2][1:]
    # transport each tangent along the loop: w(t) = x(t)-frame rotation of w
    cos_t = x @ p            # cos(theta(t)) since |x| = 1
    sin_t = x @ (sys.jmat @ p)
    vw = cos_t[:, None] * tangs[:, None] + sin_t[:, None] * (tangs @ sys.jmat.T)[:, None]
    zeros = np.zeros(vw.shape[:2])
    return _pack((vw, zeros, zeros), basis).T


def auto_transversality_check(
    sys: ModelSystem,
    xhat: RabinowitzLoop,
    sigma: float = 0.0,
) -> AutoTransversalityReport:
    """Spectral check of the linearized matching problem.

    Builds the reduced second variation of the fixed-period action at the
    stationary lift, on the modes |k| <= 2, and verifies: the kernel has
    the critical manifold's dimension plus one; the sigma-shift lies in it;
    the rest of the kernel is tangent to the critical manifold (pinned by
    the Morse data), so after that identification the sigma-shift is the
    only neutral direction.  Directions of positive eigenvalue contract
    under the linearized flow dz/ds = -H z by construction, so the spectrum
    is the whole check.

    The kernel is cut at the spectrum's widest gap.  Sort |lambda|, floor
    each at machine epsilon times the spectral radius, and put that floor
    first: the kernel is every eigenvalue below the largest ratio hi / lo
    of neighbours in this list (none, if the floor is the lo).  A unit
    vector v is in the kernel when |H v| is below sqrt(lo hi), and the
    kernel is spanned by the allowed directions when its residual against
    them is below sqrt(lo / hi): a kernel vector computed in floating point
    lies within about lo / hi of the exact kernel, and one outside the span
    leaves a residual of order one.
    """
    kmax = 2
    lift = lift_loop(xhat, sigma)
    nt = lift.nt
    basis = _fourier_basis(nt, kmax)
    hess = reduced_hessian(sys, lift, kmax=kmax)
    evals, evecs = np.linalg.eigh(hess)

    order = np.argsort(np.abs(evals))
    mags = np.abs(evals[order])
    scale = np.maximum(np.concatenate([[0.0], mags]), np.finfo(float).eps * mags[-1])
    kernel_dim = int(np.argmax(scale[1:] / scale[:-1]))
    lo, hi = scale[kernel_dim], scale[kernel_dim + 1]
    in_kernel = np.sort(order[:kernel_dim])
    kernel = evecs[:, in_kernel]

    # the constant zeta direction
    rstar = _pack((np.zeros((1,) + lift.x.shape), np.zeros((1, nt)), np.ones((1, nt))), basis)[0]

    h_rstar = float(np.linalg.norm(hess @ rstar))
    rstar_in_kernel = h_rstar <= np.sqrt(lo * hi)

    ktang = _k_tangent_vectors(sys, xhat, basis)
    allowed = np.column_stack([ktang, rstar])
    q, _ = np.linalg.qr(allowed)
    resid = kernel - q @ (q.T @ kernel)
    spanned = float(np.max(np.abs(resid))) <= np.sqrt(lo / hi) if kernel.size else True
    expected = (sys.dim - 1) + 1
    rstar_only = rstar_in_kernel and spanned and kernel_dim == expected

    return AutoTransversalityReport(
        kernel_eigenvalues=evals[in_kernel],
        kernel_dim=kernel_dim,
        expected_kernel_dim=expected,
        rstar_in_kernel=rstar_in_kernel,
        kernel_spanned_by_manifold_and_rstar=spanned,
        rstar_only_neutral=rstar_only,
    )


# -- diagnostics stream --------------------------------------------------------------


HYBRID_DIAG_COLUMNS = (
    "side", "step", "s", "action", "grad_norm", "energy_cum",
    "coupling_residual_loop", "coupling_residual_eta",
)


def hybrid_diagnostics_to_csv(state: HybridState, file=None) -> str:
    """Per-sample rows for both halves, with the coupling residual columns."""
    residuals = [format(r, ".17g") for r in state.coupling_residuals()]
    lines = [",".join(HYBRID_DIAG_COLUMNS)]
    for side, run in (("minus", state.minus), ("plus", state.plus)):
        for i, s in enumerate(run.s):
            floats = (s, run.actions[i], run.grad_norms[i], run.energy_cum[i])
            lines.append(",".join([side, str(i), *(format(v, ".17g") for v in floats), *residuals]))
    return write_text(file, "\n".join(lines) + "\n")
