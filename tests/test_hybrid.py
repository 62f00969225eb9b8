import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfhlab.gradflow import (
    DivergenceError,
    StepSizeError,
    discrete_constant_loop,
    discrete_orbit_loop,
    lift_loop,
    stable_perturbation,
)
from rfhlab.hybrid import (
    HYBRID_DIAG_COLUMNS,
    HybridControls,
    auto_transversality_check,
    hessian_agreement,
    hybrid_diagnostics_to_csv,
    hybrid_relax,
    initial_hybrid_state,
)
from rfhlab.model import make_model

NT = 256


@pytest.fixture(scope="module")
def sys1():
    return make_model(n=1)


@pytest.fixture(scope="module")
def orbit(sys1):
    return discrete_orbit_loop(sys1, 1, NT)


def test_coupling_projection_is_exact(sys1, orbit):
    plus = lift_loop(orbit, 0.7)
    assert np.array_equal(plus.x, orbit.x)
    assert np.all(plus.eta == orbit.tau)
    assert np.all(plus.zeta == 0.7)


def test_stationary_input_is_fixed_point_with_zero_energy(sys1, orbit):
    state = initial_hybrid_state(sys1, orbit, sigma=0.5)
    out, d = hybrid_relax(sys1, state)
    assert d.converged
    assert d.energy_minus == 0.0 and d.energy_plus == 0.0
    assert d.mid_action_residual == 0.0
    assert d.action_chain_ok
    assert np.max(np.abs(out.plus_end.x - orbit.x)) == 0.0
    assert float(np.mean(out.plus_end.zeta)) == pytest.approx(0.5)


def test_mid_action_equality_holds_exactly(sys1, orbit):
    # eta+ (0, .) is constant in t, so the middle quadrature term of the
    # fixed-period action vanishes identically at the matching time
    rng = np.random.default_rng(1)
    pert = stable_perturbation(sys1, orbit, rng, kmax=1, amplitude=3e-6, rate_min=0.5)
    state = initial_hybrid_state(sys1, pert, sigma=0.2)
    out, d = hybrid_relax(sys1, state)
    assert d.mid_action_residual == 0.0
    assert d.coupling_residual_loop == 0.0
    assert d.coupling_residual_eta == 0.0


def test_perturbed_stationary_reconverges_with_identities(sys1, orbit):
    rng = np.random.default_rng(42)
    pert = stable_perturbation(sys1, orbit, rng, kmax=1, amplitude=3e-6, rate_min=0.5)
    state = initial_hybrid_state(sys1, pert, sigma=0.5)
    out, d = hybrid_relax(sys1, state)
    assert d.converged
    assert d.action_chain_ok
    assert d.energy_identity_residual <= 1e-5
    assert d.contained
    # back on the same component, sigma preserved up to the free shift
    assert np.max(np.abs(out.plus_end.x - orbit.x)) <= 1e-5
    assert np.max(np.abs(out.plus_end.eta - orbit.tau)) <= 1e-5
    assert float(np.mean(out.plus_end.zeta)) == pytest.approx(0.5, abs=1e-9)


def test_hessian_agreement_random_probes(sys1, orbit):
    worst = hessian_agreement(sys1, orbit, sigma=0.3, rng=np.random.default_rng(2))
    assert worst <= 1e-10


def test_hessian_agreement_trivial_probes(sys1, orbit):
    rng = np.random.default_rng(3)
    nt = orbit.nt
    zero_v = np.zeros_like(orbit.x)
    xi = rng.standard_normal(nt)
    # degenerate direction: both second variations vanish
    assert hessian_agreement(sys1, orbit, 0.3, probes=[(zero_v, 0.0, xi)]) <= 1e-12
    # direction along the critical manifold (phase shift): Morse-Bott kernel
    dx = (np.roll(orbit.x, -1, axis=0) - np.roll(orbit.x, 1, axis=0)) * (nt / 2.0)
    assert hessian_agreement(sys1, orbit, 0.3, probes=[(dx, 0.0, np.zeros(nt))]) <= 1e-10


def test_hessian_agreement_requires_critical_base(sys1, orbit):
    bad = type(orbit)(x=orbit.x * 1.05, tau=orbit.tau)
    with pytest.raises(ValueError):
        hessian_agreement(sys1, bad, probes=[(np.zeros_like(orbit.x), 0.0,
                                              np.zeros(orbit.nt))])


def test_auto_transversality_orbit(sys1, orbit):
    rep = auto_transversality_check(sys1, orbit, sigma=0.2)
    assert rep.kernel_dim == rep.expected_kernel_dim == 2
    assert rep.rstar_in_kernel
    assert rep.kernel_spanned_by_manifold_and_rstar
    assert rep.rstar_only_neutral


def test_auto_transversality_constants(sys1):
    rep = auto_transversality_check(sys1, discrete_constant_loop(sys1, nt=NT), sigma=-0.1)
    assert rep.kernel_dim == 2  # Sigma tangent + sigma line for n = 1
    assert rep.rstar_only_neutral


def test_auto_transversality_higher_dimension():
    sy = make_model(n=2)
    orbit = discrete_orbit_loop(sy, 1, 128)
    rep = auto_transversality_check(sy, orbit, sigma=0.0)
    # kernel = critical-manifold tangents (2n - 1 = 3) plus the sigma line
    assert rep.kernel_dim == rep.expected_kernel_dim == 4
    assert rep.rstar_only_neutral


def test_hybrid_csv_schema(sys1, orbit):
    state = initial_hybrid_state(sys1, orbit, sigma=0.5)
    out, _ = hybrid_relax(sys1, state)
    text = hybrid_diagnostics_to_csv(out)
    lines = text.splitlines()
    assert lines[0] == ",".join(HYBRID_DIAG_COLUMNS)
    sides = {line.split(",")[0] for line in lines[1:]}
    assert sides == {"minus", "plus"}


def test_horizon_doubles_until_plus_end_relaxes(sys1, orbit):
    rng = np.random.default_rng(7)
    pert = stable_perturbation(sys1, orbit, rng, kmax=1, amplitude=3e-6, rate_min=0.5)
    state = initial_hybrid_state(sys1, pert, sigma=0.1)
    out, d = hybrid_relax(sys1, state, HybridControls(horizon=0.5))
    assert d.converged
    assert d.horizon > 0.5  # at least one doubling happened
    assert d.sweeps >= 2


def test_escaping_start_raises_numerical_failure(sys1, orbit):
    # the start of `rfhlab hybrid --amplitude 1e-2`: the half-runs leave the
    # contracting cone and must fail with the flow's own errors
    pert = stable_perturbation(sys1, orbit, np.random.default_rng(0), kmax=1,
                               amplitude=1e-2, rate_min=0.5)
    state = initial_hybrid_state(sys1, pert)
    with pytest.raises((StepSizeError, DivergenceError)):
        hybrid_relax(sys1, state)


def test_half_run_keeps_end_loops_and_sup_values(sys1, orbit):
    rng = np.random.default_rng(42)
    pert = stable_perturbation(sys1, orbit, rng, kmax=1, amplitude=3e-6, rate_min=0.5)
    out, d = hybrid_relax(sys1, initial_hybrid_state(sys1, pert, sigma=0.5))
    assert len(out.minus.loops) == len(out.plus.loops) == 2
    assert out.minus.loops[0] is pert
    assert len(out.minus.s) > 2  # many steps taken, two loops kept
    assert d.eta_minus_inf >= abs(pert.tau)
    assert d.eta_plus_inf == pytest.approx(d.eta_minus_inf, rel=1e-5)
    assert 0.0 <= d.zeta_spread_inf <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 2),
    k=st.sampled_from([1, -1, 0]),
    nt=st.integers(32, 128),
    log_amplitude=st.floats(0.0, 1.0),
    sigma=st.floats(-2.0, 2.0),
    horizon=st.floats(0.5, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_relaxed_halves_are_coupled_exactly_and_never_rise(n, k, nt, log_amplitude, sigma,
                                                           horizon, seed):
    # the plus start is the lift of the minus end and no accepted step
    # raises the action: the coupling and the chain hold with no slack
    sy = make_model(n=n)
    if k:
        base, lo, hi, rate_min = discrete_orbit_loop(sy, k, nt), 1e-8, 3e-6, 0.5
    else:
        base, lo, hi, rate_min = discrete_constant_loop(sy, nt=nt), 1e-6, 1e-4, 2.0
    start = stable_perturbation(sy, base, np.random.default_rng(seed), kmax=1,
                                amplitude=lo * (hi / lo) ** log_amplitude, rate_min=rate_min)
    out, d = hybrid_relax(sy, initial_hybrid_state(sy, start, sigma=sigma),
                          HybridControls(horizon=horizon))
    assert out.coupling_residuals() == (0.0, 0.0)
    assert (d.coupling_residual_loop, d.coupling_residual_eta) == (0.0, 0.0)
    for run in (out.minus, out.plus):
        assert all(b <= a for a, b in zip(run.actions, run.actions[1:]))
