import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfhlab import gradflow
from rfhlab.gradflow import (
    DIAG_COLUMNS,
    DivergenceError,
    ExtendedLoop,
    IntegrateControls,
    RabinowitzLoop,
    action_extended,
    action_rabinowitz,
    diagnostics_to_csv,
    discrete_constant_loop,
    discrete_orbit_loop,
    fourier_project,
    grad_norm,
    gradient_extended,
    gradient_rabinowitz,
    integrate,
    lift_loop,
    loop_from_json,
    loop_to_json,
    reduced_hessian,
    stable_perturbation,
)
from rfhlab.model import make_model

NT = 256


@pytest.fixture(scope="module")
def sys1():
    return make_model(n=1)


@pytest.fixture(scope="module")
def orbit(sys1):
    return discrete_orbit_loop(sys1, 1, NT)


@pytest.fixture(scope="module")
def lifted(orbit):
    return lift_loop(orbit, sigma=0.4)


# -- actions ---------------------------------------------------------------------


def test_action_constant_loop_on_level(sys1):
    loop = discrete_constant_loop(sys1, nt=NT)
    assert action_rabinowitz(sys1, loop) == 0.0


def test_action_orbit_quadrature(sys1):
    # discrete multiplier sin(2 pi dt)/dt makes the sampled circle exactly
    # critical; its action is pi * sinc-factor, pi + O(1/N^2)
    for nt in (128, 256):
        loop = discrete_orbit_loop(sys1, 1, nt)
        a = action_rabinowitz(sys1, loop)
        assert abs(a - np.pi) <= 25.0 / nt**2
    e128 = abs(action_rabinowitz(sys1, discrete_orbit_loop(sys1, 1, 128)) - np.pi)
    e256 = abs(action_rabinowitz(sys1, discrete_orbit_loop(sys1, 1, 256)) - np.pi)
    assert e128 / e256 == pytest.approx(4.0, rel=0.05)


def test_lift_action_equality_exact(sys1, orbit, lifted):
    # on a lifted state the middle quadrature term vanishes identically,
    # so the two action values are the same float
    assert action_extended(sys1, lifted) == action_rabinowitz(sys1, orbit)


def test_action_zeta_shift_invariance_exact(sys1, lifted):
    shifted = ExtendedLoop(x=lifted.x, eta=lifted.eta, zeta=lifted.zeta + 5.0)
    assert action_extended(sys1, shifted) == action_extended(sys1, lifted)


def test_action_extended_refinement_order(sys1):
    # nonconstant eta: compare against a fine-grid quadrature of the same
    # smooth data; the error must fall like 1/N^2
    def build(nt):
        t = np.arange(nt) / nt
        x = np.stack([(1 + 0.1 * np.sin(2 * np.pi * t)) * np.cos(2 * np.pi * t),
                      (1 + 0.1 * np.sin(2 * np.pi * t)) * np.sin(2 * np.pi * t)], axis=1)
        eta = 1.0 + 0.3 * np.cos(2 * np.pi * t)
        zeta = 0.2 * np.sin(2 * np.pi * t) + 0.5
        return ExtendedLoop(x=x, eta=eta, zeta=zeta)

    ref = action_extended(sys1, build(4096))
    e128 = abs(action_extended(sys1, build(128)) - ref)
    e256 = abs(action_extended(sys1, build(256)) - ref)
    assert e128 / e256 == pytest.approx(4.0, rel=0.15)


# -- gradients --------------------------------------------------------------------


def test_gradient_vanishes_at_discrete_critical_points(sys1, orbit, lifted):
    assert grad_norm(gradient_rabinowitz(sys1, orbit), NT) <= 1e-8
    assert grad_norm(gradient_extended(sys1, lifted), NT) <= 1e-8


def test_gradient_grid_convergence_on_sampled_continuum_orbit(sys1):
    # with the continuum multiplier 2 pi the sampled circle is critical
    # only up to the centered-difference error, which is O(1/N^2)
    norms = {}
    for nt in (128, 256):
        t = np.arange(nt) / nt
        x = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
        loop = RabinowitzLoop(x=x, tau=2 * np.pi)
        norms[nt] = grad_norm(gradient_rabinowitz(sys1, loop), nt)
    assert norms[128] / norms[256] == pytest.approx(4.0, rel=0.05)


def test_gradient_constant_loop_off_level(sys1):
    x0 = np.array([1.1, 0.0])
    loop = RabinowitzLoop(x=np.tile(x0, (NT, 1)), tau=0.0)
    gx, gtau = gradient_rabinowitz(sys1, loop)
    assert np.max(np.abs(gx)) == 0.0
    assert gtau == pytest.approx(-float(sys1.hamiltonian(x0)))


def test_gradient_extended_componentwise_hand_case(sys1):
    # x constant on the level, eta identically zero, zeta nonconstant:
    # the gradient is (0, zeta', 0)
    t = np.arange(NT) / NT
    x = np.tile([1.0, 0.0], (NT, 1))
    zeta = 0.3 * np.sin(2 * np.pi * t)
    loop = ExtendedLoop(x=x, eta=np.zeros(NT), zeta=zeta)
    gx, geta, gzeta = gradient_extended(sys1, loop)
    dz = (np.roll(zeta, -1) - np.roll(zeta, 1)) * (NT / 2.0)
    assert np.max(np.abs(gx)) <= 1e-14
    assert np.max(np.abs(geta - dz)) <= 1e-12
    assert np.max(np.abs(gzeta)) == 0.0


def test_gradient_is_descent_direction(sys1, lifted):
    rng = np.random.default_rng(5)
    start = stable_perturbation(sys1, lifted, rng, kmax=2, amplitude=1e-3, rate_min=2.0)
    g = gradient_extended(sys1, start)
    nrm2 = grad_norm(g, NT) ** 2
    eps = 1e-6
    moved = ExtendedLoop(x=start.x - eps * g[0], eta=start.eta - eps * g[1],
                         zeta=start.zeta - eps * g[2])
    drop = action_extended(sys1, start) - action_extended(sys1, moved)
    assert drop == pytest.approx(eps * nrm2, rel=1e-3)


def test_gradient_zeta_shift_equivariance_exact(sys1, lifted):
    rng = np.random.default_rng(6)
    start = stable_perturbation(sys1, lifted, rng, kmax=1, amplitude=1e-3, rate_min=2.0)
    g0 = gradient_extended(sys1, start)
    g1 = gradient_extended(
        sys1, ExtendedLoop(x=start.x, eta=start.eta, zeta=start.zeta + 3.0)
    )
    for a, b in zip(g0, g1):
        assert np.max(np.abs(a - b)) <= 1e-12


# -- integration --------------------------------------------------------------------


def test_integrate_from_critical_point_stops_immediately(sys1, lifted):
    final, diags = integrate(sys1, lifted, IntegrateControls(freq_cutoff=2))
    assert diags.converged
    assert len(diags.rows) == 1
    assert diags.energy_total == 0.0
    assert np.max(np.abs(final.x - lifted.x)) <= 1e-14


def test_integrate_converges_with_clean_diagnostics(sys1, lifted):
    start = stable_perturbation(sys1, lifted, np.random.default_rng(3),
                                kmax=1, amplitude=1e-5, rate_min=2.0)
    final, d = integrate(sys1, start, IntegrateControls(freq_cutoff=1))
    assert d.converged
    assert d.actions_non_increasing
    assert d.energy_identity_residual <= 1e-6
    assert d.max_eta_residual <= 1e-6
    assert d.max_zeta_drift <= 1e-10
    assert d.lem1_always
    assert d.contained_always
    assert d.zeta_spread_bound_ok()
    assert d.target_component == "orbit+1"
    # sigma survives as the zeta average
    assert final.zeta_avg == pytest.approx(0.4, abs=1e-9)


def test_integrate_identities_on_fixed_horizon_segment(sys1, lifted):
    # a larger perturbation without demanding convergence: the identities
    # hold along any accepted segment of the discrete flow
    start = stable_perturbation(sys1, lifted, np.random.default_rng(10),
                                kmax=2, amplitude=5e-3, rate_min=2.0)
    _, d = integrate(sys1, start, IntegrateControls(freq_cutoff=2, max_steps=300,
                                                    ds_max=2e-3))
    assert d.stop_reason == "step budget exhausted"
    assert d.actions_non_increasing
    assert d.energy_total > 1e-7  # a genuinely nontrivial action drop
    assert d.energy_identity_residual <= 1e-6
    assert d.max_eta_residual <= 1e-6
    assert d.max_zeta_drift <= 1e-10
    assert d.lem1_always and d.contained_always and d.zeta_spread_bound_ok()


def test_integrate_rabinowitz_flavor(sys1, orbit):
    start = stable_perturbation(sys1, orbit, np.random.default_rng(12),
                                kmax=1, amplitude=3e-6, rate_min=0.5)
    _, d = integrate(sys1, start, IntegrateControls(freq_cutoff=1, eps_stop=1e-6))
    assert d.converged
    assert d.actions_non_increasing
    assert d.max_eta_residual <= 1e-6  # multiplier ODE residual
    assert d.target_component == "orbit+1"


def test_flow_map_r_star_equivariance(sys1, lifted):
    start = stable_perturbation(sys1, lifted, np.random.default_rng(9),
                                kmax=1, amplitude=1e-5, rate_min=2.0)
    shifted = ExtendedLoop(x=start.x, eta=start.eta, zeta=start.zeta + 2.0)
    f1, _ = integrate(sys1, start, IntegrateControls(freq_cutoff=1))
    f2, _ = integrate(sys1, shifted, IntegrateControls(freq_cutoff=1))
    assert np.max(np.abs(f1.x - f2.x)) <= 1e-9
    assert np.max(np.abs(f1.eta - f2.eta)) <= 1e-9
    assert np.max(np.abs(f1.zeta + 2.0 - f2.zeta)) <= 1e-9


def test_divergence_error_on_unstable_start(sys1, lifted):
    # beyond the stable-cone amplitude the indefinite flow escapes; the
    # integrator must fail loudly, not silently
    start = stable_perturbation(sys1, lifted, np.random.default_rng(5),
                                kmax=1, amplitude=1e-2, rate_min=2.0)
    with pytest.raises(DivergenceError):
        integrate(sys1, start, IntegrateControls(freq_cutoff=1, max_steps=50000))


# -- reduced second variation ----------------------------------------------------------


def test_reduced_hessian_spectrum_at_orbit(sys1, orbit):
    # co/contra-rotating mode analysis of the free-period second variation
    # at the circle orbit (modes |k| <= 1): contra-rotating pair at -4 pi,
    # two center directions at -2 pi, the phase direction at 0, and the
    # radius-multiplier pair at -1 and +1
    hess = reduced_hessian(sys1, orbit, kmax=1)
    assert np.max(np.abs(hess - hess.T)) < 1e-9
    expected = np.sort([-4 * np.pi, -4 * np.pi, -2 * np.pi, -2 * np.pi, -1.0, 0.0, 1.0])
    got = np.sort(np.linalg.eigvalsh(hess))
    # the discrete multiplier shifts the continuum rates by O(1/N^2)
    assert np.allclose(got, expected, atol=1e-2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduced_hessian_kernel_at_lift(n):
    # Morse-Bott kernel = tangent of the critical manifold S^{2n-1}, the
    # phase shift among its directions, and the sigma line: dimension 2n
    sy = make_model(n=n)
    hess = reduced_hessian(sy, lift_loop(discrete_orbit_loop(sy, 1, NT), sigma=0.4), kmax=1)
    evals = np.linalg.eigvalsh(hess)
    assert int(np.sum(np.abs(evals) < 1e-6)) == 2 * n


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rabinowitz", "extended"]),
    n=st.integers(1, 3),
    swing=st.floats(0.05, 0.25),
    seed=st.integers(0, 2**32 - 1),
)
def test_second_variation_matches_gradient_differences(kind, n, swing, seed):
    # at a loop that is not critical, with radii on both sides of r0 = 1.2
    # so that the cap branch of h'' enters Hess H, the exact derivative of
    # the gradient agrees with its central differences
    sy = make_model(n=n)
    rng = np.random.default_rng(seed)
    nt, m, eps = 32, 3, 2e-6
    basis = gradflow._fourier_basis(nt, 3)
    nb = basis.shape[1]
    t = np.arange(nt) / nt
    e = np.eye(2 * n)[0]
    circle = np.cos(2 * np.pi * t)[:, None] * e + np.sin(2 * np.pi * t)[:, None] * (sy.jmat @ e)
    rho = sy.profile.r0 + swing * np.cos(2 * np.pi * t + rng.uniform(0, 2 * np.pi))
    x = rho[:, None] * circle + 0.01 * basis @ rng.standard_normal((nb, 2 * n))
    r = np.linalg.norm(x, axis=1)
    assert r.min() < sy.profile.r0 < r.max()

    def loop_part(shape):
        # unit sup norms, and multipliers of size at most 2, keep both the
        # O(eps^2) term and the rounding of the differences near 2e-9
        a = basis @ rng.standard_normal((nb,) + shape)
        return a / np.max(np.abs(a))

    if kind == "rabinowitz":
        loop = RabinowitzLoop(x=x, tau=float(rng.uniform(-2, 2)))
        tangents = (np.stack([loop_part((2 * n,)) for _ in range(m)]), rng.uniform(-1, 1, m))
    else:
        loop = ExtendedLoop(x=x, eta=rng.uniform(-1, 1) + loop_part(()), zeta=loop_part(()))
        tangents = tuple(np.stack([loop_part(s) for _ in range(m)]) for s in ((2 * n,), (), ()))
    grad = gradflow._GRADIENT[type(loop)]
    assert grad_norm(grad(sy, loop), nt) > 1e-3

    exact = gradflow.second_variation(sy, loop, tangents)
    assert [np.shape(a) for a in exact] == [np.shape(a) for a in tangents]
    for j in range(m):
        moved = [type(loop)(*(p + s * eps * d[j] for p, d in zip(loop.parts, tangents)))
                 for s in (1, -1)]
        gp, gm = grad(sy, moved[0]), grad(sy, moved[1])
        for a, b, c in zip(exact, gp, gm):
            assert np.max(np.abs(a[j] - (b - c) / (2 * eps))) <= 1e-8


def test_stable_perturbation_rejects_empty_cone(sys1, orbit):
    with pytest.raises(ValueError):
        stable_perturbation(sys1, orbit, np.random.default_rng(0),
                            kmax=1, amplitude=1e-6, rate_min=50.0)


# -- serialization -----------------------------------------------------------------------


def test_loop_json_roundtrip(sys1, orbit, lifted):
    for loop in (orbit, lifted):
        text = loop_to_json(loop)
        again = loop_from_json(io.StringIO(text))
        assert np.array_equal(again.x, loop.x)
    buf = io.StringIO(loop_to_json(lifted))
    again = loop_from_json(buf)
    assert np.array_equal(again.zeta, lifted.zeta)


def test_diagnostics_csv_schema(sys1, lifted):
    start = stable_perturbation(sys1, lifted, np.random.default_rng(4),
                                kmax=1, amplitude=1e-5, rate_min=2.0)
    _, d = integrate(sys1, start, IntegrateControls(freq_cutoff=1))
    text = diagnostics_to_csv(d)
    lines = text.splitlines()
    assert lines[0] == ",".join(DIAG_COLUMNS)
    assert len(lines) == len(d.rows) + 1
    assert all(len(line.split(",")) == len(DIAG_COLUMNS) for line in lines[1:])


def test_fourier_project_idempotent_and_band_limited():
    rng = np.random.default_rng(11)
    arr = rng.standard_normal((64, 2))
    low = fourier_project(arr, 3)
    assert np.allclose(fourier_project(low, 3), low)
    spec = np.fft.rfft(low, axis=0)
    assert np.max(np.abs(spec[4:])) < 1e-12


# -- the parts rule ----------------------------------------------------------------
# The per-kind helpers the parts rule replaced, kept as reference oracles:
# the generic helpers must give the same floats, bit for bit.


def ref_grad_norm(g, nt):
    if len(g) == 2:
        gx, gtau = g
        return math.sqrt(float(np.sum(gx * gx)) / nt + gtau * gtau)
    gx, geta, gzeta = g
    return math.sqrt(
        (float(np.sum(gx * gx)) + float(np.sum(geta * geta)) + float(np.sum(gzeta * gzeta))) / nt
    )


def ref_g_inner(g1, g2, nt):
    if len(g1) == 2:
        return float(np.sum(g1[0] * g2[0])) / nt + g1[1] * g2[1]
    return (
        float(np.sum(g1[0] * g2[0]))
        + float(np.sum(g1[1] * g2[1]))
        + float(np.sum(g1[2] * g2[2]))
    ) / nt


def ref_project_gradient(g, kmax):
    if len(g) == 2:
        return (fourier_project(g[0], kmax), g[1])
    return tuple(fourier_project(a, kmax) for a in g)


def ref_apply_step(loop, g, ds):
    if isinstance(loop, RabinowitzLoop):
        return RabinowitzLoop(x=loop.x - ds * g[0], tau=loop.tau - ds * g[1])
    return ExtendedLoop(
        x=loop.x - ds * g[0], eta=loop.eta - ds * g[1], zeta=loop.zeta - ds * g[2]
    )


def ref_project_loop(loop, kmax):
    if isinstance(loop, RabinowitzLoop):
        return RabinowitzLoop(x=fourier_project(loop.x, kmax), tau=loop.tau)
    return ExtendedLoop(
        x=fourier_project(loop.x, kmax),
        eta=fourier_project(loop.eta, kmax),
        zeta=fourier_project(loop.zeta, kmax),
    )


def ref_parts(loop):
    if isinstance(loop, RabinowitzLoop):
        return (loop.x, loop.tau)
    return (loop.x, loop.eta, loop.zeta)


def ref_pack_dim(loop, kmax):
    nb = 2 * kmax + 1
    ncomp = loop.x.shape[1]
    if isinstance(loop, RabinowitzLoop):
        return ncomp * nb + 1
    return (ncomp + 2) * nb


def ref_unpack(loop, vec, basis):
    nb = basis.shape[1]
    ncomp = loop.x.shape[1]
    dx = basis @ vec[: ncomp * nb].reshape(ncomp, nb).T
    if isinstance(loop, RabinowitzLoop):
        return dx, float(vec[-1])
    deta = basis @ vec[ncomp * nb: (ncomp + 1) * nb]
    dzeta = basis @ vec[(ncomp + 1) * nb:]
    return dx, deta, dzeta


def ref_pack_gradient(loop, g, basis):
    nt = basis.shape[0]
    gx_coef = (basis.T @ g[0]) / nt
    if isinstance(loop, RabinowitzLoop):
        return np.concatenate([gx_coef.T.ravel(), [g[1]]])
    ge = basis.T @ g[1] / nt
    gz = basis.T @ g[2] / nt
    return np.concatenate([gx_coef.T.ravel(), ge, gz])


def ref_shift(loop, vec, basis, eps):
    d = ref_unpack(loop, eps * vec, basis)
    if isinstance(loop, RabinowitzLoop):
        return RabinowitzLoop(x=loop.x + d[0], tau=loop.tau + d[1])
    return ExtendedLoop(x=loop.x + d[0], eta=loop.eta + d[1], zeta=loop.zeta + d[2])


def same_bits(a, b):
    """Equal shapes, dtypes and bytes: tells -0.0 from 0.0 and compares NaNs."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_parts(p, q):
    return len(p) == len(q) and all(same_bits(a, b) for a, b in zip(p, q))


def random_parts(rng, kind, nt, ncomp, scale):
    """(x, tau) or (x, eta, zeta) drawn at ``scale``; tau is a Python float."""
    x = scale * rng.standard_normal((nt, ncomp))
    if kind == "rabinowitz":
        return (x, scale * float(rng.standard_normal()))
    return (x, scale * rng.standard_normal(nt), scale * rng.standard_normal(nt))


LOOPS = {"rabinowitz": RabinowitzLoop, "extended": ExtendedLoop}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(LOOPS)),
    n=st.integers(1, 3),
    nt=st.integers(8, 512),
    kmax=st.integers(1, 3),
    scale=st.sampled_from([1.0, 1e3, 1e-300, -0.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_parts_rule_matches_the_per_kind_helpers_bitwise(kind, n, nt, kmax, scale, seed):
    rng = np.random.default_rng(seed)
    loop = LOOPS[kind](*random_parts(rng, kind, nt, 2 * n, 1.0))
    g1 = random_parts(rng, kind, nt, 2 * n, scale)
    g2 = random_parts(rng, kind, nt, 2 * n, 1.0)
    assert same_parts(loop.parts, ref_parts(loop)) and loop.nt == nt

    assert same_bits(gradflow._g_inner(g1, g2, nt), ref_g_inner(g1, g2, nt))
    assert same_bits(gradflow._g_inner(g2, g1, nt), ref_g_inner(g2, g1, nt))
    assert same_bits(grad_norm(g1, nt), ref_grad_norm(g1, nt))
    assert same_bits(grad_norm(g2, nt), ref_grad_norm(g2, nt))

    ds = float(rng.uniform(1e-6, 5e-2))
    step = gradflow._apply_step(loop, g1, ds)
    assert type(step) is type(loop)
    assert same_parts(step.parts, ref_parts(ref_apply_step(loop, g1, ds)))

    assert same_parts(gradflow._project(g2, kmax), ref_project_gradient(g2, kmax))
    cut = type(loop)(*gradflow._project(loop.parts, kmax))
    assert same_parts(cut.parts, ref_parts(ref_project_loop(loop, kmax)))

    basis = gradflow._fourier_basis(nt, kmax)
    dim = gradflow._pack_dim(loop, kmax)
    assert dim == ref_pack_dim(loop, kmax)
    batch = tuple(np.asarray(a)[None] for a in g2)
    assert same_bits(gradflow._pack(batch, basis)[0], ref_pack_gradient(loop, g2, basis))
    vec = rng.standard_normal(dim)
    for eps in (1e-5, -1e-5, 3e-6):
        moved = gradflow._shift(loop, vec, basis, eps)
        assert same_parts(moved.parts, ref_parts(ref_shift(loop, vec, basis, eps)))


@pytest.mark.parametrize("flavor", ["extended", "rabinowitz"])
def test_one_gradient_norm_per_accepted_step(sys1, orbit, lifted, monkeypatch, flavor):
    # the descent computes each state's norm once and hands it to the recorder
    base, amplitude, rate_min = (lifted, 1e-5, 2.0) if flavor == "extended" else (orbit, 3e-6, 0.5)
    start = stable_perturbation(sys1, base, np.random.default_rng(12),
                                kmax=1, amplitude=amplitude, rate_min=rate_min)
    norms = []

    def counted(g, nt):
        norms.append(ref_grad_norm(g, nt))
        return norms[-1]

    monkeypatch.setattr(gradflow, "grad_norm", counted)
    for max_steps in (10**6, 7):
        norms.clear()
        _, d = integrate(sys1, start, IntegrateControls(freq_cutoff=1, max_steps=max_steps,
                                                        eps_stop=1e-6))
        assert len(d.rows) > 1 and d.rows[-1].step == len(d.rows) - 1
        assert len(norms) == len(d.rows)  # the start and each accepted step
        assert [r.grad_norm for r in d.rows] == norms
