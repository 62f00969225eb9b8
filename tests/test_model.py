import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfhlab.gradflow import circ_diff
from rfhlab.model import (
    ExtendedPoint,
    extended_flow,
    hamiltonian_data,
    make_model,
    model_from_json,
    model_to_json,
    orbit_loop,
    r_star_shift,
    radius,
    reeb_orbits,
)


@pytest.fixture(scope="module")
def sys1():
    return make_model(n=1)


def test_profile_normalization(sys1):
    p = sys1.profile
    assert float(p.h(1.0)) == 0.0
    assert float(p.hp(1.0)) == 1.0
    assert float(p.hpp(1.0)) == 1.0
    # exactly constant and positive beyond the plateau radius
    assert float(p.h(1.5)) == float(p.h(1.7)) == float(p.h(3.0))
    assert p.plateau_value() > 0
    assert float(p.hp(1.6)) == 0.0


def test_profile_c2_joints(sys1):
    # h, h', h'' are continuous across both joints: the two-sided values
    # differ only by the local slope times the window
    p = sys1.profile
    eps = 1e-6
    for r in (p.r0, p.r_plateau):
        for f in (p.h, p.hp, p.hpp):
            assert abs(float(f(r + eps)) - float(f(r - eps))) < 20 * eps


def test_geometry_constants(sys1):
    # lambda(X_H) = r h'(r) / 2 equals 1/2 on the unit sphere, and the
    # stored bound over the shell |H| <= 1/6 is (2/3) of that
    assert sys1.alpha0 == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert sys1.h_thr == pytest.approx(1.0 / 6.0, abs=1e-12)
    rr = np.linspace(0.0, 2.0, 2001)
    shell = np.abs(sys1.profile.h(rr)) <= sys1.h_thr
    lam_xh = 0.5 * rr * sys1.profile.hp(rr)
    assert np.min(lam_xh[shell]) >= sys1.alpha0 - 1e-12


def test_hamiltonian_data_on_level_and_frozen(sys1):
    p_on = ExtendedPoint(x=np.array([np.cos(0.4), np.sin(0.4)]), tau=2.0, sigma=1.0)
    h_tilde, (xdot, taudot, sigdot) = hamiltonian_data(sys1, p_on)
    assert abs(h_tilde) < 1e-14
    assert abs(sigdot) < 1e-14
    assert taudot == 0.0
    p_frozen = ExtendedPoint(x=np.array([1.2, 0.0]), tau=0.0, sigma=0.0)
    h_tilde, (xdot, taudot, sigdot) = hamiltonian_data(sys1, p_frozen)
    assert np.max(np.abs(xdot)) == 0.0
    assert sigdot == pytest.approx(float(sys1.hamiltonian(p_frozen.x)))


def integrate_flow_rk4(sys, x0, t_final: float, n_steps: int = 2000):
    """RK4 trajectory of x' = X_H(x): the oracle for the closed-form flow."""
    x = np.array(x0, dtype=float)
    h = t_final / n_steps
    traj = np.empty((n_steps + 1, x.size))
    traj[0] = x
    for k in range(n_steps):
        k1 = sys.x_h(x)
        k2 = sys.x_h(x + 0.5 * h * k1)
        k3 = sys.x_h(x + 0.5 * h * k2)
        k4 = sys.x_h(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        traj[k + 1] = x
    return traj


def test_flow_formula_matches_rk4(sys1):
    p = ExtendedPoint(x=np.array([0.9, 0.3]), tau=1.3, sigma=0.2)
    q = extended_flow(sys1, p, 2.0)
    traj = integrate_flow_rk4(sys1, p.x, p.tau * 2.0, 4000)
    assert np.max(np.abs(q.x - traj[-1])) < 1e-10
    assert q.sigma == pytest.approx(0.2 + 2.0 * float(sys1.hamiltonian(p.x)), abs=1e-14)
    assert q.tau == p.tau


def test_energy_drift_along_flow(sys1):
    traj = integrate_flow_rk4(sys1, np.array([1.1, 0.0]), 10.0, 20000)
    h = sys1.hamiltonian(traj)
    assert np.max(np.abs(h - h[0])) <= 1e-8 * 10.0


def test_reeb_orbit_classification(sys1):
    fam0 = reeb_orbits(sys1, 0.0)
    assert fam0.kind == "constants"
    assert fam0.dim_k == 1 and fam0.dim_extended == 2
    fam1 = reeb_orbits(sys1, 2 * np.pi)
    assert fam1.kind == "orbits" and fam1.multiplicity == 1
    assert fam1.period == pytest.approx(2 * np.pi)
    fam2 = reeb_orbits(sys1, -4 * np.pi)
    assert fam2.multiplicity == -2
    gap = reeb_orbits(sys1, 3.0)
    assert gap.is_empty


def test_orbit_action_quadrature_vs_enclosed_area(sys1):
    # closed form: the loop integral of lambda over the k-times-traversed
    # unit circle is k * pi
    fam = reeb_orbits(sys1, 2 * np.pi)
    for nt in (128, 256):
        t = np.arange(nt) / nt
        x = orbit_loop(sys1, fam, t)
        dx = (np.roll(x, -1, axis=0) - np.roll(x, 1, axis=0)) * (nt / 2.0)
        quad = float(np.mean(sys1.lam(x, dx)))
        assert abs(quad - np.pi) <= 30.0 / nt**2
    err_128 = abs(_orbit_quad(sys1, fam, 128) - np.pi)
    err_256 = abs(_orbit_quad(sys1, fam, 256) - np.pi)
    assert err_128 / err_256 == pytest.approx(4.0, rel=0.1)


def _orbit_quad(sys, fam, nt):
    t = np.arange(nt) / nt
    x = orbit_loop(sys, fam, t)
    dx = (np.roll(x, -1, axis=0) - np.roll(x, 1, axis=0)) * (nt / 2.0)
    return float(np.mean(sys.lam(x, dx)))


def test_orbit_solves_equation_and_is_fixed_by_flow(sys1):
    fam = reeb_orbits(sys1, 2 * np.pi)
    t = np.arange(400) / 400
    x = orbit_loop(sys1, fam, t, base=np.array([0.6, 0.8]))
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) < 1e-12
    dx = (np.roll(x, -1, axis=0) - np.roll(x, 1, axis=0)) * (400 / 2.0)
    resid = dx - fam.tau * sys1.x_h(x)
    assert np.max(np.abs(resid)) < 1e-2  # centered-difference truncation
    p = ExtendedPoint(x=x[0], tau=fam.tau, sigma=0.7)
    q = extended_flow(sys1, p, 1.0)
    assert np.max(np.abs(q.x - p.x)) < 1e-12
    assert q.sigma == pytest.approx(p.sigma)


def test_r_star_action_commutes_with_flow(sys1):
    p = ExtendedPoint(x=np.array([0.8, 0.1]), tau=1.7, sigma=0.3)
    xi = 2.5
    lhs = extended_flow(sys1, r_star_shift(p, xi), 0.9)
    rhs = r_star_shift(extended_flow(sys1, p, 0.9), xi)
    assert np.max(np.abs(lhs.x - rhs.x)) == 0.0
    assert lhs.sigma == rhs.sigma


def test_higher_dimensions():
    for n in (2, 3):
        sy = make_model(n=n)
        fam = reeb_orbits(sy, 2 * np.pi)
        assert fam.dim_k == 2 * n - 1
        assert fam.dim_extended == 2 * n
        assert fam.action == pytest.approx(np.pi)


def test_json_roundtrip(sys1):
    text = model_to_json(sys1)
    sy2 = model_from_json(io.StringIO(text))
    assert sy2.n == sys1.n
    assert sy2.h_thr == sys1.h_thr
    assert sy2.profile.r0 == sys1.profile.r0
    buf = io.StringIO(text)
    sy3 = model_from_json(buf)
    assert sy3.alpha0 == sys1.alpha0


def test_model_validation_errors():
    with pytest.raises(ValueError):
        make_model(n=4)
    with pytest.raises(ValueError):
        make_model(n=1, h_thr=0.4)  # above alpha_Sigma / 3
    with pytest.raises(ValueError):
        make_model(n=1, r0=0.9)  # plateau must start beyond the level


def test_acs_is_constant_minus_j():
    # the compatible structure is the constant -J on every model
    for n in (1, 2, 3):
        sy = make_model(n=n)
        assert np.array_equal(sy.acs(), -sy.jmat)


# -- the field kernels ------------------------------------------------------------
# The expressions the kernels replaced, kept as reference oracles: the
# kernels must give the same floats, bit for bit, and the same types.


def _ref_smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u * u)


def ref_h(p, r):
    r = np.asarray(r, dtype=float)
    delta = p.r_plateau - p.r0
    u = np.clip((r - p.r0) / delta, 0.0, 1.0)
    q1 = 2.5 * u**4 - 3.0 * u**5 + u**6
    q2 = 2.0 * u**5 - 2.5 * u**6 + (6.0 / 7.0) * u**7
    mid = 0.5 * (np.minimum(r, p.r_plateau) ** 2 - 1.0) - (delta * p.r0 * q1 + delta**2 * q2)
    return np.where(r <= p.r0, 0.5 * (r * r - 1.0), mid)


def ref_hp(p, r):
    r = np.asarray(r, dtype=float)
    u = np.clip((r - p.r0) / (p.r_plateau - p.r0), 0.0, 1.0)
    return r * (1.0 - _ref_smoothstep(u))


def ref_hpp(p, r):
    r = np.asarray(r, dtype=float)
    delta = p.r_plateau - p.r0
    u = np.clip((r - p.r0) / delta, 0.0, 1.0)
    qp = 30.0 * u**2 * (1.0 - u) ** 2 / delta
    qp = np.where((r <= p.r0) | (r >= p.r_plateau), 0.0, qp)
    return (1.0 - _ref_smoothstep(u)) - r * qp


def ref_hamiltonian(sy, x):
    return ref_h(sy.profile, np.linalg.norm(x, axis=-1))


def ref_grad_hamiltonian(sy, x):
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    fac = np.where(r > 1e-12, ref_hp(sy.profile, r) / np.maximum(r, 1e-12), 1.0)
    return fac * x


def ref_circ_diff(arr, nt=None):
    n = arr.shape[0] if nt is None else nt
    return (np.roll(arr, -1, axis=0) - np.roll(arr, 1, axis=0)) * (n / 2.0)


def same_bits(a, b):
    """Same type, shape, dtype and bytes: tells -0.0 from 0.0 and compares NaNs."""
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).dtype == np.asarray(b).dtype
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


R0, R_PLATEAU = 1.2, 1.5
SPECIAL_RADII = [0.0, R0, np.nextafter(R0, 0.0), np.nextafter(R0, 2.0), R_PLATEAU,
                 np.nextafter(R_PLATEAU, 0.0), np.nextafter(R_PLATEAU, 2.0), 1.0, 2.0]
RADII = st.one_of(st.sampled_from(SPECIAL_RADII), st.floats(0.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3),
    radii=st.lists(RADII, min_size=3, max_size=300),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, radii=SPECIAL_RADII, seed=0)
@example(n=3, radii=[0.0, 0.0, 0.0], seed=1)
def test_field_kernels_match_the_replaced_expressions_bitwise(n, radii, seed):
    sy = make_model(n=n)
    p = sy.profile
    r = np.array(radii)
    with np.errstate(invalid="ignore"):  # NaN and inf radii take the cap's branch, as before
        for scalar in (np.nan, np.inf):
            assert same_bits(p.hpp(scalar), ref_hpp(p, scalar))
            assert same_bits(p.hpp(np.append(r, scalar)), ref_hpp(p, np.append(r, scalar)))
            assert same_bits(p.h(np.append(r, scalar)), ref_h(p, np.append(r, scalar)))
            assert same_bits(p.hp(np.append(r, scalar)), ref_hp(p, np.append(r, scalar)))
    for shaped in (r, r[:, None], r[: len(r) // 3 * 3].reshape(-1, 3)):
        assert same_bits(p.h(shaped), ref_h(p, shaped))
        assert same_bits(p.hp(shaped), ref_hp(p, shaped))
        assert same_bits(p.hpp(shaped), ref_hpp(p, shaped))
    for scalar in (radii[0], np.float64(radii[-1]), np.array(radii[1])):
        assert same_bits(p.h(scalar), ref_h(p, scalar))
        assert same_bits(p.hp(scalar), ref_hp(p, scalar))
        assert same_bits(p.hpp(scalar), ref_hpp(p, scalar))

    # loops of N_t = len(radii) samples whose radii are near the drawn ones
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((len(r), 2 * n))
    x = direction / np.linalg.norm(direction, axis=1, keepdims=True) * r[:, None]
    x[rng.random(len(r)) < 0.1] = 0.0
    assert same_bits(radius(x), np.linalg.norm(x, axis=-1))
    assert same_bits(radius(x[0]), np.linalg.norm(x[0], axis=-1))
    assert same_bits(sy.hamiltonian(x), ref_hamiltonian(sy, x))
    assert same_bits(sy.hamiltonian(x[1]), ref_hamiltonian(sy, x[1]))
    assert same_bits(sy.grad_hamiltonian(x), ref_grad_hamiltonian(sy, x))
    assert same_bits(sy.x_h(x), ref_grad_hamiltonian(sy, x) @ sy.jmat.T)
    assert same_bits(sy.x_h(x[2]), ref_grad_hamiltonian(sy, x[2]) @ sy.jmat.T)
    for arr in (x, x[:, 0], rng.standard_normal((len(r), 2, 3))):
        assert same_bits(circ_diff(arr), ref_circ_diff(arr))
        assert same_bits(circ_diff(arr, 7), ref_circ_diff(arr, 7))
