import io

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from rfhlab.grading import model_lambda_path
from rfhlab.model import make_model
from rfhlab.rsindex import (
    END_TOL,
    HalfInteger,
    ResolutionError,
    SymplecticPath,
    _darboux_frame,
    _constant,
    _phases,
    block_diag,
    conjugate_path,
    load_path_csv,
    path_from_generator,
    perturbed_path,
    rotation_path,
    rs_index,
    rs_index_detailed,
    rs_index_segment,
    save_path_csv,
    theta_form,
    theta_path,
)
from rfhlab.symlin import random_symmetric, standard_jmat, symplectic_defect
from symplectic_helpers import random_symplectic


def test_half_integer_arithmetic():
    a = HalfInteger(3)  # 3/2
    b = HalfInteger.whole(2)
    assert str(a) == "3/2"
    assert str(b) == "2"
    assert (a + a).as_integer() == 3
    assert (b - a).twice_value == 1
    assert float(-a) == -1.5
    assert not a.is_integer
    with pytest.raises(ValueError):
        a.as_integer()


def test_constant_identity_path_is_zero():
    # Gamma' = 0, so every crossing form vanishes on the whole interval
    ts = np.linspace(0.0, 1.0, 65)
    p = SymplecticPath(ts, np.array([np.eye(2)] * 65), evaluator=lambda t: np.eye(2))
    assert rs_index(p).twice_value == 0


def test_full_rotation_is_two():
    # crossings at t = 0 and t = 1 only, each with kernel all of R^2 and
    # crossing form (the generator) 2*pi*I positive definite: 1 + 1 = 2
    value, crossings = rs_index_detailed(rotation_path(1, 2 * np.pi))
    assert value.twice_value == 4
    assert sorted(round(c.time, 9) for c in crossings) == [0.0, 1.0]
    assert all(c.sig == 2 for c in crossings)


def test_rotation_family_indices():
    # interior crossings at angle multiples of 2*pi contribute full
    # signature 2; endpoints contribute half
    assert rs_index(rotation_path(1, 4 * np.pi)).twice_value == 8
    assert rs_index(rotation_path(1, np.pi)).twice_value == 2
    assert rs_index(rotation_path(1, -2 * np.pi)).twice_value == -4
    assert rs_index(rotation_path(2, 2 * np.pi)).twice_value == 8


def test_rotation_index_is_integer():
    v = rs_index(rotation_path(1, 4 * np.pi))
    assert v.is_integer and v.as_integer() == 4


def test_theta_matrix_at_endpoints():
    p = theta_path(1.0, 1.0, 1.0)
    assert np.allclose(p.at(0.0), np.eye(4))
    expected = np.array(
        [[1, 1, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]], dtype=float
    )
    assert np.allclose(p.at(1.0), expected)


def test_theta_samples_symplectic_for_split_form():
    p = theta_path(-2.0, 0.5, -1.0)
    form = theta_form()
    for t in (0.0, 0.3, 0.77, 1.0):
        assert symplectic_defect(p.at(t), form) < 1e-14


def test_theta_index_zero_on_grid():
    for tau in (-2.0, 1.0, 5.0):
        for hp in (0.5, 1.0, 2.0):
            for hpp in (-1.0, 1.0):
                assert rs_index(theta_path(tau, hp, hpp)).twice_value == 0


def test_theta_rejects_bad_profile_data():
    with pytest.raises(ValueError):
        theta_path(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        theta_path(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        theta_path(1.0, 1.0, 0.0)


def test_perturbed_path_zero_delta_reproduces():
    base = theta_path(1.0, 1.0, 1.0)
    again = perturbed_path(base, 0.0, n_steps=1024)
    for t in (0.25, 0.5, 1.0):
        assert np.max(np.abs(again.at(t) - base.at(t))) < 1e-9


def test_perturbed_theta_shift_is_minus_sign_delta():
    # the endpoint kernel has dimension 2, so the shift is -sgn(delta)
    base = theta_path(2 * np.pi, 1.0, 1.0)
    assert rs_index(base).twice_value == 0
    assert rs_index(perturbed_path(base, 1e-3)).twice_value == -2
    assert rs_index(perturbed_path(base, -1e-3)).twice_value == 2


def test_perturbed_block_shift_is_sum_of_block_shifts():
    rot = rotation_path(1, 2 * np.pi)
    theta = theta_path(2 * np.pi, 1.0, 1.0)
    joint = block_diag(rot, theta)
    base = rs_index(joint)
    for delta in (1e-3, -1e-3):
        shift_joint = (rs_index(perturbed_path(joint, delta)) - base).twice_value
        shift_rot = (rs_index(perturbed_path(rot, delta)) - rs_index(rot)).twice_value
        shift_theta = (rs_index(perturbed_path(theta, delta)) - rs_index(theta)).twice_value
        assert shift_joint == shift_rot + shift_theta


def test_perturbed_path_requires_generator():
    ts = np.linspace(0.0, 1.0, 33)
    p = SymplecticPath(ts, np.array([np.eye(2)] * 33))
    from rfhlab.rsindex import MissingGeneratorError

    with pytest.raises(MissingGeneratorError):
        perturbed_path(p, 1e-3)


def test_block_diag_examples():
    ident = SymplecticPath(
        np.linspace(0, 1, 65), np.array([np.eye(2)] * 65), evaluator=lambda t: np.eye(2)
    )
    assert rs_index(block_diag(ident, ident)).twice_value == 0
    # contact block + unipotent block: the unipotent part contributes zero
    joint = block_diag(rotation_path(1, 2 * np.pi), theta_path(2 * np.pi, 1.0, 1.0))
    assert rs_index(joint).twice_value == rs_index(rotation_path(1, 2 * np.pi)).twice_value
    both = block_diag(rotation_path(1, 2 * np.pi), rotation_path(1, 2 * np.pi))
    assert rs_index(both).twice_value == 8


def test_block_additivity_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        angle = float(rng.uniform(-3 * np.pi, 3 * np.pi))
        p1 = rotation_path(1, angle, n_samples=385)
        a = random_symmetric(2, rng, 1.0)
        b = random_symmetric(2, rng, 1.0)
        p2 = path_from_generator(lambda t: a + np.sin(2 * np.pi * t)[:, None, None] * b, 2, n_steps=384)
        assert rs_index(block_diag(p1, p2)) == rs_index(p1) + rs_index(p2)


def test_catenation_over_segments():
    # restriction additivity: the two segment indices, each with its end
    # corrections, sum to the full index at every split time
    rng = np.random.default_rng(8)
    for _ in range(10):
        a_mat = random_symmetric(2, rng, 2.0)
        b_mat = random_symmetric(2, rng, 1.0)
        p = path_from_generator(
            lambda t: a_mat + np.sin(2 * np.pi * t + 0.3)[:, None, None] * b_mat, 2, n_steps=768
        )
        assert rs_index_segment(p, 0.0, 0.5) + rs_index_segment(p, 0.5, 1.0) == rs_index(p)


def test_conjugation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = random_symmetric(2, rng, 1.5)
        b = random_symmetric(2, rng, 1.0)
        p = path_from_generator(lambda t: a + np.cos(2 * np.pi * t)[:, None, None] * b, 2, n_steps=768)
        psi = random_symplectic(1, rng, 0.6)
        assert rs_index(conjugate_path(p, psi)) == rs_index(p)


def test_csv_roundtrip():
    p = rotation_path(1, 2 * np.pi, n_samples=257)
    buf = io.StringIO()
    save_path_csv(p, buf)
    buf.seek(0)
    q = load_path_csv(buf)
    assert np.max(np.abs(q.mats - p.mats)) < 1e-15
    assert rs_index(q).twice_value == 4


def test_csv_roundtrip_nonstandard_form():
    p = theta_path(1.5, 1.0, -1.0)
    buf = io.StringIO()
    save_path_csv(p, buf)
    buf.seek(0)
    q = load_path_csv(buf, form=theta_form())
    assert rs_index(q).twice_value == 0


def test_csv_writes_each_entry_as_format_17g():
    p = rotation_path(1, 1.0, n_samples=3)
    p.mats[1].flat[:] = [np.nan, np.inf, -np.inf, -0.0]
    p.mats[2].flat[:] = [5e-324, 1 / 3, -2.5e-310, 0.1]
    buf = io.StringIO()
    save_path_csv(p, buf)
    rows = [",".join(format(x, ".17g") for x in [t, *m.ravel()]) for t, m in zip(p.ts, p.mats)]
    assert buf.getvalue() == "\n".join(["t,m00,m01,m10,m11", *rows]) + "\n"
    r = rotation_path(3, 7.3, n_samples=2049)
    q = _csv_copy(r)
    assert q.ts.tobytes() == r.ts.tobytes() and q.mats.tobytes() == r.mats.tobytes()


def _touching_rotation(n_steps=1024):
    # angle 8*pi*t*(1-t) touches 2*pi at t = 1/2 with zero speed: the
    # interior crossing there has a full 2-dim kernel and an identically
    # vanishing crossing form
    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])

    def theta(t):
        return 8 * np.pi * t * (1 - t)

    def gen(t):
        return 8 * np.pi * (1 - 2 * t)[:, None, None] * np.eye(2)

    def ev(t):
        return np.cos(theta(t)) * np.eye(2) + np.sin(theta(t)) * jmat

    ts = np.linspace(0, 1, n_steps + 1)
    return SymplecticPath(ts, np.array([ev(t) for t in ts]), generator=gen, evaluator=ev)


def _contributions(crossings):
    return sum((c.contribution for c in crossings), HalfInteger(0))


def test_touching_path_lists_a_touch_of_signature_zero_and_perturbation_resolves():
    p = _touching_rotation()
    # the touch leaves the winding unmoved: the angle returns to 0, so the
    # path is homotopic to the identity path with fixed endpoints.  Both
    # eigenphases of W touch 0 from below at the sample t = 1/2
    assert rs_index(p).twice_value == 0
    value, crossings = rs_index_detailed(p)
    assert value.twice_value == 0 and _contributions(crossings) == value
    assert [(c.kind, c.sig, c.kernel_dim) for c in crossings] == [
        ("start", 2, 2), ("interior", 0, 2), ("end", -2, 2)]
    assert crossings[1].time == 0.5
    # shifting the generator by -delta*I resolves the touch.  For
    # delta > 0 the perturbed angle 8 pi t (1-t) - delta t never reaches
    # 2 pi but re-crosses zero just before t = 1 with negative speed
    # (signature -2), so the total is 1/2 (+2) - 2 = -1.  For delta < 0
    # the angle crosses 2 pi twice with opposite speeds (net zero), and
    # stays positive at t = 1, leaving 1/2 (+2) = +1.
    assert rs_index(perturbed_path(p, 1e-3)).twice_value == -2
    assert rs_index(perturbed_path(p, -1e-3)).twice_value == 2


def _shear_path():
    def gen(t):
        return -2 * np.pi * np.cos(2 * np.pi * t)[:, None, None] * np.array([[0.0, 0.0], [0.0, 1.0]])

    def ev(t):
        return np.array([[1.0, np.sin(2 * np.pi * t)], [0.0, 1.0]])

    ts = np.linspace(0, 1, 1025)
    return SymplecticPath(ts, np.array([ev(t) for t in ts]), generator=gen, evaluator=ev)


def test_unipotent_background_path_is_regular():
    # the shear [[1, sin(2 pi t)], [0, 1]] stays singular for all t; the
    # kernel jump at t = 1/2 is a regular crossing relative to that
    # background, and the total is zero: endpoint forms have signature -1
    # each and the embedded crossing contributes +2 x (1/2 x 2 = +1)
    value, crossings = rs_index_detailed(_shear_path())
    assert value.twice_value == 0
    kinds = sorted((c.kind, c.sig) for c in crossings)
    assert kinds == [("end", -1), ("interior", 1), ("start", -1)]


def test_near_touch_lists_no_interior_crossing():
    # the closest approach to the identity, ~1e-7, leaves every eigenphase
    # of W outside END_TOL
    gap = 1e-7
    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])

    def theta_of(t):
        return (2 * np.pi - gap) * np.sin(np.pi * t)

    def ev(t):
        th = theta_of(t)
        return np.cos(th) * np.eye(2) + np.sin(th) * jmat

    ts = np.linspace(0, 1, 513)
    p = SymplecticPath(ts, np.array([ev(t) for t in ts]), evaluator=ev)
    # the angle returns to 0, so the index is that of the identity path
    assert rs_index(p).twice_value == 0
    value, crossings = rs_index_detailed(p)
    assert value.twice_value == 0 and _contributions(crossings) == value
    assert [(c.kind, c.sig) for c in crossings] == [("start", 2), ("end", -2)]


def test_path_validation():
    ts = np.linspace(0, 1, 17)
    with pytest.raises(ValueError):  # does not start at the identity
        SymplecticPath(ts, np.array([2 * np.eye(2)] * 17))
    with pytest.raises(ValueError):  # not symplectic
        mats = np.array([np.eye(2) * (1 + t) for t in ts])
        SymplecticPath(ts, mats)


TWO_PI = 2 * np.pi


def _rotation_index(m, angle):
    """Closed form of rs_index(rotation_path(m, angle)) when angle is not a
    multiple of 2 pi: the start contributes m, each full turn 2m."""
    return int(np.sign(angle)) * m * (1 + 2 * int(abs(angle) // TWO_PI))


def _csv_copy(path, form=None):
    buf = io.StringIO()
    save_path_csv(path, buf)
    buf.seek(0)
    return load_path_csv(buf, form=form)


def _late_rotation():
    # the identity up to t = 0.3, then the angle 20 (t - 0.3)^2: a plateau
    # that ends inside the path, whose eigenphases leave 0 upwards there
    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])

    def ev(t):
        theta = 20 * max(0.0, t - 0.3) ** 2
        return np.cos(theta) * np.eye(2) + np.sin(theta) * jmat

    ts = np.linspace(0, 1, 513)
    return SymplecticPath(ts, np.array([ev(t) for t in ts]),
                          generator=lambda t: 40 * np.maximum(0.0, t - 0.3)[:, None, None] * np.eye(2),
                          evaluator=ev)


CROSSING_PANEL = {
    # name: (path, twice the index, [(kind, signature, time)])
    "rotation-14": (
        lambda: rotation_path(1, -14.0), -10,
        [("start", -2, 0.0), ("interior", -2, TWO_PI / 14), ("interior", -2, 2 * TWO_PI / 14)],
    ),
    "rotation2x5": (lambda: rotation_path(2, 5.0), 4, [("start", 4, 0.0)]),
    "csv-rotation2x-9": (
        lambda: _csv_copy(rotation_path(2, -9.0, 2049)), -12,
        [("start", -4, 0.0), ("interior", -4, TWO_PI / 9)],
    ),
    "shear": (_shear_path, 0, [("start", -1, 0.0), ("interior", 1, 0.5), ("end", -1, 1.0)]),
    "theta": (lambda: theta_path(TWO_PI, 1.0, 1.0), 0, [("start", 0, 0.0), ("end", 0, 1.0)]),
    "theta+1e-3": (
        lambda: perturbed_path(theta_path(TWO_PI, 1.0, 1.0), 1e-3), -2, [("start", -2, 0.0)],
    ),
    "theta-1e-3": (
        lambda: perturbed_path(theta_path(TWO_PI, 1.0, 1.0), -1e-3), 2, [("start", 2, 0.0)],
    ),
    # the plateau exit is listed where the eigenphases 20 (t - 0.3)^2 pass
    # END_TOL, 7e-6 after t = 0.3 (the panel test allows 1e-4 there)
    "late-rotation": (
        _late_rotation, 6,
        [("start", 0, 0.0), ("plateau", 2, 0.3), ("interior", 2, 0.3 + np.sqrt(np.pi / 10))],
    ),
    "rotation-join": (
        lambda: block_diag(rotation_path(1, 6.5, 385), rotation_path(1, 6.55, 385)), 12,
        [("start", 4, 0.0), ("interior", 2, TWO_PI / 6.55), ("interior", 2, TWO_PI / 6.5)],
    ),
}


@pytest.mark.parametrize("name", sorted(CROSSING_PANEL))
def test_crossing_panel(name):
    build, twice, expected = CROSSING_PANEL[name]
    value, crossings = rs_index_detailed(build())
    assert value.twice_value == twice
    assert [(c.kind, c.sig) for c in crossings] == [(kind, sig) for kind, sig, _ in expected]
    times = np.array([c.time for c in crossings])
    tols = [1e-4 if kind == "plateau" else 1e-8 for kind, _, _ in expected]
    assert np.all(np.abs(times - [t for _, _, t in expected]) <= tols)


@pytest.mark.parametrize("a1, a2", [(6.53, 6.56), (-8.15, -8.13)])
def test_close_crossings_of_two_blocks_are_both_found(a1, a2):
    # the two crossings lie within two sample intervals
    joint = block_diag(rotation_path(1, a1, 385), rotation_path(1, a2, 385))
    assert rs_index(joint).twice_value == 2 * (_rotation_index(1, a1) + _rotation_index(1, a2))


@pytest.mark.parametrize("gap", [5e-8, -5e-8])
def test_turns_ending_next_to_the_identity(gap):
    # Gamma(1) is 5e-8 from the identity, so the end is no crossing; one
    # turn and a little more crosses 8e-9 before the end, which counts
    angle = 2 * np.pi + gap
    assert rs_index(rotation_path(1, angle)).twice_value == 2 * _rotation_index(1, angle)


def _check_rotation_index(path, m, angle):
    try:
        value = rs_index(path)
    except ResolutionError:
        return
    assert value.twice_value == 2 * _rotation_index(m, angle)


rotations = given(
    m=st.sampled_from([1, 2, 3]),
    size=st.floats(1e-3, 3 * TWO_PI),
    negative=st.booleans(),
)


def _angle(size, negative):
    # an angle next to a multiple of 2 pi puts a crossing at the end of the path
    assume(abs(size - TWO_PI * round(size / TWO_PI)) > 1e-6)
    return -size if negative else size


@settings(max_examples=80, deadline=None)
@example(m=1, size=1.5294913529348413, negative=False)  # LAPACK stalled on W(1)
@rotations
def test_rotation_index_closed_form(m, size, negative):
    angle = _angle(size, negative)
    _check_rotation_index(rotation_path(m, angle), m, angle)


@settings(max_examples=20, deadline=None)
@rotations
def test_rotation_index_closed_form_through_csv(m, size, negative):
    angle = _angle(size, negative)
    _check_rotation_index(_csv_copy(rotation_path(m, angle, 2049)), m, angle)


@pytest.mark.parametrize("angle", [1e-8, 1e-7, 1e-6, -1e-6, 4e-6])
def test_slow_rotation_index_is_its_sign(angle):
    path = rotation_path(1, angle)
    assert rs_index(path) == HalfInteger.whole(int(np.sign(angle)))
    value, crossings = rs_index_detailed(path)
    assert value == rs_index(path) == _contributions(crossings)


# -- the propagator engine of path_from_generator ------------------------------------


def _rk4_rotation_error(angle, n_steps):
    # RK4 turns each step of a rotation by ah - (ah)^5/120 + ..., so after
    # n steps the phase is off by |a| (|a| h)^4 / 120
    return abs(angle) * (abs(angle) / n_steps) ** 4 / 120


@pytest.mark.parametrize("m, angle", [(1, 4.0), (2, -9.0), (3, 2 * np.pi)])
def test_constant_generator_matches_rotation_samples(m, angle):
    n = 512
    p = path_from_generator(_constant(angle * np.eye(2 * m)), 2 * m, n_steps=n)
    q = rotation_path(m, angle, n_samples=n + 1)
    assert np.array_equal(p.ts, q.ts)
    assert np.max(np.abs(p.mats - q.mats)) <= 1.5 * _rk4_rotation_error(angle, n) + 1e-13


def ref_path_from_generator(gen, dim, n_steps):
    """The samples of the sequential build: one generator call per time,
    through ``t[None]``, the same RK4 propagators, and Gamma_{k+1} = P_k
    Gamma_k one product at a time."""
    form, h = standard_jmat(dim // 2), 1.0 / n_steps
    fields = np.array([form @ gen(t[None])[0] for t in np.linspace(0.0, 1.0, 2 * n_steps + 1)])
    start, mid, end = fields[:-1:2], fields[1::2], fields[2::2]
    k2 = mid + (0.5 * h) * (mid @ start)
    k3 = mid + (0.5 * h) * (mid @ k2)
    steps = np.eye(dim) + (h / 6.0) * (start + 2 * k2 + 2 * k3 + end + h * (end @ k3))
    mats = [np.eye(dim)]
    for step in steps:
        mats.append(step @ mats[-1])
    return np.array(mats), fields[::2]


def _index_or_none(path):
    try:
        return rs_index(path)
    except ResolutionError:
        return None


@settings(max_examples=40, deadline=None)
@example(m=1, n_steps=1, seed=0)
@example(m=3, n_steps=2048, seed=1)
@given(m=st.sampled_from([1, 2, 3]), n_steps=st.sampled_from([1, 2, 3, 5, 383, 384, 1000, 2048]),
       seed=st.integers(0, 2**32 - 1))
def test_prefix_product_build_matches_the_sequential_build(m, n_steps, seed):
    rng = np.random.default_rng(seed)
    a, b = random_symmetric(2 * m, rng, 1.0), random_symmetric(2 * m, rng, 1.0)
    phase = float(rng.uniform(0, TWO_PI))

    def gen(t):
        return a + np.sin(TWO_PI * t + phase)[:, None, None] * b

    ref_mats, ref_fields = ref_path_from_generator(gen, 2 * m, n_steps)
    # no symplecticity bound: a coarse build is compared too
    path = path_from_generator(gen, 2 * m, n_steps=n_steps, tol=np.inf)
    assert np.max(np.abs(path.mats - ref_mats)) <= 1e-11 * max(1.0, np.max(np.abs(ref_mats)))
    assert np.max(np.abs(path.fields - ref_fields)) <= 1e-13 * max(1.0, np.max(np.abs(ref_fields)))
    ref = SymplecticPath(path.ts, ref_mats, tol=np.inf)
    ref.generator, ref._fields = gen, ref_fields
    got, want = _index_or_none(path), _index_or_none(ref)
    if got is not None and want is not None:
        assert got == want


def _quadratic_turn(t):
    # the angle 3 t^2 has the time-dependent generator S(t) = 6 t I
    th = 3.0 * t * t
    return np.cos(th) * np.eye(2) + np.sin(th) * np.array([[0.0, -1.0], [1.0, 0.0]])


def test_time_dependent_generator_converges_at_fourth_order():
    errors = []
    for n in (256, 512):
        p = path_from_generator(lambda t: 6.0 * t[:, None, None] * np.eye(2), 2, n_steps=n)
        errors.append(max(np.max(np.abs(p.mats[k] - _quadratic_turn(t))) for k, t in enumerate(p.ts)))
    assert errors[1] < 1e-9
    assert 12 < errors[0] / errors[1] < 20


def test_generator_is_called_once_per_step_and_midpoint_with_floats():
    # one call, with the float array of the 2n + 1 step and midpoint times
    calls = []

    def gen(t):
        calls.append(t)
        return 2.0 * t[:, None, None] * np.eye(2)

    n = 64
    p = path_from_generator(gen, 2, n_steps=n)
    assert len(calls) == 1
    assert calls[0].dtype == np.float64
    assert calls[0].tolist() == np.linspace(0.0, 1.0, 2 * n + 1).tolist()
    p.at(0.3)  # off-sample values come from the kept stack
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [lambda t: np.eye(2), lambda t: np.zeros((len(t), 4, 4)),
                                 lambda t: np.zeros((len(t) - 1, 2, 2))],
                         ids=["one-matrix", "wrong-dim", "wrong-count"])
def test_generator_of_the_wrong_shape_is_rejected(bad):
    with pytest.raises(ValueError, match="shape"):
        path_from_generator(bad, 2, n_steps=8)


def rotation_closed_form(m, angle):
    """t -> exp(t angle J_m), as rotation_path computes its samples."""
    jmat, eye = standard_jmat(m), np.eye(2 * m)
    return lambda t: np.cos(angle * t) * eye + np.sin(angle * t) * jmat


def theta_closed_form(tau, hp, hpp):
    """t -> I + t N, with theta_path's N."""
    nmat = np.zeros((4, 4))
    nmat[0, 1], nmat[0, 2], nmat[3, 1] = tau * hpp, hp, hp
    return lambda t: np.eye(4) + t * nmat


def test_hermite_dense_output_is_fourth_order():
    angle = 5.0
    exact = rotation_closed_form(1, angle)
    errors = []
    for n in (256, 512):
        p = path_from_generator(_constant(angle * np.eye(2)), 2, n_steps=n)
        offgrid = (np.arange(n) + 0.37) / n
        errors.append(max(np.max(np.abs(p.at(t) - exact(t))) for t in offgrid))
    assert errors[1] < 1e-9
    assert 12 < errors[0] / errors[1] < 20


def test_generator_path_without_stack_computes_it_once():
    n = 256
    ref = rotation_path(1, 3.0, n_samples=n + 1)
    calls = []

    def gen(t):
        calls.append(t)
        return _constant(3.0 * np.eye(2))(t)

    p = SymplecticPath(ref.ts, ref.mats, generator=gen)
    # the constructor's spot check evaluates the middle sample time alone
    assert [c.tolist() for c in calls] == [[ref.ts[n // 2]]]
    assert np.array_equal(p.at(float(ref.ts[7])), ref.mats[7])
    assert len(calls) == 1
    for t in (0.1234, 0.5678):
        assert np.max(np.abs(p.at(t) - rotation_closed_form(1, 3.0)(t))) < 1e-10
    # the stack of every sample time, from one call
    assert len(calls) == 2 and np.array_equal(calls[1], ref.ts)


def _stack_bits(path):
    return np.ascontiguousarray(path.fields).tobytes()


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([1, 2, 3]), angle=st.floats(-20.0, 20.0), tau=st.floats(-10.0, 10.0),
       hp=st.floats(0.1, 5.0), hpp=st.sampled_from([-2.0, 0.5, 3.0]), n=st.integers(257, 700))
def test_constructor_stacks_equal_the_generator_stack_bitwise(m, angle, tau, hp, hpp, n):
    # every path's J S stack is form @ generator(ts): the one that
    # path_from_generator keeps from its integration too
    theta = theta_path(tau, hp, hpp, n_samples=n)
    rot = rotation_path(m, angle, n_samples=n)
    other = rotation_path(1, angle + 1.0, n_samples=n)
    gen = path_from_generator(lambda t: (1.0 + t)[:, None, None] * np.diag([1.0, 2.0]), 2, n_steps=n - 1)
    for path in (theta, rot, block_diag(rot, theta), block_diag(theta, rot),
                 block_diag(other, rot), block_diag(gen, other), block_diag(block_diag(rot, gen), theta)):
        assert _stack_bits(path) == (path.form @ path.generator(path.ts)).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_model_lambda_path_index_makes_no_per_sample_generator_call(n):
    sy = make_model(n=n)
    for k in (-2, -1, 1, 2):
        path = model_lambda_path(sy, k)
        calls = []
        gen = path.generator

        def counted(t, gen=gen):
            calls.extend(t.tolist())
            return gen(t)

        path.generator = counted
        assert rs_index(path).twice_value == 4 * k * (n - 1)
        # the times at which the generator is evaluated, over all its calls
        assert len(calls) < 10 < path.n_samples


def test_darboux_frame_is_built_once_per_form(monkeypatch):
    from rfhlab import rsindex

    built = []

    def spy(form):
        built.append(form.shape)
        return _darboux_frame(form)

    monkeypatch.setattr(rsindex, "_darboux_frame", spy)
    rsindex._frames.cache_clear()
    theta = theta_path(TWO_PI, 1.0, 1.0)
    below, above = perturbed_path(theta, 1e-3), perturbed_path(theta, -1e-3)
    assert [rs_index(p).twice_value for p in (below, above, below)] == [-2, 2, -2]
    assert built == [(4, 4)]
    frame, inverse = rsindex._frames(theta.form.tobytes(), theta.form.shape)
    assert not frame.flags.writeable and not inverse.flags.writeable


def test_perturbed_path_builds_through_the_module_global(monkeypatch):
    from rfhlab import rsindex

    seen = []
    build = rsindex.path_from_generator

    def spy(gen, *args, **kwargs):
        seen.append(kwargs.get("n_steps"))
        return build(gen, *args, **kwargs)

    monkeypatch.setattr(rsindex, "path_from_generator", spy)
    p = perturbed_path(theta_path(1.0, 1.0, 1.0), 1e-3)
    assert seen == [2048] and p.n_samples == 2049


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([1, 2, 3]), angle=st.floats(-20.0, 20.0), n=st.integers(257, 1100))
def test_rotation_samples_equal_the_evaluator_bitwise(m, angle, n):
    p, exact = rotation_path(m, angle, n_samples=n), rotation_closed_form(m, angle)
    assert p.mats.tobytes() == np.array([exact(t) for t in p.ts]).tobytes()


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(-10.0, 10.0), hp=st.floats(0.1, 5.0), hpp=st.floats(0.1, 5.0),
       sign=st.sampled_from([-1.0, 1.0]), n=st.integers(3, 400))
def test_theta_samples_equal_the_evaluator_bitwise(tau, hp, hpp, sign, n):
    p, exact = theta_path(tau, hp, sign * hpp, n_samples=n), theta_closed_form(tau, hp, sign * hpp)
    assert p.mats.tobytes() == np.array([exact(t) for t in p.ts]).tobytes()


# -- properties of the index through the propagator constructor, against the
# closed forms of rotation_path and theta_path -------------------------------------


closed_forms = st.one_of(
    st.tuples(st.just("rotation"), st.sampled_from([1, 2]), st.floats(0.05, 3 * TWO_PI),
              st.booleans()),
    st.tuples(st.just("theta"), st.floats(-6.0, 6.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
              st.booleans()),
)


def _closed_form(block, build):
    """A rotation or theta block as ``build`` makes it, and twice its closed-form index.

    ``build`` is "closed" for the constructors themselves, else the number
    of steps with which path_from_generator integrates their generator.
    """
    if block[0] == "rotation":
        _, m, size, negative = block
        assume(abs(size - TWO_PI * round(size / TWO_PI)) > 1e-3)
        angle = -size if negative else size
        path = rotation_path(m, angle)
        twice = 2 * _rotation_index(m, angle)
    else:
        _, tau, hp, hpp, negative = block
        path = theta_path(tau, hp, -hpp if negative else hpp)
        twice = 0
    if build != "closed":
        path = path_from_generator(path.generator, path.dim, form=path.form, n_steps=build)
    return path, twice


@settings(max_examples=20, deadline=None)
@example(blocks=[("turns", 1, 1), ("turns", 1, 2)], sign=-1)  # both crossings in the end interval
# a crossing 1.1 samples before an end where the other block returns to I
@example(blocks=[("turns", 1, -2), ("rotation", 1, 6.296875, False)], sign=-1)
# the search around that end must not take the end's own small singular value
@example(blocks=[("turns", 1, -2), ("rotation", 1, 4.0, False)], sign=-1)
@given(
    blocks=st.lists(st.one_of(
        closed_forms,
        st.tuples(st.just("turns"), st.sampled_from([1, 2]), st.sampled_from([-2, -1, 1, 2])),
    ), min_size=1, max_size=2),
    sign=st.sampled_from([-1, 1]),
)
def test_perturbation_shift_is_minus_sign_delta_times_half_the_end_kernel(blocks, sign):
    # S - delta I moves the index by -sgn(delta) dim ker(Gamma(1) - I) / 2: a
    # full turn ends on the identity (kernel 2m), theta has a kernel of 2
    # everywhere, any other rotation ends off the identity
    parts, kernel = [], 0
    for block in blocks:
        if block[0] == "turns":
            _, m, k = block
            parts.append((rotation_path(m, k * TWO_PI), 4 * k * m))
            kernel += 2 * m
        else:
            parts.append(_closed_form(block, "closed"))
            kernel += 2 if block[0] == "theta" else 0
    joint = parts[0][0] if len(parts) == 1 else block_diag(parts[0][0], parts[1][0])
    twice = sum(t for _, t in parts)
    assert rs_index(joint).twice_value == twice
    assert rs_index(perturbed_path(joint, sign * 1e-3)).twice_value == twice - sign * kernel


def _free_path(seed, m=1, n_steps=1024):
    """path_from_generator of a random S(t) = A + sin(2 pi t + phase) B."""
    rng = np.random.default_rng(seed)
    a, b = random_symmetric(2 * m, rng, 1.0), random_symmetric(2 * m, rng, 1.0)
    phase = float(rng.uniform(0, TWO_PI))
    return path_from_generator(lambda t: a + np.sin(TWO_PI * t + phase)[:, None, None] * b, 2 * m,
                               n_steps=n_steps)


# free paths with a crossing 1.4 to 3.5 samples after the start, which
# joined with a theta block sits on the theta block's plateau
@settings(max_examples=25, deadline=None)
@example(seed=639, block=("theta", 0.0, 1.0, 1.0, False))
@example(seed=872, block=("theta", 0.0, 1.0, 1.0, False))
@example(seed=2324, block=("theta", 0.0, 1.0, 1.0, False))
@given(seed=st.integers(0, 2**32 - 1), block=closed_forms)
def test_block_additivity_of_generator_paths(seed, block):
    # on 1024 steps the dense output of the fastest drawn turn is off the
    # circle by about (a h)^4 / 384 = 3e-10
    closed, twice = _closed_form(block, 1024)
    assert rs_index(closed).twice_value == twice
    free = _free_path(seed)
    alone = rs_index(free)
    assert rs_index(block_diag(free, closed)).twice_value == alone.twice_value + twice


def _theta_frame():
    # E with E^T J_2 E = theta_form(): reorder (x1, x2, y1, y2) as
    # (x1, y1, x2, y2), then reverse the last coordinate
    e = np.zeros((4, 4))
    e[[0, 2, 1, 3], [0, 1, 2, 3]] = [1.0, 1.0, 1.0, -1.0]
    return e


def _random_symplectic_for(block, path, seed, scale):
    """A random Psi, symplectic for the form of the block's path."""
    psi = random_symplectic(path.dim // 2, np.random.default_rng(seed), scale)
    if block[0] == "theta":
        frame = _theta_frame()
        psi = np.linalg.inv(frame) @ psi @ frame
    return psi


@settings(max_examples=25, deadline=None)
@example(seed=666515812, block=("theta", 1.0, 0.875, 2.0, False), scale=1 / 3)  # det noise on a plateau
@given(seed=st.integers(0, 2**32 - 1), block=closed_forms, scale=st.floats(0.1, 0.8))
def test_conjugation_invariance_of_generator_paths(seed, block, scale):
    path, twice = _closed_form(block, 768)
    psi = _random_symplectic_for(block, path, seed, scale)
    assert rs_index(path).twice_value == twice
    assert rs_index(conjugate_path(path, psi)).twice_value == twice


def test_conjugated_generator_keeps_the_field_on_a_form_not_squaring_to_minus_one():
    # on J = J_1 + 2 J_1, Psi^-T S Psi^-1 would not be the conjugated field
    form = np.kron(np.diag([1.0, 2.0]), standard_jmat(1))
    path = path_from_generator(_constant(np.diag([3.0, 3.0, 1.0, 1.0])), 4, form=form, n_steps=512)
    psi = expm(0.3 * np.linalg.solve(form, random_symmetric(4, np.random.default_rng(0), 1.0)))
    conj = conjugate_path(path, psi)
    assert np.allclose(conj.fields, psi @ path.fields @ np.linalg.inv(psi), atol=1e-12)
    assert rs_index(conj) == rs_index(path)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=closed_forms, scale=st.floats(0.1, 0.8),
       sign=st.sampled_from([-1, 1]))
def test_perturbed_conjugated_path_has_the_perturbed_index(seed, block, scale, sign):
    # a conjugated path keeps the conjugated generator Psi^-T S Psi^-1, and
    # S - delta I shifts its index as it shifts the unconjugated one
    path, _ = _closed_form(block, "closed")
    psi = _random_symplectic_for(block, path, seed, scale)
    want = rs_index(perturbed_path(path, sign * 1e-3))
    assert rs_index(perturbed_path(conjugate_path(path, psi), sign * 1e-3)) == want


# -- the crossing list against the winding, homotopy invariance and the
# work rs_index does ---------------------------------------------------------------


def _drawn_path(blocks, n_steps):
    parts = [_free_path(block[2], block[1], n_steps) if block[0] == "free"
             else _closed_form(block, n_steps)[0] for block in blocks]
    return parts[0] if len(parts) == 1 else block_diag(*parts)


def _eigenphases(path, t):
    # eigenphases of W(t), with Gamma(t) taken into a Darboux frame of the form
    frame = _darboux_frame(path.form)
    mat = path.at(t) if frame is None else np.linalg.solve(frame, path.at(t) @ frame)
    return _phases(mat[None])[0]


@settings(max_examples=40, deadline=None)
@example(blocks=[("free", 3, 1024), ("free", 3, 1024)])  # a join of a path with itself
# a crossing 2.4e-5 before the end of the free block, next to the theta block
@example(blocks=[("free", 2, 2753752032), ("theta", -0.4666693446117236, 1.690401947598155,
                                          1.945976326026717, False)])
@given(blocks=st.lists(st.one_of(
    closed_forms,
    st.tuples(st.just("free"), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1)),
), min_size=1, max_size=2))
def test_crossing_list_sums_to_the_index_at_zero_eigenphases(blocks):
    path = _drawn_path(blocks, 1024)
    value, crossings = rs_index_detailed(path)
    assert value == rs_index(path) == _contributions(crossings)
    interior = [c.time for c in crossings if c.kind == "interior"]
    if interior:
        closest = np.min(np.abs(np.array([_eigenphases(path, t) for t in interior])), axis=1)
        assert np.all(closest <= END_TOL)


def test_fast_crossings_are_located_at_zero_eigenphases():
    # the eigenphases turn at 100 rad per unit time and stay within END_TOL
    # for 2e-11, less than TIME_TOL: each crossing is bisected into the band
    value, crossings = rs_index_detailed(rotation_path(1, 100.0, 2049))
    interior = [c for c in crossings if c.kind == "interior"]
    assert value.twice_value == 2 * _rotation_index(1, 100.0)
    assert [(c.sig, c.kernel_dim) for c in interior] == [(2, 2)] * 15
    times = np.array([c.time for c in interior])
    assert np.max(np.abs(times - TWO_PI / 100 * np.arange(1, 16))) <= 1e-10


def test_a_crossing_in_the_first_sample_interval_counts():
    # S(0) has signature 2 with a small eigenvalue 1.6e-3, whose eigenphase
    # of W turns back through 0 at t = 0.00058, inside the first of 1024
    # steps: the start and that crossing are listed apart
    value, crossings = rs_index_detailed(_free_path(1877821423, 3))
    assert value.twice_value == 0
    assert [(c.kind, c.sig, c.kernel_dim) for c in crossings] == [("start", 2, 6), ("interior", -1, 1)]
    assert abs(crossings[1].time - 0.00058) < 1e-5


@pytest.mark.parametrize("name", sorted(CROSSING_PANEL))
def test_rs_index_gives_the_panel_values(name):
    # the late rotation reparametrizes the rotation by 9.8, whose twice
    # index is 6
    build, twice, _ = CROSSING_PANEL[name]
    assert rs_index(build()).twice_value == (6 if name == "late-rotation" else twice)


def _turning_path(angle, n_samples=513):
    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])

    def ev(t):
        return np.cos(angle(t)) * np.eye(2) + np.sin(angle(t)) * jmat

    ts = np.linspace(0, 1, n_samples)
    return SymplecticPath(ts, np.array([ev(t) for t in ts]), evaluator=ev)


def _homotopy(lam):
    # (1 - lam) 9.8 t + lam 20 (t - 0.3)_+^2 ends at 9.8 for every lam: the
    # rotation by 9.8 at lam = 0 and the late rotation at lam = 1
    return lambda t: (1 - lam) * 9.8 * t + lam * 20 * max(0.0, t - 0.3) ** 2


@pytest.mark.parametrize("angle", [_homotopy(lam) for lam in (0.0, 0.5, 0.9, 0.99, 0.999, 1.0)]
                         + [lambda t: 9.8 * t**3],
                         ids=["lam0", "lam0.5", "lam0.9", "lam0.99", "lam0.999", "lam1", "cubic"])
def test_index_is_invariant_under_homotopies_with_fixed_endpoints(angle):
    # every angle runs from 0 to 9.8, so twice the index is that of the rotation by 9.8
    assert rs_index(_turning_path(angle)).twice_value == 6


@pytest.mark.parametrize("angle", [14.25, 15.0, 15.25, 15.5])
def test_fast_constant_generator_on_384_steps_gives_the_closed_form(angle):
    # fast turns on the Hermite dense output of 384 steps
    path = path_from_generator(_constant(angle * np.eye(2)), 2, n_steps=384)
    assert rs_index(path).twice_value == 2 * _rotation_index(1, angle)


@pytest.mark.parametrize("build", [lambda: rotation_path(3, 9.0, 2049),
                                   lambda: _csv_copy(rotation_path(3, 9.0, 2049))],
                         ids=["closed", "csv"])
def test_rs_index_makes_no_path_evaluation_and_no_svd(build, monkeypatch):
    path = build()
    calls = []
    at, svd = SymplecticPath.at, np.linalg.svd

    def counted_at(self, t):
        calls.append(("at", t))
        return at(self, t)

    def counted_svd(*args, **kwargs):
        calls.append(("svd",))
        return svd(*args, **kwargs)

    monkeypatch.setattr(SymplecticPath, "at", counted_at)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    assert rs_index(path).twice_value == 2 * _rotation_index(3, 9.0)
    assert calls == []


def test_a_coarse_step_is_refined_through_the_evaluator():
    # on 5 samples D turns by 2.25 rad per step; one halving with the
    # evaluator brings each step below pi / 2
    assert rs_index(_turning_path(lambda t: 9.0 * t, n_samples=5)).twice_value == 6


def test_a_jump_between_samples_raises_resolution_error():
    # D jumps by 3 rad at t = 0.3, so no halving resolves that step
    path = _turning_path(lambda t: 3.0 if t > 0.3 else 0.0, n_samples=5)
    with pytest.raises(ResolutionError):
        rs_index(path)


@pytest.mark.parametrize("c", [TWO_PI / 9.0, 0.5], ids=["crossing", "regular"])
def test_segments_add_up(c):
    # Gamma(2 pi / 9) = I: both segments take the same end correction there
    path = rotation_path(1, 9.0)
    head, tail = rs_index_segment(path, 0.0, c), rs_index_segment(path, c, 1.0)
    assert (head + tail).twice_value == rs_index(path).twice_value == 6
