import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfhlab.rsindex import (
    HalfInteger,
    IrregularCrossingError,
    ResolutionError,
    SymplecticPath,
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
from rfhlab.symlin import random_symmetric, symplectic_defect
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
    done = 0
    while done < 25:
        angle = float(rng.uniform(-3 * np.pi, 3 * np.pi))
        p1 = rotation_path(1, angle, n_samples=385)
        a = random_symmetric(2, rng, 1.0)
        b = random_symmetric(2, rng, 1.0)
        p2 = path_from_generator(lambda t: a + np.sin(2 * np.pi * t) * b, 2, n_steps=384)
        try:
            lhs = rs_index(block_diag(p1, p2))
            rhs = rs_index(p1) + rs_index(p2)
        except (IrregularCrossingError, ResolutionError):
            continue
        assert lhs.twice_value == rhs.twice_value
        done += 1


def test_catenation_over_segments():
    # restriction additivity: for a with no eigenvalue 1 at Gamma(a),
    # the two segment indices (with half-weighted endpoint crossings)
    # sum to the full index
    rng = np.random.default_rng(8)
    done = 0
    while done < 10:
        a_mat = random_symmetric(2, rng, 2.0)
        b_mat = random_symmetric(2, rng, 1.0)
        p = path_from_generator(
            lambda t: a_mat + np.sin(2 * np.pi * t + 0.3) * b_mat, 2, n_steps=768
        )
        a = 0.5
        if np.linalg.svd(p.at(a) - np.eye(2), compute_uv=False)[-1] < 1e-3:
            a = float(rng.uniform(0.35, 0.65))
            if np.linalg.svd(p.at(a) - np.eye(2), compute_uv=False)[-1] < 1e-3:
                continue
        try:
            total = rs_index(p)
            head = rs_index_segment(p, 0.0, a)
            tail = rs_index_segment(p, a, 1.0)
        except (IrregularCrossingError, ResolutionError):
            continue
        assert (head + tail).twice_value == total.twice_value
        done += 1


def test_conjugation_invariance():
    rng = np.random.default_rng(9)
    done = 0
    while done < 10:
        a = random_symmetric(2, rng, 1.5)
        b = random_symmetric(2, rng, 1.0)
        p = path_from_generator(lambda t: a + np.cos(2 * np.pi * t) * b, 2, n_steps=768)
        psi = random_symplectic(1, rng, 0.6)
        try:
            assert rs_index(p).twice_value == rs_index(conjugate_path(p, psi)).twice_value
        except (IrregularCrossingError, ResolutionError):
            continue
        done += 1


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


def _touching_rotation(n_steps=1024):
    # angle 8*pi*t*(1-t) touches 2*pi at t = 1/2 with zero speed: the
    # interior crossing there has a full 2-dim kernel and an identically
    # vanishing crossing form, which no local data can resolve
    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])

    def theta(t):
        return 8 * np.pi * t * (1 - t)

    def gen(t):
        return 8 * np.pi * (1 - 2 * t) * np.eye(2)

    def ev(t):
        return np.cos(theta(t)) * np.eye(2) + np.sin(theta(t)) * jmat

    ts = np.linspace(0, 1, n_steps + 1)
    return SymplecticPath(ts, np.array([ev(t) for t in ts]), generator=gen, evaluator=ev)


def test_irregular_interior_crossing_raises_and_perturbation_resolves():
    p = _touching_rotation()
    with pytest.raises(IrregularCrossingError):
        rs_index(p)
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
        return -2 * np.pi * np.cos(2 * np.pi * t) * np.array([[0.0, 0.0], [0.0, 1.0]])

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


def test_resolution_error_on_ambiguous_near_crossing():
    # closest approach to the identity is ~1e-7, inside the ambiguity band
    gap = 1e-7
    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])

    def theta_of(t):
        return (2 * np.pi - gap) * np.sin(np.pi * t)

    def ev(t):
        th = theta_of(t)
        return np.cos(th) * np.eye(2) + np.sin(th) * jmat

    ts = np.linspace(0, 1, 513)
    p = SymplecticPath(ts, np.array([ev(t) for t in ts]), evaluator=ev)
    with pytest.raises(ResolutionError):
        rs_index(p)


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
    # that ends inside the path leaves no crossing at its edge
    jmat = np.array([[0.0, -1.0], [1.0, 0.0]])

    def ev(t):
        theta = 20 * max(0.0, t - 0.3) ** 2
        return np.cos(theta) * np.eye(2) + np.sin(theta) * jmat

    ts = np.linspace(0, 1, 513)
    return SymplecticPath(ts, np.array([ev(t) for t in ts]),
                          generator=lambda t: 40 * max(0.0, t - 0.3) * np.eye(2), evaluator=ev)


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
    "late-rotation": (
        _late_rotation, 4, [("start", 0, 0.0), ("interior", 2, 0.3 + np.sqrt(np.pi / 10))],
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
    assert np.max(np.abs(times - [t for _, _, t in expected])) <= 1e-8


@pytest.mark.parametrize("a1, a2", [(6.53, 6.56), (-8.15, -8.13)])
def test_close_crossings_of_two_blocks_are_both_found(a1, a2):
    # the two crossings lie within two sample intervals and show as one
    # sampled dip of |det(Gamma - I)|; the second is found with the first
    # divided out
    joint = block_diag(rotation_path(1, a1, 385), rotation_path(1, a2, 385))
    assert rs_index(joint).twice_value == 2 * (_rotation_index(1, a1) + _rotation_index(1, a2))


@pytest.mark.parametrize("gap", [5e-8, -5e-8])
def test_turns_ending_next_to_the_identity(gap):
    # Gamma(1) is 5e-8 from the identity, so the end is no crossing; one
    # turn and a little more crosses 8e-9 before the end, which counts,
    # while the end interval's dip just short of a turn lies at the end
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
@rotations
def test_rotation_index_closed_form(m, size, negative):
    angle = _angle(size, negative)
    _check_rotation_index(rotation_path(m, angle), m, angle)


@settings(max_examples=20, deadline=None)
@rotations
def test_rotation_index_closed_form_through_csv(m, size, negative):
    angle = _angle(size, negative)
    _check_rotation_index(_csv_copy(rotation_path(m, angle, 2049)), m, angle)


@pytest.mark.xfail(strict=True, reason=(
    "the first samples of a slow rotation stay within CROSS_TOL of the identity and form a "
    "plateau whose crossing form a*I does not vanish: refused as irregular, or read as 0"))
@pytest.mark.parametrize("angle", [1e-8, 1e-7, 1e-6, -1e-6, 4e-6])
def test_slow_rotation_index_is_its_sign(angle):
    assert rs_index(rotation_path(1, angle)) == HalfInteger.whole(int(np.sign(angle)))
