"""Robbin-Salamon index of paths of symplectic matrices.

The index of a path Gamma : [0,1] -> Sp(2m) with Gamma(0) = I is computed
from crossing forms.  A crossing is a time t* with det(Gamma(t*) - I) = 0;
the crossing form is the symmetric bilinear form

    Q(v, w) = omega(Gamma'(t*) v, w)      on ker(Gamma(t*) - I),

and the index is

    1/2 sig Q(0)  +  sum over interior crossings of sig Q  +  1/2 sig Q(1),

each endpoint term present only when the endpoint is a crossing.  The sign
convention is pinned by three anchors: the constant identity path has index
0, the full rotation t -> exp(2 pi t J_1) in Sp(2) has index 2 (both
endpoint crossing forms positive definite), and the explicit unipotent
4 x 4 path built by ``theta_path`` has index
-1/2 sgn [[tau*hpp, hp], [hp, 0]] = 0.

When a path carries a generator, i.e. a symmetric S(t) with
Gamma' = J S Gamma and the matrix J equal to the matrix of the form, the
crossing form reduces to S(t*) restricted to the kernel; the engine uses
the omega-based formula uniformly, which agrees with that reduction.

Interior crossings must be regular (nondegenerate crossing form).  A
degenerate interior crossing raises IrregularCrossingError; the caller
resolves it with ``perturbed_path``, which replaces the generator S by
S - delta*I.  Intervals on which the path remains singular ("plateaus")
are admitted when the crossing form vanishes identically on the kernel
there; they contribute zero, like constant identity segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._files import write_text
from .symlin import SymmetricForm, signature, standard_jmat, symplectic_defect

__all__ = [
    "HalfInteger",
    "Crossing",
    "SymplecticPath",
    "IrregularCrossingError",
    "ResolutionError",
    "MissingGeneratorError",
    "rs_index",
    "rs_index_detailed",
    "rs_index_segment",
    "theta_path",
    "theta_form",
    "rotation_path",
    "path_from_generator",
    "perturbed_path",
    "block_diag",
    "conjugate_path",
    "save_path_csv",
    "load_path_csv",
]


class IrregularCrossingError(RuntimeError):
    """An interior crossing has a degenerate crossing form.

    The index through such a crossing is not determined by the local data;
    perturb the generator (see ``perturbed_path``) and recompute.
    """


class ResolutionError(RuntimeError):
    """A near-crossing could not be resolved at the sampling resolution.

    Rebuild the path with a finer sample grid.
    """


class MissingGeneratorError(RuntimeError):
    """The operation requires a path with a generator S(t)."""


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Exact element of (1/2) Z, stored as twice its value."""

    twice_value: int

    @staticmethod
    def from_halves(n_halves: int) -> "HalfInteger":
        return HalfInteger(int(n_halves))

    @staticmethod
    def whole(n: int) -> "HalfInteger":
        return HalfInteger(2 * int(n))

    def __add__(self, other: "HalfInteger") -> "HalfInteger":
        return HalfInteger(self.twice_value + other.twice_value)

    def __sub__(self, other: "HalfInteger") -> "HalfInteger":
        return HalfInteger(self.twice_value - other.twice_value)

    def __neg__(self) -> "HalfInteger":
        return HalfInteger(-self.twice_value)

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice_value // 2

    def __float__(self) -> float:
        return self.twice_value / 2.0

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


@dataclass(frozen=True)
class Crossing:
    """A crossing of det(Gamma(t) - I) = 0 with its form data."""

    time: float
    kernel_basis: np.ndarray = field(repr=False)  # columns span ker(Gamma(t)-I)
    form: SymmetricForm = field(repr=False)
    sig: int
    kind: str = "interior"  # "start" | "interior" | "end" | "plateau"


# default tolerances, suitable for unit-scale paths
CROSS_TOL = 1e-8          # sigma_min below this counts as singular
KERNEL_TOL = 1e-6         # singular values below this span the kernel
VANISH_TOL = 1e-7         # plateau crossing forms must stay below this
DEGENERATE_TOL = 1e-7     # crossing-form eigenvalue cluster width
TIME_TOL = 1e-10          # refinement tolerance for crossing times


class SymplecticPath:
    """Sampled path of symplectic matrices on [0, 1].

    Attributes:
        ts: strictly increasing sample times, ts[0] = 0, ts[-1] = 1.
        mats: array (N, 2m, 2m) of samples; mats[0] = I.
        form: matrix Omega of the symplectic form the samples preserve.
        jmat: complex structure used in the generator equation
            Gamma' = J S Gamma; equals ``form`` for every built-in
            constructor, which is what makes the crossing form equal to
            S on the kernel.
        generator: optional callable t -> S(t), symmetric.
        evaluator: optional callable t -> Gamma(t) (closed form or ODE
            dense output).  Without one, off-sample values come from
            cubic interpolation of the samples.
    """

    def __init__(
        self,
        ts: Sequence[float],
        mats: Sequence[np.ndarray],
        form: np.ndarray | None = None,
        jmat: np.ndarray | None = None,
        generator: Callable[[float], np.ndarray] | None = None,
        evaluator: Callable[[float], np.ndarray] | None = None,
        tol: float = 1e-7,
        check: bool = True,
    ):
        self.ts = np.asarray(ts, dtype=float)
        self.mats = np.asarray(mats, dtype=float)
        if self.mats.ndim != 3 or self.mats.shape[1] != self.mats.shape[2]:
            raise ValueError("mats must be a stack of square matrices")
        self.dim = self.mats.shape[1]
        if self.dim % 2 != 0:
            raise ValueError("path dimension must be even")
        self.form = standard_jmat(self.dim // 2) if form is None else np.asarray(form, float)
        self.jmat = self.form if jmat is None else np.asarray(jmat, float)
        self.generator = generator
        self.evaluator = evaluator
        self.tol = float(tol)
        if check:
            self._validate()

    # -- construction checks -------------------------------------------------

    def _validate(self):
        ts, mats = self.ts, self.mats
        if ts.ndim != 1 or ts.size != mats.shape[0] or ts.size < 2:
            raise ValueError("need one sample time per matrix, at least two")
        if abs(ts[0]) > 1e-15 or abs(ts[-1] - 1.0) > 1e-12:
            raise ValueError("sample times must start at 0 and end at 1")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if np.max(np.abs(mats[0] - np.eye(self.dim))) > 1e-12:
            raise ValueError("path must start at the identity")
        probe = mats[:: max(1, ts.size // 64)]
        defects = np.einsum("nji,jk,nkl->nil", probe, self.form, probe) - self.form
        worst = float(np.max(np.abs(defects)))
        if worst > self.tol:
            raise ValueError(
                f"samples violate the symplectic condition (defect {worst:.3e} > tol {self.tol:.1e})"
            )
        if self.generator is not None:
            self._check_generator()

    def _check_generator(self):
        # spot-check Gamma' = J S Gamma against a sample finite difference
        i = len(self.ts) // 2
        if i + 1 >= len(self.ts) or i == 0:
            return
        dt = self.ts[i + 1] - self.ts[i - 1]
        fd = (self.mats[i + 1] - self.mats[i - 1]) / dt
        rhs = self.jmat @ self.generator(float(self.ts[i])) @ self.mats[i]
        scale = max(1.0, float(np.max(np.abs(rhs))))
        if np.max(np.abs(fd - rhs)) > 1e-2 * scale + 10 * dt:
            raise ValueError("generator is inconsistent with the sampled derivative")

    # -- evaluation -----------------------------------------------------------

    def at(self, t: float) -> np.ndarray:
        """Matrix Gamma(t) for any t in [0, 1]."""
        t = float(min(max(t, 0.0), 1.0))
        if self.evaluator is not None:
            return np.asarray(self.evaluator(t), float)
        if self.generator is not None:
            return self._integrate_from_nearest(t)
        return self._interpolate(t)

    def _integrate_from_nearest(self, t: float) -> np.ndarray:
        i = int(np.searchsorted(self.ts, t, side="right") - 1)
        i = min(max(i, 0), len(self.ts) - 1)
        t0, m = float(self.ts[i]), self.mats[i].copy()
        if t == t0:
            return m
        nsub = 8
        h = (t - t0) / nsub
        for k in range(nsub):
            m = _rk4_step(self.jmat, self.generator, t0 + k * h, m, h)
        return m

    def _interpolate(self, t: float) -> np.ndarray:
        # cubic Lagrange through the four nearest samples
        i = int(np.searchsorted(self.ts, t))
        lo = min(max(i - 2, 0), len(self.ts) - 4)
        idx = range(lo, lo + 4)
        out = np.zeros_like(self.mats[0])
        for a in idx:
            w = 1.0
            for b in idx:
                if a != b:
                    w *= (t - self.ts[b]) / (self.ts[a] - self.ts[b])
            out += w * self.mats[a]
        return out

    def derivative(self, t: float) -> np.ndarray:
        """Gamma'(t), from the generator when present, else by differencing."""
        if self.generator is not None:
            return self.jmat @ self.generator(float(t)) @ self.at(t)
        h = 1e-6
        if t < h:
            return (-3 * self.at(t) + 4 * self.at(t + h) - self.at(t + 2 * h)) / (2 * h)
        if t > 1 - h:
            return (3 * self.at(t) - 4 * self.at(t - h) + self.at(t - 2 * h)) / (2 * h)
        return (self.at(t + h) - self.at(t - h)) / (2 * h)

    @property
    def n_samples(self) -> int:
        return len(self.ts)


def _rk4_step(jmat, gen, t, m, h):
    def f(tt, mm):
        return jmat @ gen(tt) @ mm

    k1 = f(t, m)
    k2 = f(t + 0.5 * h, m + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, m + 0.5 * h * k2)
    k4 = f(t + h, m + h * k3)
    return m + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# -- crossing machinery -------------------------------------------------------


def _kernel(mat_minus_id: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of Gamma(t) - I."""
    _, svals, vt = np.linalg.svd(mat_minus_id)
    smax = svals[0] if svals.size else 0.0
    thresh = max(KERNEL_TOL, 1e-9 * smax)
    cols = vt[svals <= thresh] if svals.size else vt
    if cols.size == 0:
        # guard: accept the single smallest direction
        cols = vt[-1:]
    return cols.T


def _min_sv(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


def _crossing_form(path: SymplecticPath, t: float, kernel: np.ndarray) -> SymmetricForm:
    dgamma = path.derivative(t)
    f = kernel.T @ dgamma.T @ path.form @ kernel
    return SymmetricForm(f)


def _form_vanishes(path: SymplecticPath, t: float, kernel: np.ndarray) -> bool:
    f = _crossing_form(path, t, kernel)
    scale = max(1.0, float(np.max(np.abs(path.derivative(t)))))
    return float(np.max(np.abs(f.entries))) <= VANISH_TOL * scale


def _crossing_at(path: SymplecticPath, t: float, kind: str, background: int = 0) -> Crossing:
    """Crossing data at time t.

    ``background`` is the dimension of a persistent singular direction
    field (a plateau the crossing is embedded in); exactly that many
    crossing-form eigenvalues may vanish at an interior crossing, and
    they contribute nothing.  Endpoint crossings may be degenerate.
    """
    kernel = _kernel(path.at(t) - np.eye(path.dim))
    form = _crossing_form(path, t, kernel)
    fscale = max(1.0, float(np.max(np.abs(form.entries))))
    evals = np.linalg.eigvalsh(form.entries) if form.k else np.zeros(0)
    tol = DEGENERATE_TOL * fscale
    n_pos = int(np.sum(evals > tol))
    n_neg = int(np.sum(evals < -tol))
    n_zero = evals.size - n_pos - n_neg
    if kind == "interior" and n_zero != background:
        raise IrregularCrossingError(
            f"crossing form at interior crossing t={t:.12f} has {n_zero} "
            f"vanishing eigenvalue(s), expected {background}; "
            f"perturb the generator (perturbed_path) and retry"
        )
    return Crossing(time=float(t), kernel_basis=kernel, form=form, sig=n_pos - n_neg, kind=kind)


def _sv_above_background(path: SymplecticPath, t: float, background: int) -> float:
    """Smallest singular value of Gamma(t) - I above a persistent kernel."""
    svals = np.linalg.svd(path.at(t) - np.eye(path.dim), compute_uv=False)
    if background >= svals.size:
        return 0.0
    return float(svals[-(background + 1)])


def _detection_objective(path: SymplecticPath, t: float, background: int) -> float:
    """Product of the singular values of Gamma(t) - I above the background.

    With no background this is |det(Gamma(t) - I)|.  Unlike the smallest
    singular value, the product still dips at a crossing of one invariant
    block when another block happens to pass close to the identity, so
    crossings cannot mask each other.
    """
    svals = np.linalg.svd(path.at(t) - np.eye(path.dim), compute_uv=False)
    top = svals[: max(path.dim - background, 0)]
    return float(np.prod(top)) if top.size else 0.0


def _bisect_det_zero(path: SymplecticPath, a: float, b: float, fa: float) -> float:
    """Bisection on the signed det(Gamma(t) - I) across a sign change.

    Simple (odd-multiplicity) crossings always change the sign of the
    determinant, so this locator cannot be masked by the size trend of
    the other factors the way a sampled local-minimum test can.
    """
    eye = np.eye(path.dim)
    neg_a = fa < 0
    while (b - a) > TIME_TOL:
        m = 0.5 * (a + b)
        fm = float(np.linalg.det(path.at(m) - eye))
        if fm == 0.0:
            return m
        if (fm < 0) == neg_a:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _refine_minimum(path: SymplecticPath, a: float, b: float, background: int = 0) -> float:
    """Golden-section minimizer of the detection objective on [a, b]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = _detection_objective(path, x1, background)
    f2 = _detection_objective(path, x2, background)
    while (b - a) > TIME_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = _detection_objective(path, x1, background)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = _detection_objective(path, x2, background)
    return 0.5 * (a + b)


def rs_index_segment(path: SymplecticPath, a: float = 0.0, b: float = 1.0) -> HalfInteger:
    """Index contribution of Gamma restricted to [a, b].

    Endpoint crossings at a and b are weighted 1/2, so the index is
    additive under concatenation at any time where Gamma has no
    eigenvalue 1:  rs_index_segment(p, 0, c) + rs_index_segment(p, c, 1)
    equals rs_index(p).
    """
    value, _ = _segment_detailed(path, float(a), float(b))
    return value


def rs_index_detailed(path: SymplecticPath, tol: float = CROSS_TOL):
    """Index of the full path together with the list of crossings found."""
    return _segment_detailed(path, 0.0, 1.0, cross_tol=tol)


def rs_index(path: SymplecticPath, tol: float = CROSS_TOL) -> HalfInteger:
    """Robbin-Salamon index of the path as an exact half-integer.

    Raises:
        IrregularCrossingError: a degenerate interior crossing was found.
        ResolutionError: a near-crossing is unresolved at this sampling.
    """
    value, _ = _segment_detailed(path, 0.0, 1.0, cross_tol=tol)
    return value


def _segment_detailed(path, a, b, cross_tol: float = CROSS_TOL):
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1")
    eye = np.eye(path.dim)

    inside = (path.ts > a + 1e-14) & (path.ts < b - 1e-14)
    ts = np.concatenate(([a], path.ts[inside], [b]))
    if a == 0.0 and b == 1.0:
        mats = np.concatenate((path.mats[:1], path.mats[inside], path.mats[-1:]))
    else:
        mats = np.array([path.at(t) for t in ts])
    n = len(ts)
    svals_all = np.linalg.svd(mats - eye, compute_uv=False)
    g = svals_all[:, -1]
    det_abs = np.prod(svals_all, axis=1)
    singular = g <= cross_tol

    crossings: list[Crossing] = []
    halves = 0

    # endpoint contributions
    if singular[0]:
        c = _crossing_at(path, ts[0], "start")
        crossings.append(c)
        halves += c.sig
    if singular[-1]:
        c = _crossing_at(path, ts[-1], "end")
        crossings.append(c)
        halves += c.sig

    # maximal runs of singular samples
    regions = []
    i = 0
    while i < n:
        if singular[i]:
            j = i
            while j + 1 < n and singular[j + 1]:
                j += 1
            regions.append((i, j))
            i = j + 1
        else:
            i += 1

    claimed = np.zeros(n, dtype=bool)
    found_times = [c.time for c in crossings]
    for (i0, i1) in regions:
        claimed[max(i0 - 1, 0): i1 + 2] = True
        interior_idx = [k for k in range(i0, i1 + 1) if k not in (0, n - 1)]
        if i0 == i1:
            if not interior_idx:
                continue  # a singular path endpoint, already counted above
            # isolated singular sample strictly inside: a regular crossing
            k = i0
            t_star = _refine_minimum(path, ts[k - 1], ts[k + 1])
            c = _crossing_at(path, t_star, "interior")
            crossings.append(c)
            found_times.append(t_star)
            halves += 2 * c.sig
            continue
        # plateau: the path stays singular across [ts[i0], ts[i1]].  The
        # persistent ("background") directions must carry a vanishing
        # crossing form and contribute nothing; crossings of the remaining
        # directions are embedded in the plateau and show up as dips of
        # the first singular value above the background.
        region_svals = np.linalg.svd(mats[i0: i1 + 1] - eye, compute_uv=False)
        kdims = np.sum(region_svals <= cross_tol, axis=1)
        bg = int(np.min(kdims))
        for k in interior_idx:
            if kdims[k - i0] > bg:
                continue  # kernel jump: an embedded crossing, scanned below
            kernel = _kernel(mats[k] - eye)
            if not _form_vanishes(path, ts[k], kernel):
                raise IrregularCrossingError(
                    f"nonvanishing crossing form on singular plateau near "
                    f"t={ts[k]:.6f}; perturb the generator and retry"
                )
        if bg >= path.dim:
            continue
        e = np.prod(region_svals[:, : path.dim - bg], axis=1)
        for k in range(max(i0, 1), min(i1, n - 2) + 1):
            j = k - i0
            left = e[j - 1] if j > 0 else np.inf
            right = e[j + 1] if j < len(e) - 1 else np.inf
            if not (e[j] <= left and e[j] <= right and e[j] < np.inf):
                continue
            t_star = _refine_minimum(path, ts[k - 1], ts[k + 1], background=bg)
            if _sv_above_background(path, t_star, bg) > cross_tol:
                continue
            if (
                min((abs(t_star - t) for t in found_times), default=1.0) > 10 * TIME_TOL
                and a + 1e-9 < t_star < b - 1e-9
            ):
                c = _crossing_at(path, t_star, "interior", background=bg)
                crossings.append(c)
                found_times.append(t_star)
                halves += 2 * c.sig

    # interior simple crossings: sign changes of the signed determinant
    # (singular samples have det exactly zero, so regions cannot retrigger)
    det_signed = np.linalg.det(mats - eye)
    sign_bracket = np.zeros(n, dtype=bool)
    for k in range(n - 1):
        if det_signed[k] * det_signed[k + 1] >= 0:
            continue
        sign_bracket[k] = sign_bracket[k + 1] = True
        t_star = _bisect_det_zero(path, ts[k], ts[k + 1], det_signed[k])
        if _min_sv(path.at(t_star) - eye) > cross_tol:
            continue
        if (
            min((abs(t_star - t) for t in found_times), default=1.0) > 10 * TIME_TOL
            and a + 1e-12 < t_star < b - 1e-12
        ):
            c = _crossing_at(path, t_star, "interior")
            crossings.append(c)
            found_times.append(t_star)
            halves += 2 * c.sig

    # even-multiplicity interior crossings: local minima of |det|
    k = 1
    while k < n - 1:
        if sign_bracket[k]:
            k += 1
            continue
        if claimed[k] or not (det_abs[k] <= det_abs[k - 1] and det_abs[k] <= det_abs[k + 1]):
            k += 1
            continue
        j = k
        while j + 1 < n - 1 and not claimed[j + 1] and det_abs[j + 1] == det_abs[k]:
            j += 1
        t_star = _refine_minimum(path, ts[k - 1], ts[min(j + 1, n - 1)])
        gmin = _min_sv(path.at(t_star) - eye)
        if gmin <= cross_tol:
            if min((abs(t_star - t) for t in found_times), default=1.0) > 10 * TIME_TOL and a + 1e-12 < t_star < b - 1e-12:
                c = _crossing_at(path, t_star, "interior")
                crossings.append(c)
                found_times.append(t_star)
                halves += 2 * c.sig
        elif gmin <= 100 * cross_tol:
            raise ResolutionError(
                f"unresolved near-crossing at t={t_star:.9f} "
                f"(sigma_min={gmin:.3e}); rebuild the path with finer sampling"
            )
        k = j + 1

    # even crossings hiding in the end brackets: the sampled |det| can
    # decrease monotonically into a nonsingular endpoint while dipping to
    # zero inside the final interval
    if n >= 3:
        det_scale = float(np.max(det_abs)) + 1e-300
        for k_lo, k_hi, edge, inner in ((0, 1, 0, 1), (n - 2, n - 1, n - 1, n - 2)):
            if singular[edge] or sign_bracket[edge]:
                continue
            # a dip can hide here only if |det| falls into the edge and is
            # already small there
            if det_abs[edge] >= det_abs[inner] or det_abs[edge] > 0.05 * det_scale:
                continue
            t_star = _refine_minimum(path, ts[k_lo], ts[k_hi])
            if _min_sv(path.at(t_star) - eye) > cross_tol:
                continue
            if not (a + 1e-7 < t_star < b - 1e-7):
                continue
            if min((abs(t_star - t) for t in found_times), default=1.0) <= 10 * TIME_TOL:
                continue
            c = _crossing_at(path, t_star, "interior")
            crossings.append(c)
            found_times.append(t_star)
            halves += 2 * c.sig

    crossings.sort(key=lambda c: c.time)
    return HalfInteger(halves), crossings


# -- constructors --------------------------------------------------------------


def theta_form() -> np.ndarray:
    """Symplectic form matrix for ``theta_path``: omega_1 x (-omega_1)."""
    j1 = standard_jmat(1)
    out = np.zeros((4, 4))
    out[:2, :2] = j1
    out[2:, 2:] = -j1
    return out


def theta_path(tau: float, hp: float, hpp: float, n_samples: int = 257) -> SymplecticPath:
    """Unipotent path Theta(t) = I + t N in Sp(4) attached to a closed orbit.

    Rows of N encode the linearized flow of a radial Hamiltonian h(r) near
    a level orbit with multiplier tau: N[0] = (0, tau*hpp, hp, 0),
    N[3] = (0, hp, 0, 0), where hp = h'(1) > 0 and hpp = h''(1) != 0.
    Coordinates are ordered (flow direction, radial direction, tau, sigma)
    and the samples are symplectic for omega_1 x (-omega_1), exactly.

    Its index vanishes for every admissible parameter choice: the only
    crossing-form content sits at t = 0, where the form restricted to the
    radial-tau plane is [[-tau*hpp, -hp], [-hp, 0]], of signature zero.
    """
    if hp <= 0:
        raise ValueError(f"hp = h'(1) must be positive, got {hp}")
    if hpp == 0:
        raise ValueError("hpp = h''(1) must be nonzero")
    nmat = np.zeros((4, 4))
    nmat[0, 1] = tau * hpp
    nmat[0, 2] = hp
    nmat[3, 1] = hp
    form = theta_form()
    cmat = -form @ nmat  # symmetric generator: Theta' = J C Theta with J = form

    def evaluate(t: float) -> np.ndarray:
        return np.eye(4) + t * nmat

    ts = np.linspace(0.0, 1.0, n_samples)
    mats = np.array([evaluate(t) for t in ts])
    return SymplecticPath(
        ts, mats, form=form, generator=lambda t: cmat, evaluator=evaluate, tol=1e-10
    )


def rotation_path(m: int, angle: float, n_samples: int = 513) -> SymplecticPath:
    """Path t -> exp(t * angle * J_m) with constant generator angle * I."""
    jmat = standard_jmat(m)
    eye = np.eye(2 * m)

    def evaluate(t: float) -> np.ndarray:
        return np.cos(angle * t) * eye + np.sin(angle * t) * jmat

    ts = np.linspace(0.0, 1.0, n_samples)
    mats = np.array([evaluate(t) for t in ts])
    gen = angle * eye
    return SymplecticPath(
        ts, mats, generator=lambda t: gen, evaluator=evaluate, tol=1e-9
    )


def path_from_generator(
    gen: Callable[[float], np.ndarray],
    dim: int,
    form: np.ndarray | None = None,
    n_steps: int = 1024,
    tol: float = 1e-7,
) -> SymplecticPath:
    """Integrate Gamma' = J S(t) Gamma, Gamma(0) = I by fixed-step RK4.

    Raises ValueError if the integrated samples lose the symplectic
    condition beyond ``tol`` (reduce the step by raising n_steps).
    """
    jmat = standard_jmat(dim // 2) if form is None else np.asarray(form, float)
    h = 1.0 / n_steps
    mats = np.empty((n_steps + 1, dim, dim))
    mats[0] = np.eye(dim)
    m = mats[0].copy()
    for k in range(n_steps):
        m = _rk4_step(jmat, gen, k * h, m, h)
        mats[k + 1] = m
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    try:
        return SymplecticPath(ts, mats, form=jmat, generator=gen, tol=tol)
    except ValueError as exc:
        raise ValueError(f"integration lost symplecticity: {exc}; raise n_steps") from exc


def perturbed_path(path: SymplecticPath, delta: float, n_steps: int = 2048) -> SymplecticPath:
    """Path generated by S(t) - delta * I, for resolving degenerate crossings.

    For |delta| below the spectral scale of the asymptotic data, the index
    shifts by -sgn(delta) * (dim of the endpoint eigenvalue-1 kernel) / 2.
    Requires the input path to carry a generator.
    """
    if path.generator is None:
        raise MissingGeneratorError("perturbed_path requires a path with a generator")
    base = path.generator
    eye = np.eye(path.dim)

    def gen(t: float) -> np.ndarray:
        return base(t) - delta * eye

    return path_from_generator(gen, path.dim, form=path.jmat, n_steps=n_steps, tol=max(path.tol, 1e-8))


def _resample_times(p1: SymplecticPath, p2: SymplecticPath) -> np.ndarray:
    ts = np.union1d(p1.ts, p2.ts)
    ts[0], ts[-1] = 0.0, 1.0
    return ts


def block_diag(p1: SymplecticPath, p2: SymplecticPath) -> SymplecticPath:
    """Pointwise block-diagonal join; the index is additive over the blocks."""
    d1, d2 = p1.dim, p2.dim
    ts = _resample_times(p1, p2)

    def joined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros((d1 + d2, d1 + d2))
        out[:d1, :d1] = a
        out[d1:, d1:] = b
        return out

    if len(ts) == len(p1.ts) == len(p2.ts):
        mats = np.zeros((len(ts), d1 + d2, d1 + d2))
        mats[:, :d1, :d1] = p1.mats
        mats[:, d1:, d1:] = p2.mats
    else:
        mats = np.array([joined(p1.at(t), p2.at(t)) for t in ts])
    form = joined(p1.form, p2.form)
    jmat = joined(p1.jmat, p2.jmat)

    evaluator = None
    if (p1.evaluator is not None or p1.generator is not None) and (
        p2.evaluator is not None or p2.generator is not None
    ):
        def evaluator(t: float) -> np.ndarray:
            return joined(p1.at(t), p2.at(t))

    generator = None
    if p1.generator is not None and p2.generator is not None:
        def generator(t: float) -> np.ndarray:
            return joined(p1.generator(t), p2.generator(t))

    return SymplecticPath(
        ts, mats, form=form, jmat=jmat, generator=generator, evaluator=evaluator,
        tol=max(p1.tol, p2.tol),
    )


def conjugate_path(path: SymplecticPath, psi: np.ndarray) -> SymplecticPath:
    """Path t -> Psi Gamma(t) Psi^{-1} for a fixed symplectic Psi.

    Conjugation maps kernels by Psi and preserves crossing forms, so the
    index is unchanged.
    """
    psi = np.asarray(psi, float)
    if symplectic_defect(psi, path.form) > 1e-7:
        raise ValueError("conjugating matrix must be symplectic for the path's form")
    psi_inv = np.linalg.inv(psi)
    mats = np.einsum("ij,njk,kl->nil", psi, path.mats, psi_inv)

    evaluator = None
    if path.evaluator is not None or path.generator is not None:
        def evaluator(t: float) -> np.ndarray:
            return psi @ path.at(t) @ psi_inv

    return SymplecticPath(
        path.ts.copy(), mats, form=path.form, jmat=path.jmat,
        evaluator=evaluator, tol=max(path.tol, 1e-8),
    )


# -- CSV interface --------------------------------------------------------------


def save_path_csv(path: SymplecticPath, file) -> None:
    """Write one row per sample: t, then row-major matrix entries."""
    d = path.dim
    header = ",".join(["t"] + [f"m{i}{j}" for i in range(d) for j in range(d)])
    rows = np.column_stack([path.ts, path.mats.reshape(len(path.ts), d * d)])
    lines = [header] + [",".join(format(x, ".17g") for x in row) for row in rows]
    write_text(file, "\n".join(lines) + "\n")


def load_path_csv(file, form: np.ndarray | None = None, tol: float = 1e-6) -> SymplecticPath:
    """Read a path written by save_path_csv.

    The form defaults to the standard one; pass the original form for
    paths that preserve a different pairing.  Off-sample evaluation falls
    back to cubic interpolation of the samples.
    """
    data = np.loadtxt(file, delimiter=",", skiprows=1, ndmin=2)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(
            f"non-finite sample {data[row, col]} in data row {row + 1}, column {col + 1}"
        )
    ts = data[:, 0]
    n_entries = data.shape[1] - 1
    d = int(round(np.sqrt(n_entries)))
    if d * d != n_entries:
        raise ValueError(f"row width {n_entries} is not 1 + d^2")
    mats = data[:, 1:].reshape(len(ts), d, d)
    return SymplecticPath(ts, mats, form=form, tol=tol)
