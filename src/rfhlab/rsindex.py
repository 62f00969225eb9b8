"""Robbin-Salamon index of paths of symplectic matrices.

The index of a path Gamma : [0,1] -> Sp(2m) with Gamma(0) = I is the
Maslov index of the pair of Lagrangians (Gr Gamma(t), Delta) in
(R^2m + R^2m, -omega + omega) (Robbin & Salamon, "The Maslov index for
paths", Topology 32 (1993)).  ``rs_index`` and ``rs_index_segment`` compute
it as a winding number.  In a Darboux frame E of the path's form Omega
(E^T Omega E = J_m, by symplectic Gram-Schmidt; none when Omega is J_m) let
G = E^-1 Gamma E, split into m x m blocks, and

    D(t) = det((G_xy - G_yx) + i (G_xx + G_yy)).

D is the determinant of the complex frame F_c of the graph, rows
[I_m, -i I_m] over [G_x. + i G_y.], with the first factor flipped by
diag(I, -I) so that -omega becomes omega.  The Souriau map S(L) = U U^T,
U = F_c (I + G^T G)^(-1/2), turns the crossings of Gr Gamma with Delta into
the eigenvalues 1 of the unitary W(t) = S(Gr Gamma(t)) conj(S(Delta)), and
arg det W = 2 arg D + const (Cappell, Lee & Miller, CPAM 47 (1994)).  Each
eigenphase of W counts its signed passages through 0, half at an end, so
with the eigenphases phi_j(t) of W at the ends and s(phi) = phi mod 2 pi in
(0, 2 pi), s = pi where |phi| <= END_TOL (an end crossing), the index on
[a, b] is

    2 mu = [2 sum_k arg(D_{k+1} / D_k) - sum_j s(phi_j(b)) + sum_j s(phi_j(a))] / pi

over the samples t_k from a to b.  At a = 0, W = I and the last sum is
2 m pi.  The index is defined for every path: no crossing has to be
regular, and the cost is one batched m x m complex determinant per sample.
A sample step with |arg(D_{k+1} / D_k)| >= pi / 2 is halved with
``path.at``, up to REFINE_DEPTH times; ResolutionError if that does not
resolve it, or if 2 mu lies more than 1e-6 from an integer.  The sign
convention is pinned by three anchors: the constant identity path has
index 0, the full rotation t -> exp(2 pi t J_1) in Sp(2) has index 2, and
the explicit unipotent 4 x 4 path built by ``theta_path`` has index 0.

``rs_index_detailed`` still lists the crossings by the crossing scan below,
until the scan is retired (ROADMAP item 3).  A crossing is a time t* with
det(Gamma(t*) - I) = 0; the crossing form is the symmetric bilinear form

    Q(v, w) = omega(Gamma'(t*) v, w)      on ker(Gamma(t*) - I),

and the scan's index is

    1/2 sig Q(0)  +  sum over interior crossings of sig Q  +  1/2 sig Q(1),

each endpoint term present only when the endpoint is a crossing.  When a
path carries a generator, i.e. a symmetric S(t) with Gamma' = J S Gamma and
the matrix J equal to the matrix of the form, the crossing form reduces to
S(t*) restricted to the kernel; the scan uses the omega-based formula
uniformly, which agrees with that reduction.

The scan needs interior crossings to be regular (nondegenerate crossing
form).  A degenerate interior crossing raises IrregularCrossingError; the
caller resolves it with ``perturbed_path``, which replaces the generator S
by S - delta*I.  Intervals on which the path remains singular ("plateaus",
runs of two or more singular samples) are admitted when the crossing form
vanishes identically on the kernel there; they contribute zero, like
constant identity segments.  The kernel dimension a plateau keeps
throughout is its background.  The scan counts nothing where kernel
directions leave at a plateau's end or at a degenerate start, so where
they do (a rotation that starts late) it differs from the winding, which
counts them.

The scan takes one batched SVD and determinant of Gamma(t_k) - I over the
samples, checks all plateau samples at once (their kernels from one more
batched SVD), and makes one pass over the samples that emits candidates
in time order: a singular end of the segment (an endpoint crossing); a
sign change of det(Gamma - I) off plateaus, which a simple crossing
always makes (bisected; on a plateau the determinant is rounding noise);
and a dip, a sampled local minimum of the product of the
singular values above the background (golden-section search).  One rule
accepts a located time: it lies more than SEPARATION from the crossings
found and the segment ends, and its singular value above the background
is at most CROSS_TOL; up to 100 CROSS_TOL raises ResolutionError.  Around
each interior crossing, and around a singular end with kernel directions
above the background, the dips are sought again with its factor
|t - t*|^d divided out, which finds a second crossing within a few
samples that shares its sampled dip; such a search refuses a time within
DIVIDED_GAP of the crossing it divides out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._files import write_text
from .symlin import SymmetricForm, standard_jmat, symplectic_defect

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
    """The crossing scan met an interior crossing with a degenerate form.

    The scan cannot count such a crossing from its local data; perturb
    the generator (see ``perturbed_path``) and recompute.  ``rs_index``
    needs no regularity and never raises it.
    """


class ResolutionError(RuntimeError):
    """The index is not resolved at the sampling resolution.

    Rebuild the path with a finer sample grid.
    """


class MissingGeneratorError(RuntimeError):
    """The operation requires a path with a generator S(t)."""


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Exact element of (1/2) Z, stored as twice its value."""

    twice_value: int

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


# tolerances of the index engine, suitable for unit-scale paths
CROSS_TOL = 1e-8          # sigma_min below this counts as singular
KERNEL_TOL = 1e-6         # singular values below this span the kernel
VANISH_TOL = 1e-7         # plateau crossing forms must stay below this
DEGENERATE_TOL = 1e-7     # crossing-form eigenvalue cluster width
TIME_TOL = 1e-10          # refinement tolerance for crossing times
SEPARATION = 10 * TIME_TOL  # interior crossings lie further from each other and the ends
DIVIDED_GAP = 1e-6        # a search with a crossing divided out lands further from it
END_TOL = 1e-9            # an eigenphase of W this close to 0 at an end is a crossing
REFINE_DEPTH = 8          # halvings of a sample step whose phase turns by pi/2 or more


class SymplecticPath:
    """Sampled path of symplectic matrices on [0, 1].

    Attributes:
        ts: strictly increasing sample times, ts[0] = 0, ts[-1] = 1.
        mats: array (N, 2m, 2m) of samples; mats[0] = I.
        form: matrix Omega of the symplectic form the samples preserve,
            and the J of the generator equation Gamma' = J S Gamma; that
            one matrix plays both parts is what makes the crossing form
            equal to S on the kernel.
        generator: optional callable t -> S(t), symmetric.
        evaluator: optional callable t -> Gamma(t), a closed form.
        fields: with a generator, the stack (N, 2m, 2m) of J S(t_k) at
            the sample times.  ``path_from_generator`` keeps the one it
            integrated with; ``theta_path`` and ``rotation_path`` carry a
            read-only broadcast of their one constant J S; ``block_diag``
            on a shared grid places its parts' stacks in blocks when both
            carry one.  Any other path calls its generator once per sample
            on first use.

    Off-sample values come from the evaluator; without one, from cubic
    Hermite interpolation on Gamma_k and Gamma'_k = J S(t_k) Gamma_k when
    the path has a generator (error O(h^4), the order of RK4), else from
    cubic interpolation of the four nearest samples.
    """

    def __init__(
        self,
        ts: Sequence[float],
        mats: Sequence[np.ndarray],
        form: np.ndarray | None = None,
        generator: Callable[[float], np.ndarray] | None = None,
        evaluator: Callable[[float], np.ndarray] | None = None,
        tol: float = 1e-7,
    ):
        self.ts = np.asarray(ts, dtype=float)
        self.mats = np.asarray(mats, dtype=float)
        if self.mats.ndim != 3 or self.mats.shape[1] != self.mats.shape[2]:
            raise ValueError("mats must be a stack of square matrices")
        self.dim = self.mats.shape[1]
        if self.dim % 2 != 0:
            raise ValueError("path dimension must be even")
        self.form = standard_jmat(self.dim // 2) if form is None else np.asarray(form, float)
        self.generator = generator
        self.evaluator = evaluator
        self.tol = float(tol)
        self._fields = None
        self._slopes = None
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
        rhs = self.form @ self.generator(float(self.ts[i])) @ self.mats[i]
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
            return self._hermite(t)
        return self._interpolate(t)

    @property
    def fields(self) -> np.ndarray:
        """J S(t_k) at the sample times (needs a generator)."""
        if self._fields is None:
            if self.generator is None:
                raise MissingGeneratorError("the path has no generator")
            self._fields = _field_stack(self.generator, self.form, self.ts)
        return self._fields

    def _hermite(self, t: float) -> np.ndarray:
        i = int(np.searchsorted(self.ts, t, side="right")) - 1
        i = min(max(i, 0), len(self.ts) - 2)
        t0 = float(self.ts[i])
        if t == t0:
            return self.mats[i].copy()
        if self._slopes is None:
            self._slopes = self.fields @ self.mats
        h = float(self.ts[i + 1]) - t0
        s = (t - t0) / h
        s2, s3 = s * s, s * s * s
        return ((2 * s3 - 3 * s2 + 1) * self.mats[i] + (3 * s2 - 2 * s3) * self.mats[i + 1]
                + ((s3 - 2 * s2 + s) * h) * self._slopes[i] + ((s3 - s2) * h) * self._slopes[i + 1])

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
            return self.form @ self.generator(float(t)) @ self.at(t)
        h = 1e-6
        if t < h:
            return (-3 * self.at(t) + 4 * self.at(t + h) - self.at(t + 2 * h)) / (2 * h)
        if t > 1 - h:
            return (3 * self.at(t) - 4 * self.at(t - h) + self.at(t - 2 * h)) / (2 * h)
        return (self.at(t + h) - self.at(t - h)) / (2 * h)

    @property
    def n_samples(self) -> int:
        return len(self.ts)


def _field_stack(gen, jmat: np.ndarray, times: np.ndarray) -> np.ndarray:
    """J S(t) at each of the times, from one call of ``gen`` per time with a float."""
    out = np.empty((len(times),) + jmat.shape)
    for i, t in enumerate(times.tolist()):
        out[i] = gen(t)
    return np.matmul(jmat, out, out=out)


# -- the winding of det D ------------------------------------------------------


def _darboux_frame(form: np.ndarray) -> np.ndarray | None:
    """E with E^T form E = J_m by symplectic Gram-Schmidt; None when form is J_m."""
    dim = form.shape[0]
    m = dim // 2
    if np.array_equal(form, standard_jmat(m)):
        return None
    rest = np.eye(dim)  # columns not yet paired, omega-orthogonal to the pairs
    es, fs = [], []
    for _ in range(m):
        e = rest[:, 0]
        pairing = e @ form @ rest
        j = int(np.argmax(np.abs(pairing)))
        if abs(pairing[j]) <= 1e-12:
            raise ValueError("the path's form is degenerate")
        f = rest[:, j] / -pairing[j]  # omega(e, f) = -1, the pairing of J_m
        rest = np.delete(rest, [0, j], axis=1)
        rest = rest - np.outer(e, f @ form @ rest) + np.outer(f, e @ form @ rest)
        es.append(e)
        fs.append(f)
    return np.column_stack(es + fs)


def _graph_dets(g: np.ndarray) -> np.ndarray:
    """D = det((G_xy - G_yx) + i (G_xx + G_yy)) for a stack of G in J_m form."""
    m = g.shape[-1] // 2
    x, y = g[:, :m], g[:, m:]
    return np.linalg.det((x[..., m:] - y[..., :m]) + 1j * (x[..., :m] + y[..., m:]))


def _end_phases(g: np.ndarray) -> np.ndarray:
    """s(phi) summed over the eigenphases phi of W = S(Gr G) conj(S(Delta)), per G.

    S(Delta) = [[0, I], [I, 0]] is real, so W is S(Gr G) with its column
    blocks swapped.
    """
    m = g.shape[-1] // 2
    eye = np.eye(m)
    frames = np.empty(g.shape, complex)
    frames[:, :m] = np.hstack((eye, -1j * eye))
    frames[:, m:] = g[:, :m] + 1j * g[:, m:]
    lam, vec = np.linalg.eigh(np.eye(2 * m) + g.transpose(0, 2, 1) @ g)
    u = frames @ (vec / np.sqrt(lam)[:, None, :]) @ vec.transpose(0, 2, 1)
    souriau = u @ u.transpose(0, 2, 1)
    phases = np.angle(np.linalg.eigvals(np.concatenate((souriau[..., m:], souriau[..., :m]), axis=-1)))
    return np.where(np.abs(phases) <= END_TOL, np.pi, np.mod(phases, 2 * np.pi)).sum(axis=1)


def _winding(path: SymplecticPath, a: float, b: float) -> HalfInteger:
    """Twice the index on [a, b] from the winding of D (see the module docstring)."""
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1")
    frame = _darboux_frame(path.form)
    inverse = None if frame is None else np.linalg.inv(frame)

    def graphs(mats):
        return mats if frame is None else inverse @ mats @ frame

    if a == 0.0 and b == 1.0:
        ts, mats = path.ts, path.mats
    else:
        inside = (path.ts > a + 1e-14) & (path.ts < b - 1e-14)
        ts = np.concatenate(([a], path.ts[inside], [b]))
        mats = np.concatenate(([path.at(a)], path.mats[inside], [path.at(b)]))
    g = graphs(mats)
    dets = _graph_dets(g)
    steps = np.angle(dets[1:] / dets[:-1])

    def refined(t0, t1, d0, d1, depth):
        step = float(np.angle(d1 / d0))
        if abs(step) < np.pi / 2:
            return step
        if depth == 0:
            raise ResolutionError(
                f"det D turns by {step:+.3f} rad within [{t0:.9f}, {t1:.9f}]; "
                f"rebuild the path with finer sampling"
            )
        tm = 0.5 * (t0 + t1)
        dm = _graph_dets(graphs(path.at(tm)[None]))[0]
        return refined(t0, tm, d0, dm, depth - 1) + refined(tm, t1, dm, d1, depth - 1)

    for k in np.flatnonzero(np.abs(steps) >= np.pi / 2):
        steps[k] = refined(ts[k], ts[k + 1], dets[k], dets[k + 1], REFINE_DEPTH)
    start, end = _end_phases(g[[0, -1]])
    twice = (2.0 * float(np.sum(steps)) - end + start) / np.pi
    whole = round(twice)
    if abs(twice - whole) > 1e-6:
        raise ResolutionError(
            f"twice the index, {twice:.9f}, is not an integer; rebuild the path with finer sampling"
        )
    return HalfInteger(int(whole))


# -- crossing machinery -------------------------------------------------------


def _kernel_mask(svals: np.ndarray) -> np.ndarray:
    """Which right singular vectors of Gamma(t) - I span its numerical kernel.

    Works on one spectrum or a stack; the smallest direction always counts.
    """
    mask = svals <= np.maximum(KERNEL_TOL, 1e-9 * svals[..., :1])
    mask[..., -1] = True
    return mask


def _crossing(path: SymplecticPath, t: float, mat: np.ndarray, kind: str, background: int = 0) -> Crossing:
    """Crossing data at time t, where Gamma(t) = mat.

    ``background`` is the dimension of a persistent singular direction
    field (a plateau the crossing is embedded in); exactly that many
    crossing-form eigenvalues may vanish at an interior crossing, and
    they contribute nothing.  Endpoint crossings may be degenerate.
    """
    _, svals, vt = np.linalg.svd(mat - np.eye(path.dim))
    kernel = vt[_kernel_mask(svals)].T
    # Gamma'(t) = J S(t) Gamma(t) needs no path evaluation
    dgamma = (path.derivative(t) if path.generator is None
              else path.form @ path.generator(float(t)) @ mat)
    form = SymmetricForm(kernel.T @ dgamma.T @ path.form @ kernel)
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


def _check_plateaus(path, ts, mats, kdims, background) -> None:
    """Raise IrregularCrossingError unless the crossing form vanishes on the
    kernel at every interior plateau sample whose kernel is the background."""
    idx = np.flatnonzero((background > 0) & (kdims == background))
    idx = idx[(idx > 0) & (idx < len(ts) - 1)]
    if not idx.size:
        return
    _, svals, vt = np.linalg.svd(mats[idx] - np.eye(path.dim))
    if path.generator is None:
        dgamma = np.array([path.derivative(t) for t in ts[idx]])
    else:  # interior samples of a segment are samples of the path
        dgamma = path.fields[np.searchsorted(path.ts, ts[idx])] @ mats[idx]
    forms = ((vt @ dgamma.transpose(0, 2, 1)) @ path.form) @ vt.transpose(0, 2, 1)
    mask = _kernel_mask(svals)
    worst = np.max(np.abs(forms) * (mask[:, :, None] & mask[:, None, :]), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(dgamma), axis=(1, 2)))
    bad = np.flatnonzero(worst > VANISH_TOL * scale)
    if bad.size:
        raise IrregularCrossingError(
            f"nonvanishing crossing form on singular plateau near "
            f"t={ts[idx[bad[0]]]:.6f}; perturb the generator and retry"
        )


def _locate(path: SymplecticPath, lo: float, hi: float, background: int,
            det_lo=None, divide=(0.0, 0)) -> float:
    """Crossing time in the bracket [lo, hi], to TIME_TOL.

    With ``det_lo``, det(Gamma - I) at lo, the determinant changes sign
    over the bracket and is bisected.  Otherwise golden-section search
    minimizes the product of the singular values of Gamma(t) - I above the
    background, divided by |t - s|^d for ``divide`` = (s, d).  Unlike the
    smallest singular value, the product still dips at a crossing of one
    invariant block when another block passes close to the identity.
    """
    eye = np.eye(path.dim)
    if det_lo is not None:
        while hi - lo > TIME_TOL:
            mid = 0.5 * (lo + hi)
            det = float(np.linalg.det(path.at(mid) - eye))
            if det == 0.0:
                return mid
            if (det < 0) == (det_lo < 0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def product(t):
        svals = np.linalg.svd(path.at(t) - eye, compute_uv=False)
        return float(np.prod(svals[: path.dim - background])) / abs(t - divide[0]) ** divide[1]

    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
    f1, f2 = product(x1), product(x2)
    while hi - lo > TIME_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = product(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = product(x2)
    return 0.5 * (lo + hi)


def rs_index_segment(path: SymplecticPath, a: float = 0.0, b: float = 1.0) -> HalfInteger:
    """Index contribution of Gamma restricted to [a, b], from the winding of D.

    The end corrections at a and b are the same terms with opposite signs,
    so the index is additive under concatenation at every time c:
    rs_index_segment(p, 0, c) + rs_index_segment(p, c, 1) equals rs_index(p).
    """
    return _winding(path, float(a), float(b))


def rs_index_detailed(path: SymplecticPath):
    """Index of the full path together with the list of crossings, by the crossing scan."""
    return _segment_detailed(path, 0.0, 1.0)


def rs_index(path: SymplecticPath) -> HalfInteger:
    """Robbin-Salamon index of the path as an exact half-integer, from the winding of D.

    Uses the samples alone, unless a sample step needs refining.

    Raises:
        ResolutionError: the samples are too coarse for the winding.
    """
    return _winding(path, 0.0, 1.0)


def _segment_detailed(path, a, b):
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1")
    dim, eye = path.dim, np.eye(path.dim)
    inside = (path.ts > a + 1e-14) & (path.ts < b - 1e-14)
    ts = np.concatenate(([a], path.ts[inside], [b]))
    if a == 0.0 and b == 1.0:
        mats = np.concatenate((path.mats[:1], path.mats[inside], path.mats[-1:]))
    else:
        mats = np.array([path.at(t) for t in ts])
    n = len(ts)
    svals = np.linalg.svd(mats - eye, compute_uv=False)
    det = np.linalg.det(mats - eye)
    kdims = np.sum(svals <= CROSS_TOL, axis=1)

    # a plateau is a run of two or more singular samples; the kernel
    # dimension it keeps throughout is its background
    background = np.zeros(n, dtype=int)
    bounds = np.flatnonzero(np.diff(np.concatenate(([0], kdims > 0, [0]))))
    for i0, i1 in zip(bounds[::2], bounds[1::2]):
        if i1 - i0 > 1:
            background[i0:i1] = np.min(kdims[i0:i1])
    _check_plateaus(path, ts, mats, kdims, background)
    above = np.arange(dim) < dim - background[:, None]
    product = np.prod(np.where(above, svals, 1.0), axis=1)

    # candidates (see the module docstring).  A sample next to a plateau is
    # no dip, and a plateau's edge is not bounded by the sample outside it;
    # a sample next to a sign change leaves its crossing to the bisection;
    # a regular end is a dip only when the product falls into it and is
    # already small there (``low_end``)
    ends = np.isin(np.arange(n), (0, n - 1))
    endpoint = ends & (kdims > 0)
    low_end = ends & ~endpoint & (product <= 0.05 * np.max(product))
    bg0, bg1 = background[:-1], background[1:]
    flips = np.append((det[:-1] * det[1:] < 0) & (bg0 == 0) & (bg1 == 0), False)
    rise = np.diff(product)
    dips = (
        np.append((bg0 > bg1) | ((bg0 == bg1) & (rise >= 0)), True)
        & np.insert((bg1 > bg0) | ((bg0 == bg1) & (rise <= 0)), 0, True)
        & ~flips & ~np.insert(flips[:-1], 0, False)
        & (background < dim) & (~ends | low_end)
    )

    crossings: list[Crossing] = []
    halves = 0
    taken = [a, b]

    def accept(lo, hi, bg, det_lo=None, divide=(0.0, 0)):
        nonlocal halves
        t = _locate(path, lo, hi, bg, det_lo, divide)
        if min(abs(t - s) for s in taken) <= SEPARATION:
            return
        if divide[1] and abs(t - divide[0]) <= DIVIDED_GAP:
            return  # the divided crossing's own small singular value
        mat = path.at(t)
        sigma = np.linalg.svd(mat - eye, compute_uv=False)[-(bg + 1)]
        if sigma > 100 * CROSS_TOL:
            return
        if sigma > CROSS_TOL:
            raise ResolutionError(
                f"unresolved near-crossing at t={t:.9f} "
                f"(sigma_min={sigma:.3e}); rebuild the path with finer sampling"
            )
        c = _crossing(path, t, mat, "interior", bg)
        crossings.append(c)
        taken.append(t)
        halves += 2 * c.sig
        research(t, c.kernel_basis.shape[1] - bg, bg)

    def research(t, d, bg):
        # a crossing within a few samples of the one at t can share its
        # sampled dip; with that one's factor |t - t*|^d divided out it shows
        # its own.  A low end is bounded by its one neighbour, for a crossing
        # that shares the end interval
        k = int(np.searchsorted(ts, t))
        near = np.arange(max(k - 4, 0), min(k + 4, n))
        with np.errstate(divide="ignore", invalid="ignore"):
            rest = product[near] / np.abs(ts[near] - t) ** d
        last = len(near) - 1
        for i in range(last + 1):
            if (i in (0, last) and not low_end[near[i]]) or background[near[i]] != bg:
                continue
            i0, i1 = max(i - 1, 0), min(i + 1, last)
            if rest[i] <= min(rest[i0], rest[i1]):
                accept(ts[near[i0]], ts[near[i1]], bg, divide=(t, d))

    for k in np.flatnonzero(endpoint | dips | flips):
        if endpoint[k]:
            c = _crossing(path, ts[k], mats[k], "start" if k == 0 else "end")
            crossings.append(c)
            halves += c.sig
            # a crossing in the last interval can hide in the end's dip
            if k == n - 1 and c.kernel_basis.shape[1] > background[k]:
                research(ts[k], c.kernel_basis.shape[1] - background[k], background[k])
        if dips[k]:
            accept(ts[max(k - 1, 0)], ts[min(k + 1, n - 1)], background[k])
        if flips[k]:
            accept(ts[k], ts[k + 1], background[k], det[k])

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
    mats = np.eye(4) + ts[:, None, None] * nmat
    path = SymplecticPath(
        ts, mats, form=form, generator=lambda t: cmat, evaluator=evaluate, tol=1e-10
    )
    path._fields = np.broadcast_to(form @ cmat, mats.shape)
    return path


def rotation_path(m: int, angle: float, n_samples: int = 513) -> SymplecticPath:
    """Path t -> exp(t * angle * J_m) with constant generator angle * I."""
    jmat = standard_jmat(m)
    eye = np.eye(2 * m)

    def evaluate(t: float) -> np.ndarray:
        return np.cos(angle * t) * eye + np.sin(angle * t) * jmat

    ts = np.linspace(0.0, 1.0, n_samples)
    angles = angle * ts[:, None, None]
    mats = np.cos(angles) * eye
    mats += np.sin(angles) * jmat
    gen = angle * eye
    path = SymplecticPath(
        ts, mats, generator=lambda t: gen, evaluator=evaluate, tol=1e-9
    )
    path._fields = np.broadcast_to(jmat @ gen, mats.shape)
    return path


def path_from_generator(
    gen: Callable[[float], np.ndarray],
    dim: int,
    form: np.ndarray | None = None,
    n_steps: int = 1024,
    tol: float = 1e-7,
) -> SymplecticPath:
    """Integrate Gamma' = J S(t) Gamma, Gamma(0) = I by fixed-step RK4.

    ``gen`` is called once at each of the 2 n_steps + 1 step and midpoint
    times, always with a float.  The equation is linear, so RK4 step k is
    a propagator P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) that depends on
    J S at the step's start, midpoint and end alone; the propagators come
    from batched products and Gamma_{k+1} = P_k Gamma_k.  The path keeps
    the stack of J S(t_k) at its samples (``fields``), so its off-sample
    values, cubic Hermite on Gamma_k and Gamma'_k, call ``gen`` no more.

    Raises ValueError if the integrated samples lose the symplectic
    condition beyond ``tol`` (reduce the step by raising n_steps).
    """
    form = standard_jmat(dim // 2) if form is None else np.asarray(form, float)
    h = 1.0 / n_steps
    fields = _field_stack(gen, form, np.linspace(0.0, 1.0, 2 * n_steps + 1))
    start, mid, end = fields[:-1:2], fields[1::2], fields[2::2]
    k = mid + (0.5 * h) * (mid @ start)  # K2
    steps = start + 2 * k
    k = mid + (0.5 * h) * (mid @ k)  # K3
    steps += 2 * k
    steps += end + h * (end @ k)  # K4
    steps *= h / 6.0
    steps += np.eye(dim)
    mats = np.empty((n_steps + 1, dim, dim))
    mats[0] = np.eye(dim)
    for k in range(n_steps):
        np.matmul(steps[k], mats[k], out=mats[k + 1])
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    try:
        path = SymplecticPath(ts, mats, form=form, tol=tol)
    except ValueError as exc:
        raise ValueError(f"integration lost symplecticity: {exc}; raise n_steps") from exc
    # attached after construction: the samples solve Gamma' = J S Gamma by
    # construction, so the constructor's spot check, one more call of gen,
    # has nothing to test
    path.generator, path._fields = gen, fields[::2].copy()
    return path


def perturbed_path(path: SymplecticPath, delta: float, n_steps: int = 2048) -> SymplecticPath:
    """Path generated by S(t) - delta * I, for resolving degenerate crossings.

    For |delta| below the spectral scale of the asymptotic data, the index
    shifts by -sgn(delta) * (dim of the endpoint eigenvalue-1 kernel) / 2.
    Requires the input path to carry a generator.
    """
    if path.generator is None:
        raise MissingGeneratorError("perturbed_path requires a path with a generator")
    base = path.generator
    shift = delta * np.eye(path.dim)

    def gen(t: float) -> np.ndarray:
        return base(t) - shift

    return path_from_generator(gen, path.dim, form=path.form, n_steps=n_steps, tol=max(path.tol, 1e-8))


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

    same_grid = len(ts) == len(p1.ts) == len(p2.ts)
    if same_grid:
        mats = np.zeros((len(ts), d1 + d2, d1 + d2))
        mats[:, :d1, :d1] = p1.mats
        mats[:, d1:, d1:] = p2.mats
    else:
        mats = np.array([joined(p1.at(t), p2.at(t)) for t in ts])
    form = joined(p1.form, p2.form)

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

    path = SymplecticPath(
        ts, mats, form=form, generator=generator, evaluator=evaluator,
        tol=max(p1.tol, p2.tol),
    )
    if same_grid and p1._fields is not None and p2._fields is not None:
        path._fields = np.zeros(mats.shape)
        path._fields[:, :d1, :d1] = p1._fields
        path._fields[:, d1:, d1:] = p2._fields
    return path


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
        path.ts.copy(), mats, form=path.form,
        evaluator=evaluator, tol=max(path.tol, 1e-8),
    )


# -- CSV interface --------------------------------------------------------------


def save_path_csv(path: SymplecticPath, file) -> None:
    """Write one row per sample: t, then row-major matrix entries."""
    d = path.dim
    header = ",".join(["t"] + [f"m{i}{j}" for i in range(d) for j in range(d)])
    rows = np.column_stack([path.ts, path.mats.reshape(len(path.ts), d * d)])
    template = ",".join(["%.17g"] * (d * d + 1))
    lines = [header] + [template % tuple(row.tolist()) for row in rows]
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
