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

``rs_index_detailed`` returns the same value with the list of crossings,
read from the same samples.  One batched ``eigvals`` gives the eigenphases
of W at every sample, and the net count of each sample interval,

    c_k = [2 arg(D_{k+1} / D_k) - sum_j s(phi_j(t_{k+1})) + sum_j s(phi_j(t_k))] / pi,

telescopes to 2 mu.  An interval with c_k != 0, or across which the number
of zero eigenphases (|phi| <= END_TOL) changes, is bisected with ``path.at``
down to TIME_TOL; each piece left holds one passage of eigenphases into,
out of or through the zero band.  Passages out of the band just after a
sample where W has zero eigenphases, and into it just before one, belong
to that sample; the others pair up into crossings between samples, each
located where an eigenphase is within END_TOL.  A crossing's ``sig`` is
the number of eigenphases passing 0 upwards less those passing downwards.
An interior crossing adds 2 sig to twice the index; a start, an end or a
plateau edge (where the number of zero eigenphases changes) adds sig, half
weight.  The start is always listed, the end when W(1) has a zero
eigenphase, and a crossing that sits on a sample is one entry at that
sample.  The contributions sum to 2 mu by construction, and no crossing
has to be regular.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._files import read_csv_floats, write_chunks
from .symlin import standard_jmat, symplectic_defect

__all__ = [
    "HalfInteger",
    "Crossing",
    "SymplecticPath",
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
    """A time where W has the eigenphase 0, i.e. Gamma(t) has the eigenvalue 1.

    ``sig`` counts the eigenphases passing 0 upwards less those passing
    downwards; ``kernel_dim`` is the number of eigenphases within END_TOL
    at ``time``.
    """

    time: float
    kind: str  # "start" | "interior" | "plateau" | "end"
    sig: int
    kernel_dim: int

    @property
    def contribution(self) -> HalfInteger:
        """The crossing's share of the index: sig, half of it off the interior."""
        return HalfInteger(2 * self.sig if self.kind == "interior" else self.sig)


# tolerances of the index engine, suitable for unit-scale paths
TIME_TOL = 1e-10          # bisection tolerance for crossing times
END_TOL = 1e-9            # an eigenphase of W this close to 0 is a zero eigenphase
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
        generator: optional callable mapping an array of N times to the
            stack (N, 2m, 2m) of the symmetric S(t).
        evaluator: optional callable t -> Gamma(t), a closed form.
        fields: with a generator, the stack (N, 2m, 2m) of J S(t_k) at
            the sample times, from one generator call on first use;
            ``path_from_generator`` keeps the one it integrated with.

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
        generator: Callable[[np.ndarray], np.ndarray] | None = None,
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
        defects = probe.transpose(0, 2, 1) @ self.form @ probe - self.form
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
        rhs = self.form @ _stack(self.generator, self.ts[i:i + 1], self.dim)[0] @ self.mats[i]
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
            self._fields = self.form @ _stack(self.generator, self.ts, self.dim)
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

    @property
    def n_samples(self) -> int:
        return len(self.ts)


def _stack(gen, times: np.ndarray, dim: int) -> np.ndarray:
    """S(t) at the times, from one call of ``gen`` with the array of times."""
    stack = gen(times)
    if np.shape(stack) != (len(times), dim, dim):
        raise ValueError(f"a generator maps N times to a stack of shape (N, {dim}, {dim}); "
                         f"got shape {np.shape(stack)} for N = {len(times)}")
    return stack


def _constant(s: np.ndarray):
    """The generator of the constant S(t) = s: a read-only broadcast of s."""
    return lambda t: np.broadcast_to(s, (len(t),) + s.shape)


def _prefix_products(steps: np.ndarray, out: np.ndarray) -> None:
    """out[k] = steps[k] ... steps[0] by the Hillis-Steele scan (CACM 29 (1986)): level s
    multiplies each partial product by the one s places before it, in ceil(log2 N) batched
    products that read one of ``steps`` (overwritten) and ``out`` and write the other."""
    src, dst, shift = steps, out, 1
    while shift < len(steps):
        dst[:shift] = src[:shift]
        np.matmul(src[shift:], src[:-shift], out=dst[shift:])
        src, dst, shift = dst, src, 2 * shift
    if src is not out:
        out[...] = src


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


@functools.lru_cache(maxsize=16)
def _frames(form_bytes: bytes, shape: tuple) -> tuple:
    """(E, E^-1) from `_darboux_frame` as read-only arrays, or (None, None),
    for the float form with these bytes and shape; paths share few forms."""
    frame = _darboux_frame(np.frombuffer(form_bytes).reshape(shape))
    if frame is None:
        return None, None
    inverse = np.linalg.inv(frame)
    frame.setflags(write=False)
    inverse.setflags(write=False)
    return frame, inverse


def _graph_dets(g: np.ndarray) -> np.ndarray:
    """D = det((G_xy - G_yx) + i (G_xx + G_yy)) for a stack of G in J_m form."""
    m = g.shape[-1] // 2
    x, y = g[:, :m], g[:, m:]
    return np.linalg.det((x[..., m:] - y[..., :m]) + 1j * (x[..., :m] + y[..., m:]))


def _phases(g: np.ndarray) -> np.ndarray:
    """Eigenphases of the Souriau unitary W = S(Gr G) conj(S(Delta)), one row per G.

    S(Delta) = [[0, I], [I, 0]] is real, so W is S(Gr G) with its column
    blocks swapped.  Its eigenvalues are taken centred on their mean:
    LAPACK's QR iteration can stall on the rounding noise off the diagonal
    of a W next to a multiple of I, as at the end of the rotation by
    1.5294913529348413 in Sp(2).
    """
    m = g.shape[-1] // 2
    eye = np.eye(m)
    frames = np.empty(g.shape, complex)
    frames[:, :m] = np.hstack((eye, -1j * eye))
    frames[:, m:] = g[:, :m] + 1j * g[:, m:]
    lam, vec = np.linalg.eigh(np.eye(2 * m) + g.transpose(0, 2, 1) @ g)
    u = frames @ (vec / np.sqrt(lam)[:, None, :]) @ vec.transpose(0, 2, 1)
    souriau = u @ u.transpose(0, 2, 1)
    w = np.concatenate((souriau[..., m:], souriau[..., :m]), axis=-1)
    mean = np.trace(w, axis1=1, axis2=2)[:, None] / (2 * m)
    return np.angle(np.linalg.eigvals(w - mean[..., None] * np.eye(2 * m)) + mean)


def _phase_sums(phases: np.ndarray) -> np.ndarray:
    """s(phi) summed over each row of eigenphases (see the module docstring)."""
    return np.where(np.abs(phases) <= END_TOL, np.pi, np.mod(phases, 2 * np.pi)).sum(axis=-1)


def _sampled(path: SymplecticPath, a: float, b: float):
    """The winding's samples on [a, b]: times, Darboux-framed G, D at each, the
    steps of arg D between them (refined where needed), and the map from a
    stack of Gamma to its stack of G."""
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1")
    frame, inverse = _frames(path.form.tobytes(), path.form.shape)

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
    return ts, g, dets, steps, graphs


def _twice(steps: np.ndarray, start: float, end: float) -> HalfInteger:
    """The index from the steps of arg D and the sums of s(phi) at the two ends."""
    twice = (2.0 * float(np.sum(steps)) - end + start) / np.pi
    whole = round(twice)
    if abs(twice - whole) > 1e-6:
        raise ResolutionError(
            f"twice the index, {twice:.9f}, is not an integer; rebuild the path with finer sampling"
        )
    return HalfInteger(int(whole))


def _winding(path: SymplecticPath, a: float, b: float) -> HalfInteger:
    """The index on [a, b] from the winding of D (see the module docstring)."""
    _, g, _, steps, _ = _sampled(path, a, b)
    start, end = _phase_sums(_phases(g[[0, -1]]))
    return _twice(steps, start, end)


def rs_index_segment(path: SymplecticPath, a: float = 0.0, b: float = 1.0) -> HalfInteger:
    """Index contribution of Gamma restricted to [a, b], from the winding of D.

    The end corrections at a and b are the same terms with opposite signs,
    so the index is additive under concatenation at every time c:
    rs_index_segment(p, 0, c) + rs_index_segment(p, c, 1) equals rs_index(p).
    """
    return _winding(path, float(a), float(b))


def rs_index(path: SymplecticPath) -> HalfInteger:
    """Robbin-Salamon index of the path as an exact half-integer, from the winding of D.

    Uses the samples alone, unless a sample step needs refining.

    Raises:
        ResolutionError: the samples are too coarse for the winding.
    """
    return _winding(path, 0.0, 1.0)


def rs_index_detailed(path: SymplecticPath):
    """Index of the full path and its crossings in time order, from the eigenphases of W.

    The index is ``rs_index``'s, and the crossings' contributions sum to it
    (see the module docstring).
    """
    ts, g, dets, steps, graphs = _sampled(path, 0.0, 1.0)
    phases = _phases(g)
    sums = _phase_sums(phases)
    value = _twice(steps, sums[0], sums[-1])
    zeros = np.sum(np.abs(phases) <= END_TOL, axis=1)
    counts = np.rint((2 * steps - np.diff(sums)) / np.pi).astype(int)

    # a state is (t, D, sum of s(phi), number of zero eigenphases) at one time
    def sample(k):
        return float(ts[k]), dets[k], sums[k], int(zeros[k])

    def state(t):
        gt = graphs(path.at(t)[None])
        ph = _phases(gt)
        return t, _graph_dets(gt)[0], _phase_sums(ph)[0], int(np.sum(np.abs(ph) <= END_TOL))

    def count(x, y):
        return int(np.rint((2 * np.angle(y[1] / x[1]) - y[2] + x[2]) / np.pi))

    def pieces(x, y, c):
        # the pieces of [x, y], at most TIME_TOL long, holding a passage, in time order
        if c == 0 and x[3] == y[3]:
            return []
        if y[0] - x[0] <= TIME_TOL:
            return [(x, y, c)]
        mid = state(0.5 * (x[0] + y[0]))
        left = count(x, mid)
        return pieces(x, mid, left) + pieces(mid, y, c - left)

    def located(x, y):
        # bisect the sign of the eigenphase crossing within [x, y] into END_TOL
        while True:
            mid = state(0.5 * (x[0] + y[0]))
            if mid[3] > x[3] or not x[0] < mid[0] < y[0]:
                return mid
            x, y = (x, mid) if count(x, mid) else (mid, y)

    def entry(x, run, kind=None):
        c = sum(p[2] for p in run)
        if kind is None:
            kind = "plateau" if sum(p[1][3] - p[0][3] for p in run) else "interior"
        return Crossing(x[0], kind, int(c // 2 if kind == "interior" else c), x[3])

    # passages out of the band just after a sample with zero eigenphases
    # (departures) and into it just before one (arrivals) belong to that
    # sample; the other passages of an interval pair up into crossings
    departs, arrives, between = {}, {}, []
    for k in np.flatnonzero((counts != 0) | (zeros[:-1] != zeros[1:])):
        run, depth = [], 0
        for p in pieces(sample(k), sample(k + 1), int(counts[k])):
            rise = p[1][3] - p[0][3]
            if not run and rise < 0 and zeros[k]:
                departs.setdefault(k, []).append(p)
            elif run or rise > 0:
                run.append(p)
                depth += rise
                if depth <= 0:
                    between.append(run)
                    run, depth = [], 0
            else:
                between.append([p])
        if run and zeros[k + 1]:
            arrives[k + 1] = run
        elif run:
            between.append(run)

    last = len(ts) - 1
    crossings = [entry(sample(0), departs.get(0, []), "start")]
    for k in sorted((departs.keys() | arrives.keys()) - {0, last}):
        before, after = arrives.get(k, []), departs.get(k, [])
        if before and after:
            edge = sample(k)
        else:
            edge = after[0][0] if after else before[-1][1]
        crossings.append(entry(edge, before + after))
    if zeros[last]:
        crossings.append(entry(sample(last), arrives.get(last, []), "end"))
    crossings += [entry(located(run[0][0], run[-1][1]), run) for run in between]
    crossings.sort(key=lambda c: c.time)
    return value, crossings


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
    return SymplecticPath(ts, mats, form=form, generator=_constant(cmat), evaluator=evaluate,
                          tol=1e-10)


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
    return SymplecticPath(ts, mats, generator=_constant(angle * eye), evaluator=evaluate, tol=1e-9)


def path_from_generator(
    gen: Callable[[np.ndarray], np.ndarray],
    dim: int,
    form: np.ndarray | None = None,
    n_steps: int = 1024,
    tol: float = 1e-7,
) -> SymplecticPath:
    """Integrate Gamma' = J S(t) Gamma, Gamma(0) = I by fixed-step RK4.

    ``gen`` is called once, with the array of the 2 n_steps + 1 step and
    midpoint times.  The equation is linear, so RK4 step k is a propagator
    P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) that depends on J S at the step's
    start, midpoint and end alone; the propagators come from batched
    products, and the samples Gamma_k = P_{k-1} ... P_0 from the
    ceil(log2 n_steps) batched products of ``_prefix_products``.  The path
    keeps the stack of J S(t_k) at its samples (``fields``), so its
    off-sample values, cubic Hermite on Gamma_k and Gamma'_k, call ``gen``
    no more.

    Raises ValueError if the integrated samples lose the symplectic
    condition beyond ``tol`` (reduce the step by raising n_steps).
    """
    form = standard_jmat(dim // 2) if form is None else np.asarray(form, float)
    h = 1.0 / n_steps
    # J S at the sample times and at the midpoints, each contiguous; each
    # stack is dropped once read, so that at most four are held
    stack = _stack(gen, np.linspace(0.0, 1.0, 2 * n_steps + 1), dim)
    fields, mid = form @ stack[::2], form @ stack[1::2]
    del stack
    start, end = fields[:-1], fields[1:]
    k2 = mid + (0.5 * h) * (mid @ start)
    k3 = mid + (0.5 * h) * (mid @ k2)
    del mid
    steps = start + 2 * k2
    del k2
    steps += 2 * k3
    steps += end + h * (end @ k3)  # K4
    steps *= h / 6.0
    steps += np.eye(dim)
    mats = np.empty((n_steps + 1, dim, dim))
    mats[0] = np.eye(dim)
    _prefix_products(steps, mats[1:])
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    try:
        path = SymplecticPath(ts, mats, form=form, tol=tol)
    except ValueError as exc:
        raise ValueError(f"integration lost symplecticity: {exc}; raise n_steps") from exc
    # attached after construction: the samples solve Gamma' = J S Gamma by
    # construction, so the constructor's spot check, one more call of gen,
    # has nothing to test
    path.generator, path._fields = gen, fields
    return path


def perturbed_path(path: SymplecticPath, delta: float, n_steps: int = 2048) -> SymplecticPath:
    """Path generated by S(t) - delta * I, built by ``path_from_generator``
    from one call of the input path's generator.

    For |delta| below the spectral scale of the asymptotic data, the index
    shifts by -sgn(delta) * (dim of the endpoint eigenvalue-1 kernel) / 2;
    acceptance criterion 2 checks that shift.  Requires the input path to
    carry a generator.
    """
    if path.generator is None:
        raise MissingGeneratorError("perturbed_path requires a path with a generator")
    base = path.generator
    shift = delta * np.eye(path.dim)

    def gen(t: np.ndarray) -> np.ndarray:
        return base(t) - shift

    return path_from_generator(gen, path.dim, form=path.form, n_steps=n_steps, tol=max(path.tol, 1e-8))


def block_diag(p1: SymplecticPath, p2: SymplecticPath) -> SymplecticPath:
    """Pointwise block-diagonal join; the index is additive over the blocks."""
    d1, d2 = p1.dim, p2.dim
    ts = np.union1d(p1.ts, p2.ts)
    ts[0], ts[-1] = 0.0, 1.0

    def joined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # one matrix, or a stack of them, of each block
        out = np.zeros(a.shape[:-2] + (d1 + d2, d1 + d2))
        out[..., :d1, :d1] = a
        out[..., d1:, d1:] = b
        return out

    if len(ts) == len(p1.ts) == len(p2.ts):
        mats = joined(p1.mats, p2.mats)
    else:
        mats = np.array([joined(p1.at(t), p2.at(t)) for t in ts])
    form = joined(p1.form, p2.form)

    evaluator = None
    if all(p.evaluator is not None or p.generator is not None for p in (p1, p2)):
        def evaluator(t: float) -> np.ndarray:
            return joined(p1.at(t), p2.at(t))

    generator = None
    if p1.generator is not None and p2.generator is not None:
        def generator(t: np.ndarray) -> np.ndarray:
            return joined(p1.generator(t), p2.generator(t))

    return SymplecticPath(ts, mats, form=form, generator=generator, evaluator=evaluator,
                          tol=max(p1.tol, p2.tol))


def conjugate_path(path: SymplecticPath, psi: np.ndarray) -> SymplecticPath:
    """Path t -> Psi Gamma(t) Psi^{-1} for a fixed symplectic Psi.

    Conjugation maps kernels by Psi and preserves crossing forms, so the
    index is unchanged.
    """
    psi = np.asarray(psi, float)
    if symplectic_defect(psi, path.form) > 1e-7:
        raise ValueError("conjugating matrix must be symplectic for the path's form")
    psi_inv = np.linalg.inv(psi)
    mats = psi @ path.mats @ psi_inv

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
    """Write a header, then one row per sample: t, then the row-major
    matrix entries, each as ``%.17g``.

    Rows are formatted and written 128 at a time, through
    ``_files.write_chunks``, so the working memory is one block of rows.
    """
    d = path.dim
    flat = path.mats.reshape(len(path.ts), d * d)
    template = ",".join(["%.17g"] * (d * d + 1)) + "\n"

    def chunks():
        yield ",".join(["t"] + [f"m{i}{j}" for i in range(d) for j in range(d)]) + "\n"
        for lo in range(0, len(flat), 128):
            rows = np.column_stack([path.ts[lo:lo + 128], flat[lo:lo + 128]])
            yield "".join([template % tuple(row) for row in rows.tolist()])

    write_chunks(file, chunks())


def load_path_csv(file, form: np.ndarray | None = None, tol: float = 1e-6) -> SymplecticPath:
    """Read a path written by save_path_csv from a path or an open text
    handle, through ``_files.read_csv_floats``.

    The form defaults to the standard one; pass the original form for
    paths that preserve a different pairing.  Off-sample evaluation falls
    back to cubic interpolation of the samples.
    """
    data = read_csv_floats(file)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"non-finite sample {data[row, col]} in data row {row + 1}, "
                         f"column {col + 1}")
    ts = data[:, 0]
    n_entries = data.shape[1] - 1
    d = int(round(np.sqrt(n_entries)))
    if d * d != n_entries:
        raise ValueError(f"row width {n_entries} is not 1 + d^2")
    mats = data[:, 1:].reshape(len(ts), d, d)
    return SymplecticPath(ts, mats, form=form, tol=tol)
