"""Desk-scale model geometry: R^{2n} with a radial Hamiltonian.

The phase space is M = R^{2n} with coordinates (x_1..x_n, y_1..y_n), the
primitive one-form

    lambda_z(v) = 1/2 sum_i (x_i dy_i - y_i dx_i) = 1/2 (J_n z) . v,

symplectic form d(lambda), and Hamiltonian H(z) = h(|z|) for a radial
profile with h(1) = 0, h'(1) > 0, h''(1) != 0, capped to a constant for
r >= r_plateau.  The zero level Sigma is the unit sphere, a restricted
contact type hypersurface, and the Hamiltonian vector field

    X_H = J_n grad H = (h'(r)/r) J_n z

generates rigid rotation at every radius, so all flow maps, closed orbits,
and actions are available in closed form.  The Reeb flow on Sigma is
periodic with every point periodic: the periodic-point sets are all of
Sigma, the Morse-Bott condition holds automatically, and every critical
manifold of the free-period action functional has dimension 2n - 1.

The compatible almost complex structure is the constant -J_n: it is the
unique sign for which omega(J., .) built from d(lambda) is a Riemannian
metric (so the gradient flows downstream descend) and for which the
contact-type equation dr o J = r alpha holds on the symplectization cone
outside a compact set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._files import integer, number, read_json, read_record, write_json
from .symlin import standard_jmat

__all__ = [
    "RadialProfile",
    "radius",
    "ModelSystem",
    "ExtendedPoint",
    "ReebOrbitFamily",
    "make_model",
    "hamiltonian_data",
    "extended_flow",
    "reeb_orbits",
    "r_star_shift",
    "model_to_json",
    "model_from_json",
]


def radius(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of a float array over its last axis: the squares
    summed column by column, left to right, then the square root.  These
    are the floats of ``np.linalg.norm(x, axis=-1)``, without its reduction."""
    sq = x * x
    r = sq[..., 0].copy()
    for k in range(1, x.shape[-1]):
        r += sq[..., k]
    return np.sqrt(r)


def _smoothstep(u):
    """C^2 monotone step: 0 at u<=0, 1 at u>=1."""
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u * u)


@dataclass(frozen=True)
class RadialProfile:
    """Profile h with h(r) = (r^2 - 1)/2 up to r0, then C^2-capped.

    The cap is built at the derivative level: h'(r) = r * (1 - q(u)) with
    u = (r - r0)/(r_plateau - r0) and q the quintic smoothstep, so h is
    C^2 (in fact C^3), exactly constant for r >= r_plateau, and exactly
    quadratic for r <= r0.  The plateau value follows from integration.

    ``h``, ``hp`` and ``hpp`` run the cap formula only on radii past r0 (and
    NaN); the others take the quadratic branch, which is what the cap formula
    gives there to the last bit.  Loops near Sigma pay for no powers of u.
    """

    r0: float = 1.2
    r_plateau: float = 1.5

    def __post_init__(self):
        if not (1.0 < self.r0 < self.r_plateau):
            raise ValueError("need 1 < r0 < r_plateau")

    def _branches(self, r, quadratic, cap):
        """quadratic(r) where r <= r0, cap(r) on the other radii; one array,
        0-d for a scalar r."""
        r = np.asarray(r, dtype=float)
        if r.ndim == 0:  # numpy's scalar powers round apart from its array loops
            return np.array(quadratic(r) if r <= self.r0 else cap(r), dtype=float)
        out = np.array(quadratic(r), dtype=float)
        past = ~(r <= self.r0)
        if past.any():
            out[past] = cap(r[past])
        return out

    def _u(self, r):
        return np.clip((r - self.r0) / (self.r_plateau - self.r0), 0.0, 1.0)

    def h(self, r):
        def cap(r):
            delta = self.r_plateau - self.r0
            u = self._u(r)
            # antiderivatives of q and of u*q over [0, u]
            q1 = 2.5 * u**4 - 3.0 * u**5 + u**6
            q2 = 2.0 * u**5 - 2.5 * u**6 + (6.0 / 7.0) * u**7
            return 0.5 * (np.minimum(r, self.r_plateau) ** 2 - 1.0) - (
                delta * self.r0 * q1 + delta**2 * q2
            )

        return self._branches(r, lambda r: 0.5 * (r * r - 1.0), cap)

    def hp(self, r):
        return self._branches(r, lambda r: r, lambda r: r * (1.0 - _smoothstep(self._u(r))))[()]

    def hpp(self, r):
        def cap(r):
            delta = self.r_plateau - self.r0
            u = self._u(r)
            qp = 30.0 * u**2 * (1.0 - u) ** 2 / delta
            qp = np.where(r >= self.r_plateau, 0.0, qp)
            return (1.0 - _smoothstep(u)) - r * qp

        return self._branches(r, np.ones_like, cap)[()]

    def plateau_value(self) -> float:
        return float(self.h(self.r_plateau))

    def sup_hp(self) -> float:
        rr = np.linspace(0.0, self.r_plateau, 4001)
        return float(np.max(self.hp(rr)))


@dataclass(frozen=True)
class ModelSystem:
    """Model data: half-dimension n, radial profile, and thresholds.

    alpha0 is the stored positive lower bound for lambda(X_H) on the shell
    N = H^{-1}([-h_thr, h_thr]); on this model lambda(X_H) = r h'(r) / 2,
    which equals 1/2 on Sigma.
    """

    n: int
    profile: RadialProfile
    h_thr: float
    alpha0: float
    x_h_sup: float
    jmat: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 2 * self.n

    # -- scalar geometry -----------------------------------------------------

    def hamiltonian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.profile.h(radius(x))

    def grad_hamiltonian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = radius(x)[..., None]
        fac = np.where(r > 1e-12, self.profile.hp(r) / np.maximum(r, 1e-12), 1.0)
        return fac * x

    def x_h(self, x) -> np.ndarray:
        """Hamiltonian vector field X_H = J grad H (rigid rotation per shell)."""
        return self.grad_hamiltonian(x) @ self.jmat.T

    def lam(self, x, v) -> np.ndarray:
        """Primitive one-form lambda_x(v) = (J x . v) / 2, batched over loops."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        return 0.5 * np.sum((x @ self.jmat.T) * v, axis=-1)

    def acs(self) -> np.ndarray:
        """Compatible almost complex structure, the constant -J."""
        return -self.jmat

    def angular_rate(self, r) -> np.ndarray:
        """Rotation rate h'(r)/r of X_H on the radius-r shell."""
        r = np.asarray(r, dtype=float)
        return np.where(r > 1e-12, self.profile.hp(r) / np.maximum(r, 1e-12), 1.0)

    def base_period(self) -> float:
        """Minimal positive multiplier tau with 1-periodic orbits on Sigma."""
        return 2.0 * np.pi / self.profile.hp(1.0)


@dataclass(frozen=True)
class ExtendedPoint:
    """Point (x, tau, sigma) of the extended phase space M x T*R."""

    x: np.ndarray
    tau: float
    sigma: float


def make_model(
    n: int = 1,
    r0: float = 1.2,
    r_plateau: float = 1.5,
    h_thr: float | None = None,
) -> ModelSystem:
    """Build and validate a model system.

    Checks, on a radius grid: h(1) = 0, h'(1) > 0, h''(1) != 0, exact
    plateau for r >= r_plateau with positive value, the shell
    N = H^{-1}([-h_thr, h_thr]) compact with lambda(X_H) >= (2/3) alpha_Sigma
    there, and h_thr <= alpha_Sigma / 3.
    """
    if not 1 <= n <= 3:
        raise ValueError("supported half-dimensions are n in {1, 2, 3}")
    profile = RadialProfile(r0=r0, r_plateau=r_plateau)
    if abs(float(profile.h(1.0))) > 1e-14:
        raise ValueError("profile must vanish at r = 1")
    if float(profile.hp(1.0)) <= 0:
        raise ValueError("profile must be strictly increasing at r = 1")
    if float(profile.hpp(1.0)) == 0:
        raise ValueError("profile must have nonzero second derivative at r = 1")
    if profile.plateau_value() <= 0:
        raise ValueError("plateau value must be positive")
    alpha_sigma = 0.5 * float(profile.hp(1.0))
    if h_thr is None:
        h_thr = alpha_sigma / 3.0
    if h_thr > alpha_sigma / 3.0 + 1e-12:
        raise ValueError(f"h_thr must be <= alpha_Sigma/3 = {alpha_sigma / 3.0}")
    if h_thr >= profile.plateau_value():
        raise ValueError("h_thr must be below the plateau value, else N is not compact")
    rr = np.linspace(0.0, r_plateau + 0.5, 8001)
    hh = profile.h(rr)
    shell = np.abs(hh) <= h_thr
    lam_xh = 0.5 * rr * profile.hp(rr)
    alpha0 = float(np.min(lam_xh[shell]))
    if alpha0 < (2.0 / 3.0) * alpha_sigma - 1e-9:
        raise ValueError("lambda(X_H) drops below (2/3) alpha_Sigma on the shell")
    return ModelSystem(
        n=n,
        profile=profile,
        h_thr=float(h_thr),
        alpha0=alpha0,
        x_h_sup=profile.sup_hp(),
        jmat=standard_jmat(n),
    )


# -- extended phase space ----------------------------------------------------


def hamiltonian_data(sys: ModelSystem, p: ExtendedPoint):
    """Extended Hamiltonian tau*H(x) and its vector field (tau X_H, 0, H)."""
    x = np.asarray(p.x, dtype=float)
    h = float(sys.hamiltonian(x))
    x_dot = p.tau * sys.x_h(x)
    return p.tau * h, (x_dot, 0.0, h)


def extended_flow(sys: ModelSystem, p: ExtendedPoint, t: float) -> ExtendedPoint:
    """Closed-form time-t flow: (phi^{tau t}(x), tau, sigma + t H(x))."""
    x = np.asarray(p.x, dtype=float)
    r = float(np.linalg.norm(x))
    theta = float(sys.angular_rate(r)) * p.tau * t
    rot = np.cos(theta) * np.eye(sys.dim) + np.sin(theta) * sys.jmat
    return ExtendedPoint(x=rot @ x, tau=p.tau, sigma=p.sigma + t * float(sys.hamiltonian(x)))


def r_star_shift(p: ExtendedPoint, xi: float) -> ExtendedPoint:
    """The R*-action on the sigma coordinate; a symmetry of everything here."""
    return ExtendedPoint(x=np.array(p.x, dtype=float), tau=p.tau, sigma=p.sigma + xi)


@dataclass(frozen=True)
class ReebOrbitFamily:
    """A critical family: closed orbits for one multiplier, or the constants.

    kind "orbits": x(t) = rot(tau h'(1) t) x_base, each orbit lying on
    Sigma with action tau h'(1) / 2 = pi k per h'(1)-normalized turn.
    kind "constants": Sigma x {0}, action 0.
    kind "empty": no 1-periodic orbits at this multiplier.
    """

    kind: str
    tau: float
    n: int
    multiplicity: int | None
    action: float
    dim_k: int | None
    dim_extended: int | None

    @property
    def period(self) -> float:
        return abs(self.tau)

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"


def reeb_orbits(sys: ModelSystem, tau: float) -> ReebOrbitFamily:
    """Classify the 1-periodic orbits of the extended field at multiplier tau.

    tau = 0 yields the constants family Sigma x {0}; tau != 0 yields the
    orbit family exactly when tau h'(1) is a whole number of turns (to
    1e-9), and the empty family otherwise.
    """
    dim_k = 2 * sys.n - 1
    if tau == 0.0:
        return ReebOrbitFamily(
            kind="constants", tau=0.0, n=sys.n, multiplicity=0,
            action=0.0, dim_k=dim_k, dim_extended=dim_k + 1,
        )
    turns = tau * float(sys.profile.hp(1.0)) / (2.0 * np.pi)
    k = int(round(turns))
    if k == 0 or abs(turns - k) > 1e-9:
        return ReebOrbitFamily(
            kind="empty", tau=tau, n=sys.n, multiplicity=None,
            action=0.0, dim_k=None, dim_extended=None,
        )
    return ReebOrbitFamily(
        kind="orbits", tau=tau, n=sys.n, multiplicity=k,
        action=np.pi * k, dim_k=dim_k, dim_extended=dim_k + 1,
    )


def orbit_loop(sys: ModelSystem, family: ReebOrbitFamily, t, base: np.ndarray | None = None):
    """Sample the closed orbit x(t) = rot(tau h'(1) t) x_base on Sigma."""
    if family.kind != "orbits":
        raise ValueError("orbit_loop needs an orbit family")
    if base is None:
        base = np.zeros(sys.dim)
        base[0] = 1.0
    base = np.asarray(base, dtype=float)
    base = base / np.linalg.norm(base)
    theta = family.tau * float(sys.profile.hp(1.0)) * np.asarray(t, dtype=float)
    return np.cos(theta)[..., None] * base + np.sin(theta)[..., None] * (sys.jmat @ base)


# -- serialization ------------------------------------------------------------


def model_to_json(sys: ModelSystem, file=None) -> str:
    """Serialize the system parameters (not the derived fields) to JSON."""
    payload = {
        "n": sys.n,
        "r0": sys.profile.r0,
        "r_plateau": sys.profile.r_plateau,
        "h_thr": sys.h_thr,
    }
    return write_json(file, payload)


def model_from_json(source) -> ModelSystem:
    """Rebuild a system from model_to_json output (a path or an open handle);
    a missing or ill-typed field raises ValueError naming it (``read_record``)."""
    fields = {"n": integer, "r0": number, "r_plateau": number, "h_thr": number}
    return make_model(**read_record(read_json(source), "model file", fields))
