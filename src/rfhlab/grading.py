"""Index and dimension arithmetic for the two chain complexes.

Gradings are exact integers computed from half-integer path indices:

    mu(Lambda) = mu_rs(Lambda) - dim(Lambda)/2        (fixed-period side)
    mu(K)      = mu_rs(K) - (dim(K) - 1)/2            (free-period side)
    mu(Sigma x {0}) = 1 - n                           (constants, by fiat)

with dim(Lambda) = dim(K) + 1, so mu(Lambda) = mu(K) - 1 on every
component.  Generator gradings add Morse indices:

    mu_f(x) = mu(Lambda) + ind_f(x) + 1 = mu(K) + ind_f(x) = mu_f_RF(x).

All dimension formulas for cascade moduli spaces and the Fredholm index
of the half-cylinder matching problem are implemented as exact integer
arithmetic; the path indices feeding them come from ``rsindex.rs_index``
as exact half-integers, never from floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._files import read_json, write_json, write_text
from .model import ModelSystem
from .rsindex import HalfInteger, block_diag, rotation_path, rs_index, theta_path

__all__ = [
    "IndexArithmeticError",
    "CriticalComponent",
    "GradedGenerator",
    "mu_lambda",
    "mu_K",
    "cascade_dims",
    "fredholm_index",
    "assemble_hybrid_index",
    "boundary_correction_term",
    "model_lambda_path",
    "model_components",
    "model_generators",
    "components_to_json",
    "components_from_json",
    "index_report_csv",
]


class IndexArithmeticError(ValueError):
    """Half-integer arithmetic failed to produce the promised integer."""


@dataclass(frozen=True)
class CriticalComponent:
    """One connected critical manifold, seen at both functional levels.

    mu_rs stores the common path index mu_rs(Lambda) = mu_rs(K); dim_k is
    the free-period dimension, and the fixed-period manifold has dimension
    dim_k + 1 (the sigma line).
    """

    id: str
    kind: str              # "constants" | "orbit"
    action: float
    dim_k: int
    n: int
    mu_rs: HalfInteger

    def __post_init__(self):
        if self.kind not in ("constants", "orbit"):
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.kind == "constants" and self.dim_k != 2 * self.n - 1:
            raise ValueError("constants component must have dim_k = 2n - 1")

    @property
    def dim_lambda(self) -> int:
        return self.dim_k + 1


def mu_lambda(c: CriticalComponent) -> int:
    """mu(Lambda) = mu_rs - dim(Lambda)/2, exact."""
    twice = c.mu_rs.twice_value - c.dim_lambda
    if twice % 2 != 0:
        raise IndexArithmeticError(
            f"mu_rs = {c.mu_rs} and dim(Lambda) = {c.dim_lambda} are inconsistent: "
            f"mu(Lambda) would be the non-integer {twice}/2"
        )
    return twice // 2


def mu_K(c: CriticalComponent) -> int:
    """mu(K): the constants convention 1 - n, else mu_rs - (dim K - 1)/2."""
    if c.kind == "constants":
        return 1 - c.n
    twice = c.mu_rs.twice_value - (c.dim_k - 1)
    if twice % 2 != 0:
        raise IndexArithmeticError(
            f"mu_rs = {c.mu_rs} and dim(K) = {c.dim_k} are inconsistent: "
            f"mu(K) would be the non-integer {twice}/2"
        )
    return twice // 2


@dataclass(frozen=True)
class GradedGenerator:
    """A Morse critical point on a component, with both gradings."""

    component: CriticalComponent
    ind_f: int

    def __post_init__(self):
        if not 0 <= self.ind_f <= self.component.dim_k:
            raise ValueError("Morse index must lie in [0, dim K]")

    @property
    def mu_f(self) -> int:
        return mu_lambda(self.component) + self.ind_f + 1

    @property
    def mu_f_rf(self) -> int:
        return mu_K(self.component) + self.ind_f


def _is_component(x) -> bool:
    return isinstance(x, CriticalComponent)


def _is_generator(x) -> bool:
    return isinstance(x, GradedGenerator)


def cascade_dims(mode: str, lower, upper) -> int:
    """Dimension of the cascade moduli space between the two endpoints.

    ``mode`` selects the theory: "extended" (fixed-period side, endpoints
    live at the Lambda level), "rabinowitz" (free-period side, endpoints
    at the K level), or "hybrid" (lower endpoint on the K side, upper on
    the Lambda side; at generator level the value is the dimension after
    dividing by the sigma-translation action).
    Each endpoint is a CriticalComponent or a GradedGenerator.
    """
    lc = lower.component if _is_generator(lower) else lower
    uc = upper.component if _is_generator(upper) else upper
    if not (_is_component(lc) and _is_component(uc)):
        raise ValueError("endpoints must be components or graded generators")

    if mode == "extended":
        if _is_generator(lower) and _is_generator(upper):
            return lower.mu_f - upper.mu_f
        if _is_generator(lower):
            return lower.mu_f - mu_lambda(uc) - 1
        if _is_generator(upper):
            return mu_lambda(lc) + lc.dim_lambda - upper.mu_f
        return mu_lambda(lc) + lc.dim_lambda - mu_lambda(uc) - 1

    if mode == "rabinowitz":
        if _is_generator(lower) and _is_generator(upper):
            return lower.mu_f_rf - upper.mu_f_rf - 1
        if _is_generator(lower):
            return lower.mu_f_rf - mu_K(uc) - 1
        if _is_generator(upper):
            return mu_K(lc) + lc.dim_k - upper.mu_f_rf - 1
        return mu_K(lc) + lc.dim_k - mu_K(uc) - 1

    if mode == "hybrid":
        if _is_generator(lower) and _is_generator(upper):
            return lower.mu_f_rf - upper.mu_f
        if _is_component(lower) and _is_component(upper):
            return mu_K(lc) + lc.dim_k - mu_lambda(uc)
        raise ValueError("hybrid endpoints must be both components or both generators")

    raise ValueError(f"unknown mode {mode!r}")


def boundary_correction_term(n: int) -> Fraction:
    """Boundary correction of the half-cylinder index problem; always zero.

    With ambient dimension 2m = 2(2n + 1), diagonal boundary subspace W0
    of dimension 2n + 1, and coupling subspace V0 of dimension n meeting
    W0 in dimension n, the correction m/2 - (dim W0 + 2 dim V0
    - 2 dim(W0 cap V0 x V0))/2 collapses to zero for every n.
    """
    m = 2 * n + 1
    dim_w0 = 2 * n + 1
    dim_v0 = n
    dim_cap = n
    return Fraction(m, 2) - Fraction(dim_w0 + 2 * dim_v0 - 2 * dim_cap, 2)


def assemble_hybrid_index(
    mu_rs_w1: HalfInteger,
    nu_w1: int,
    mu_rs_w2: HalfInteger,
    nu_w2: int,
    lambda_sign: int,
    n: int = 1,
):
    """Assemble the half-cylinder Fredholm index from raw path data.

    Returns (index, mu_K, mu_Lambda) where the asymptotic identifications
    are mu(Lambda) = -(mu_rs(W2) + nu(W2)/2) and, depending on the sign of
    the regularity scalar, mu(K) = mu_rs(W1) - nu(W1)/2 (+1 for negative
    sign).  The scalar's sign also fixes the decoupled multiplier block's
    index (0 for positive, 1 for negative); the two dependencies cancel,
    so the total equals mu(K) - mu(Lambda) - dim(Lambda) either way.
    """
    if lambda_sign not in (-1, 1):
        raise ValueError("lambda_sign must be +1 or -1 (regularity scalar sign)")
    k_corr = boundary_correction_term(n)
    if k_corr != 0:
        raise IndexArithmeticError(f"boundary correction term is {k_corr}, not 0")

    twice_a = mu_rs_w1.twice_value - nu_w1          # 2 * (mu_rs(W1) - nu(W1)/2)
    twice_b = mu_rs_w2.twice_value - nu_w2          # 2 * (mu_rs(W2) - nu(W2)/2)
    twice_dprime = twice_a + twice_b + 2 * int(k_corr)
    if twice_dprime % 2 != 0:
        raise IndexArithmeticError("half-cylinder block index is not an integer")
    ind_dprime = twice_dprime // 2
    ind_ddouble = 0 if lambda_sign > 0 else 1
    index = ind_dprime + ind_ddouble

    twice_mu_lam = -(mu_rs_w2.twice_value + nu_w2)
    if twice_mu_lam % 2 != 0:
        raise IndexArithmeticError("mu(Lambda) from W2 data is not an integer")
    mu_lam = twice_mu_lam // 2
    if twice_a % 2 != 0:
        raise IndexArithmeticError("mu(K) from W1 data is not an integer")
    mu_k = twice_a // 2 + (0 if lambda_sign > 0 else 1)

    if index != mu_k - mu_lam - nu_w2:
        raise IndexArithmeticError("hybrid index branches failed to compensate")
    return index, mu_k, mu_lam


def fredholm_index(mode: str, lower, upper, lambda_sign: int | None = None) -> int:
    """Fredholm index of the linearized connecting problem.

    mode "cylinder": both endpoints at the Lambda level; the index is
    mu(Lambda^-) - mu(Lambda^+) - dim(Lambda^+).

    mode "hybrid": lower read at the K level, upper at the Lambda level;
    requires the sign of the regularity scalar.  Both sign branches are
    assembled from the decoupled-operator formulas and must agree; the
    common value mu(K) + dim(K)... the operator index mu(K) - mu(Lambda)
    - dim(Lambda) is returned.
    """
    lc = lower.component if _is_generator(lower) else lower
    uc = upper.component if _is_generator(upper) else upper
    if mode == "cylinder":
        return mu_lambda(lc) - mu_lambda(uc) - uc.dim_lambda
    if mode == "hybrid":
        if lambda_sign is None:
            raise ValueError("hybrid mode requires the sign of the regularity scalar")
        mu_k = mu_K(lc)
        mu_lam = mu_lambda(uc)
        dim_lam = uc.dim_lambda
        # reconstruct the branch's decoupled data and re-assemble both ways
        results = []
        for sign in (1, -1):
            twice_a = 2 * (mu_k - (0 if sign > 0 else 1))
            nu_w1 = 1
            mu_rs_w1 = HalfInteger(twice_a + nu_w1)
            nu_w2 = dim_lam
            mu_rs_w2 = HalfInteger(-2 * mu_lam - nu_w2)
            idx, mk, ml = assemble_hybrid_index(mu_rs_w1, nu_w1, mu_rs_w2, nu_w2, sign, n=lc.n)
            if (mk, ml) != (mu_k, mu_lam):
                raise IndexArithmeticError(
                    f"branch {sign:+d} re-assembled (mu_K, mu_Lambda) = ({mk}, {ml}), "
                    f"expected ({mu_k}, {mu_lam})"
                )
            results.append(idx)
        if results[0] != results[1]:
            raise IndexArithmeticError("hybrid index depends on the regularity sign")
        return results[0 if lambda_sign > 0 else 1]
    raise ValueError(f"unknown mode {mode!r}")


# -- the model's component table ----------------------------------------------


def model_lambda_path(sys: ModelSystem, k: int, n_samples: int = 257):
    """Symplectic path of the multiplicity-k orbit component.

    Block diagonal of the contact-plane rotation (n - 1 complex lines
    turning k full times) and the unipotent 4 x 4 block from the radial
    profile; for n = 1 the contact block is absent.
    """
    if k == 0:
        raise ValueError("k = 0 is the constants family, which has no orbit path")
    hp = float(sys.profile.hp(1.0))
    hpp = float(sys.profile.hpp(1.0))
    tau = 2.0 * np.pi * k / hp
    theta = theta_path(tau, hp, hpp, n_samples=n_samples)
    if sys.n == 1:
        return theta
    contact = rotation_path(sys.n - 1, 2.0 * np.pi * k, n_samples=max(n_samples, 128 * abs(k) + 1))
    return block_diag(contact, theta)


def model_components(sys: ModelSystem, ks=(-2, -1, 1, 2)) -> list[CriticalComponent]:
    """Critical components of the model: constants plus one per multiplicity.

    The path index of each orbit component is ``rs_index`` of the block
    path; for the round model it comes out 2k(n - 1).
    The constants carry index zero and action zero.
    """
    comps = [
        CriticalComponent(
            id="constants", kind="constants", action=0.0,
            dim_k=2 * sys.n - 1, n=sys.n, mu_rs=HalfInteger(0),
        )
    ]
    for k in ks:
        if k == 0:
            continue
        mu = rs_index(model_lambda_path(sys, k))
        comps.append(
            CriticalComponent(
                id=f"orbit{k:+d}", kind="orbit", action=float(np.pi * k),
                dim_k=2 * sys.n - 1, n=sys.n, mu_rs=mu,
            )
        )
    return comps


def model_generators(components) -> list[GradedGenerator]:
    """Generators from a perfect Morse function on each component.

    Components of the model are spheres of dimension 2n - 1; the Morse
    data has one minimum and one maximum per component.
    """
    return [GradedGenerator(component=c, ind_f=i) for c in components for i in (0, c.dim_k)]


# -- serialization --------------------------------------------------------------


def components_to_json(components, file=None) -> str:
    rows = [
        {
            "id": c.id,
            "kind": c.kind,
            "action": c.action,
            "dim_k": c.dim_k,
            "n": c.n,
            "twice_mu_rs": c.mu_rs.twice_value,
        }
        for c in components
    ]
    return write_json(file, rows)


def components_from_json(source) -> list[CriticalComponent]:
    return [
        CriticalComponent(
            id=r["id"], kind=r["kind"], action=float(r["action"]),
            dim_k=int(r["dim_k"]), n=int(r["n"]),
            mu_rs=HalfInteger(int(r["twice_mu_rs"])),
        )
        for r in read_json(source)
    ]


def index_report_csv(components, file=None) -> str:
    """CSV report with the derived gradings per component."""
    lines = ["id,kind,action,dim_K,dim_Lambda,mu_rs,mu_K,mu_Lambda"]
    for c in components:
        lines.append(
            ",".join(
                [
                    c.id,
                    c.kind,
                    format(c.action, ".17g"),
                    str(c.dim_k),
                    str(c.dim_lambda),
                    str(c.mu_rs),
                    str(mu_K(c)),
                    str(mu_lambda(c)),
                ]
            )
        )
    return write_text(file, "\n".join(lines) + "\n")
