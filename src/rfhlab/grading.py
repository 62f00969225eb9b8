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

import numpy as np

from ._files import integer, number, read_json, read_record, string, write_json, write_text
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


def _half(twice: int, c: CriticalComponent, level: str) -> int:
    """twice/2 for the grading mu(level) of ``c``; IndexArithmeticError if it is odd."""
    if twice % 2 != 0:
        raise IndexArithmeticError(f"mu_rs = {c.mu_rs} and dim(K) = {c.dim_k} are inconsistent: "
                                   f"mu({level}) would be the non-integer {twice}/2")
    return twice // 2


def mu_lambda(c: CriticalComponent) -> int:
    """mu(Lambda) = mu_rs - dim(Lambda)/2, exact."""
    return _half(c.mu_rs.twice_value - c.dim_lambda, c, "Lambda")


def mu_K(c: CriticalComponent) -> int:
    """mu(K): the constants convention 1 - n, else mu_rs - (dim K - 1)/2."""
    if c.kind == "constants":
        return 1 - c.n
    return _half(c.mu_rs.twice_value - (c.dim_k - 1), c, "K")


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


def cascade_dims(mode: str, lower, upper) -> int:
    """Dimension of the cascade moduli space between the two endpoints.

    ``mode`` selects the theory: "extended" (fixed-period side, endpoints
    live at the Lambda level), "rabinowitz" (free-period side, endpoints
    at the K level), or "hybrid" (lower endpoint on the K side, upper on
    the Lambda side; at generator level the value is the dimension after
    dividing by the sigma-translation action).
    Each endpoint is a CriticalComponent or a GradedGenerator.
    """
    gen_lo, gen_up = isinstance(lower, GradedGenerator), isinstance(upper, GradedGenerator)
    lc = lower.component if gen_lo else lower
    uc = upper.component if gen_up else upper
    if not (isinstance(lc, CriticalComponent) and isinstance(uc, CriticalComponent)):
        raise ValueError("endpoints must be components or graded generators")

    if mode == "extended":
        if gen_lo and gen_up:
            return lower.mu_f - upper.mu_f
        if gen_lo:
            return lower.mu_f - mu_lambda(uc) - 1
        if gen_up:
            return mu_lambda(lc) + lc.dim_lambda - upper.mu_f
        return mu_lambda(lc) + lc.dim_lambda - mu_lambda(uc) - 1

    if mode == "rabinowitz":
        if gen_lo and gen_up:
            return lower.mu_f_rf - upper.mu_f_rf - 1
        if gen_lo:
            return lower.mu_f_rf - mu_K(uc) - 1
        if gen_up:
            return mu_K(lc) + lc.dim_k - upper.mu_f_rf - 1
        return mu_K(lc) + lc.dim_k - mu_K(uc) - 1

    if mode == "hybrid":
        if gen_lo and gen_up:
            return lower.mu_f_rf - upper.mu_f
        if not (gen_lo or gen_up):
            return mu_K(lc) + lc.dim_k - mu_lambda(uc)
        raise ValueError("hybrid endpoints must be both components or both generators")

    raise ValueError(f"unknown mode {mode!r}")


def assemble_hybrid_index(mu_rs_w1: HalfInteger, nu_w1: int, mu_rs_w2: HalfInteger, nu_w2: int,
                          lambda_sign: int):
    """Assemble the half-cylinder Fredholm index from raw path data.

    Returns (index, mu_K, mu_Lambda) where the asymptotic identifications
    are mu(Lambda) = -(mu_rs(W2) + nu(W2)/2) and, depending on the sign of
    the regularity scalar, mu(K) = mu_rs(W1) - nu(W1)/2 (+1 for negative
    sign).  The index adds the half-cylinder block's, mu_rs(W1) - nu(W1)/2
    + mu_rs(W2) - nu(W2)/2 (its boundary correction is zero for every n),
    and the multiplier block's (0 for positive sign, 1 for negative):
    mu(K) - mu(Lambda) - nu(W2) by algebra.  Raises IndexArithmeticError if
    the W1 or W2 data give a half-integer index.
    """
    if lambda_sign not in (-1, 1):
        raise ValueError("lambda_sign must be +1 or -1 (regularity scalar sign)")
    twice_a = mu_rs_w1.twice_value - nu_w1          # 2 * (mu_rs(W1) - nu(W1)/2)
    twice_b = mu_rs_w2.twice_value - nu_w2          # 2 * (mu_rs(W2) - nu(W2)/2)
    if twice_a % 2 != 0:
        raise IndexArithmeticError("mu(K) from W1 data is not an integer")
    if twice_b % 2 != 0:
        raise IndexArithmeticError("mu(Lambda) from W2 data is not an integer")
    ind_ddouble = 0 if lambda_sign > 0 else 1
    mu_lam = -(mu_rs_w2.twice_value + nu_w2) // 2
    return (twice_a + twice_b) // 2 + ind_ddouble, twice_a // 2 + ind_ddouble, mu_lam


def fredholm_index(mode: str, lower, upper) -> int:
    """Fredholm index of the linearized connecting problem.

    mode "cylinder": both endpoints at the Lambda level; the index is
    mu(Lambda^-) - mu(Lambda^+) - dim(Lambda^+).

    mode "hybrid": lower read at the K level, upper at the Lambda level;
    the index is mu(K) - mu(Lambda) - dim(Lambda), for either sign of the
    regularity scalar (``assemble_hybrid_index`` builds it from path data).
    """
    lc = lower.component if isinstance(lower, GradedGenerator) else lower
    uc = upper.component if isinstance(upper, GradedGenerator) else upper
    if mode == "cylinder":
        return mu_lambda(lc) - mu_lambda(uc) - uc.dim_lambda
    if mode == "hybrid":
        return mu_K(lc) - mu_lambda(uc) - uc.dim_lambda
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


_COMPONENT_FIELDS = {"id": string, "kind": string, "action": number, "dim_k": integer,
                     "n": integer, "twice_mu_rs": integer}


def components_from_json(source) -> list[CriticalComponent]:
    """The components ``components_to_json`` wrote, each row read by
    ``_files.read_record``: ValueError names a missing or ill-typed field."""
    rows = read_json(source)
    if not isinstance(rows, list):
        raise ValueError(f"components file must be a JSON array, got {type(rows).__name__}")
    records = [read_record(r, f"components file row {i}", _COMPONENT_FIELDS)
               for i, r in enumerate(rows)]
    return [CriticalComponent(mu_rs=HalfInteger(r.pop("twice_mu_rs")), **r) for r in records]


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
