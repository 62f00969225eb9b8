import io

import numpy as np
import pytest

from rfhlab.grading import (
    CriticalComponent,
    GradedGenerator,
    IndexArithmeticError,
    assemble_hybrid_index,
    cascade_dims,
    components_from_json,
    components_to_json,
    fredholm_index,
    index_report_csv,
    model_components,
    model_generators,
    model_lambda_path,
    mu_K,
    mu_lambda,
)
from rfhlab.model import make_model
from rfhlab.rsindex import HalfInteger, rs_index


def _component(mu_rs_twice, dim_k, n=2, kind="orbit", action=1.0, ident="c"):
    return CriticalComponent(id=ident, kind=kind, action=action, dim_k=dim_k,
                             n=n, mu_rs=HalfInteger(mu_rs_twice))


def test_mu_lambda_constants_is_minus_n():
    for n in (1, 2, 3):
        c = CriticalComponent(id="k", kind="constants", action=0.0,
                              dim_k=2 * n - 1, n=n, mu_rs=HalfInteger(0))
        assert mu_lambda(c) == -n
        assert mu_K(c) == 1 - n


def test_mu_lambda_half_integer_case():
    # mu_rs = 3/2 with dim(Lambda) = 3 gives the integer 0
    c = _component(mu_rs_twice=3, dim_k=2)
    assert mu_lambda(c) == 0


def test_mu_k_examples():
    assert mu_K(_component(0, 1, n=1, kind="constants", action=0.0)) == 0
    assert mu_K(CriticalComponent(id="k", kind="constants", action=0.0,
                                  dim_k=5, n=3, mu_rs=HalfInteger(0))) == -2
    assert mu_K(_component(mu_rs_twice=4, dim_k=1)) == 2


def test_inconsistent_parity_raises():
    c = _component(mu_rs_twice=1, dim_k=1)  # mu_rs = 1/2, dim K = 1
    with pytest.raises(IndexArithmeticError):
        mu_K(c)
    with pytest.raises(IndexArithmeticError):
        mu_lambda(c)


def test_generator_gradings_always_agree():
    rng = np.random.default_rng(0)
    for _ in range(50):
        dim_k = int(rng.integers(0, 6))
        twice = int(rng.integers(-10, 11))
        twice += (twice - (dim_k - 1)) % 2
        c = _component(twice, dim_k, n=int(rng.integers(1, 4)))
        g = GradedGenerator(c, int(rng.integers(0, dim_k + 1)))
        assert g.mu_f == g.mu_f_rf
        assert g.mu_f == mu_lambda(c) + g.ind_f + 1


def test_cascade_dims_generator_level_formulas():
    lo = GradedGenerator(_component(4, 1, ident="lo", action=3.0), 1)
    up = GradedGenerator(_component(2, 1, ident="up", action=1.0), 0)
    assert cascade_dims("extended", lo, up) == lo.mu_f - up.mu_f
    assert cascade_dims("rabinowitz", lo, up) == lo.mu_f_rf - up.mu_f_rf - 1
    assert cascade_dims("hybrid", lo, up) == lo.mu_f_rf - up.mu_f


def test_cascade_dims_hybrid_same_generator_is_zero():
    g = GradedGenerator(_component(4, 1), 1)
    assert cascade_dims("hybrid", g, g) == 0


def test_cascade_dims_component_level_formulas():
    lo = _component(4, 1, ident="lo")
    up = _component(2, 1, ident="up")
    assert cascade_dims("extended", lo, up) == (
        mu_lambda(lo) + lo.dim_lambda - mu_lambda(up) - 1
    )
    assert cascade_dims("rabinowitz", lo, up) == (
        mu_K(lo) + lo.dim_k - mu_K(up) - 1
    )
    assert cascade_dims("hybrid", lo, up) == mu_K(lo) + lo.dim_k - mu_lambda(up)


def test_cascade_dims_cross_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        comps = []
        gens = []
        for ident in ("lo", "up"):
            dim_k = int(rng.integers(0, 5))
            twice = int(rng.integers(-9, 10))
            twice += (twice - (dim_k - 1)) % 2
            c = _component(twice, dim_k, ident=ident, action=float(rng.uniform(-3, 3)))
            comps.append(c)
            gens.append(GradedGenerator(c, int(rng.integers(0, dim_k + 1))))
        lo_c, up_c = comps
        lo, up = gens
        for mode in ("extended", "rabinowitz"):
            cross = (
                cascade_dims(mode, lo, up_c)
                + cascade_dims(mode, lo_c, up)
                - cascade_dims(mode, lo_c, up_c)
            )
            assert cross == cascade_dims(mode, lo, up)


def test_cascade_dims_mode_errors():
    c = _component(4, 1)
    with pytest.raises(ValueError):
        cascade_dims("nonsense", c, c)
    g = GradedGenerator(c, 0)
    with pytest.raises(ValueError):
        cascade_dims("hybrid", g, c)  # mixed hybrid endpoints unsupported


def test_fredholm_cylinder_equal_endpoints():
    c = _component(4, 1)
    assert fredholm_index("cylinder", c, c) == -c.dim_lambda


def test_fredholm_hybrid_branches_agree():
    lo = _component(4, 1, ident="lo")
    up = _component(2, 1, ident="up")
    index = fredholm_index("hybrid", lo, up)
    assert index == mu_K(lo) - mu_lambda(up) - up.dim_lambda
    # both signs of the regularity scalar assemble it from their W1, W2 data
    for sign in (1, -1):
        twice_a = 2 * (mu_K(lo) - (0 if sign > 0 else 1))
        w2 = HalfInteger(-2 * mu_lambda(up) - up.dim_lambda)
        assert assemble_hybrid_index(HalfInteger(twice_a + 1), 1, w2, up.dim_lambda, sign) == (
            index, mu_K(lo), mu_lambda(up))
    # and it matches the matching-space dimension minus the two manifold
    # dimensions
    assert index == cascade_dims("hybrid", lo, up) - lo.dim_k - up.dim_lambda


def test_assemble_hybrid_index_branch_pair():
    i1, mk1, ml1 = assemble_hybrid_index(HalfInteger(5), 1, HalfInteger(-6), 2, +1)
    i2, mk2, ml2 = assemble_hybrid_index(HalfInteger(3), 1, HalfInteger(-6), 2, -1)
    assert (i1, mk1, ml1) == (i2, mk2, ml2)


def test_assemble_hybrid_index_refuses_half_integral_data():
    # W1 data with mu_rs(W1) - nu(W1)/2 a half-integer: mu(K) is no integer
    with pytest.raises(IndexArithmeticError, match="W1"):
        assemble_hybrid_index(HalfInteger(4), 1, HalfInteger(-6), 2, +1)
    # W2 data with mu_rs(W2) + nu(W2)/2 a half-integer: mu(Lambda) is no integer
    with pytest.raises(IndexArithmeticError, match="W2"):
        assemble_hybrid_index(HalfInteger(5), 1, HalfInteger(-5), 2, -1)


def test_model_components_match_engine_and_closed_form():
    # counting the crossings of the contact rotation analytically gives
    # path index 2k(n-1); the unipotent block adds zero
    for n in (1, 2, 3):
        sy = make_model(n=n)
        comps = model_components(sy, ks=(-2, -1, 1, 2))
        const = comps[0]
        assert const.kind == "constants" and mu_K(const) == 1 - n
        for c in comps[1:]:
            k = int(c.id.replace("orbit", ""))
            assert c.mu_rs.twice_value == 2 * (2 * k * (n - 1))
            assert mu_K(c) == (n - 1) * (2 * k - 1)
            assert mu_lambda(c) == mu_K(c) - 1
            assert c.action == pytest.approx(np.pi * k)
        for g in model_generators(comps):
            assert g.mu_f == g.mu_f_rf


def test_model_lambda_path_direct_index():
    sy = make_model(n=2)
    v = rs_index(model_lambda_path(sy, 1))
    assert v.twice_value == 4  # 2k(n-1) = 2


def test_components_json_and_csv():
    sy = make_model(n=2)
    comps = model_components(sy, ks=(1,))
    text = components_to_json(comps)
    again = components_from_json(text)
    assert again == comps
    again2 = components_from_json(io.StringIO(text))
    assert again2 == comps
    report = index_report_csv(comps)
    lines = report.splitlines()
    assert lines[0] == "id,kind,action,dim_K,dim_Lambda,mu_rs,mu_K,mu_Lambda"
    assert len(lines) == len(comps) + 1
