"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line each (run pytest with -s to watch them stream)."""

import filecmp
import os

from rfhlab import acceptance


def _check(result, budget=None):
    print(result.line())
    assert result.passed, result.details
    if budget is not None:
        assert result.elapsed < budget, f"over budget: {result.elapsed:.1f}s >= {budget}s"


def test_criterion_1_index_anchor():
    # 3 x 3 x 2 parameter grid, exact zeros, under one second
    _check(acceptance.criterion_1(), budget=1.0)


def test_criterion_2_perturbation_shift():
    # dim-2 kernel: the index moves by exactly -sgn(delta) for +-1e-3
    _check(acceptance.criterion_2(), budget=1.0)


def test_criterion_3_block_additivity():
    # 200 random block-diagonal pairs, exact additivity
    _check(acceptance.criterion_3(seed=0), budget=10.0)


def test_criterion_4_grading():
    # constants graded 1-n for n in {1,2,3}; mu(Lambda) = mu(K) - 1 and
    # equal generator gradings on every model component
    _check(acceptance.criterion_4())


def test_criterion_5_dimension_calculus():
    # all cascade dimension formulas satisfy the cross identity on 100
    # random consistent inputs, exactly
    _check(acceptance.criterion_5(seed=1))


def test_criterion_6_hybrid_branch_consistency():
    # both regularity-scalar signs produce the same total on 100 inputs
    _check(acceptance.criterion_6(seed=2))


def test_criterion_7_flow_structure():
    # 20 randomized perturbed starts on the n=1 model: convergence with
    # monotone action, energy identity <= 1e-6, multiplier-ODE residual
    # <= 1e-6, conserved average drift <= 1e-10, the small-gradient
    # threshold implication, and containment
    _check(acceptance.criterion_7(seed=0), budget=120.0)


def test_criterion_8_hybrid_stationary():
    # stationary matching configurations are fixed points of zero energy;
    # second variations agree to 1e-10 over 50 probes; the sigma-shift is
    # the only neutral direction after the manifold tangents
    _check(acceptance.criterion_8(seed=0), budget=60.0)


def test_criterion_9_algebra():
    # square-zero boundaries, 100 exact inversions up to 64 generators,
    # commuting conjugation triples, all over Z2
    _check(acceptance.criterion_9(seed=3), budget=10.0)


def test_criterion_10_determinism(tmp_path):
    # two selftest runs with one seed write byte-identical artifacts
    dirs = []
    for tag in ("run_a", "run_b"):
        out = tmp_path / tag
        results = acceptance.run_criteria(acceptance.QUICK_SET, seed=0)
        acceptance.write_artifacts(results, str(out), seed=0)
        dirs.append(out)
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for name in names:
        assert filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False), name


def test_all_criteria_pass_together():
    results = acceptance.run_criteria(seed=0)
    assert all(r.passed for r in results)
    assert [r.criterion for r in results] == list(range(1, 10))
