"""The coupled half-cylinder matching problem.

A free-period trajectory on (-S, 0] meets a fixed-period trajectory on
[0, S) along the affine coupling at s = 0.  Stationary configurations are
exact fixed points; perturbed ones relax back with the action chain and
the sharp energy identity holding to quadrature accuracy.  The second
variations of the two functionals agree exactly on coupled directions,
and the only neutral direction of the linearized problem, once the
critical-manifold tangents are pinned by Morse data, is the fiber shift.
"""

import numpy as np

from rfhlab.gradflow import discrete_orbit_loop, stable_perturbation
from rfhlab.hybrid import (
    auto_transversality_check,
    hessian_agreement,
    hybrid_relax,
    initial_hybrid_state,
)
from rfhlab.model import make_model

sys1 = make_model(n=1)
orbit = discrete_orbit_loop(sys1, 1, 256)

print("== stationary configuration ==")
state = initial_hybrid_state(sys1, orbit, sigma=0.5)
out, d = hybrid_relax(sys1, state)
print(f"  fixed point: plus-end drift {np.max(np.abs(out.plus_end.x - orbit.x)):.1e}")
print(f"  energies: {d.energy_minus:.3e} + {d.energy_plus:.3e}")
print(f"  mid-action equality residual: {d.mid_action_residual:.1e}")

print()
print("== perturbed configuration ==")
rng = np.random.default_rng(42)
pert = stable_perturbation(sys1, orbit, rng, kmax=1, amplitude=3e-6, rate_min=0.5)
state = initial_hybrid_state(sys1, pert, sigma=0.5)
out, d = hybrid_relax(sys1, state)
print(f"  converged: {d.converged} (sweeps {d.sweeps}, horizon {d.horizon})")
print(f"  action chain non-increasing: {d.action_chain_ok}")
print(f"  energy identity residual: {d.energy_identity_residual:.2e}")
print(f"  coupling residuals: {d.coupling_residual_loop:.1e},"
      f" {d.coupling_residual_eta:.1e}")
print(f"  sigma preserved: {float(np.mean(out.plus_end.zeta)):.6f}")

print()
print("== equality of second variations ==")
worst = hessian_agreement(sys1, orbit, sigma=0.5, rng=np.random.default_rng(1))
print(f"  max discrepancy over 50 random coupled probes: {worst:.2e}")
print("  (the fiber-direction terms integrate away exactly)")

print()
print("== linearized matching problem at the stationary solution ==")
rep = auto_transversality_check(sys1, orbit, sigma=0.5)
print(f"  kernel dimension: {rep.kernel_dim} (expected {rep.expected_kernel_dim})")
print(f"  kernel eigenvalues: {np.array2string(rep.kernel_eigenvalues, precision=1)}")
print(f"  fiber shift neutral: {rep.rstar_in_kernel}")
print(f"  kernel = manifold tangents + fiber shift: "
      f"{rep.kernel_spanned_by_manifold_and_rstar}")
print(f"  fiber shift the only neutral direction: {rep.rstar_only_neutral}")
