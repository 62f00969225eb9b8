"""Negative gradient flows of the two action functionals.

Both functionals are strongly indefinite, so generic initial data escapes
along unstable directions; the run below starts in the fast-stable cone of
the reduced second variation and converges back to the critical manifold,
with every structural diagnostic holding along the way.
"""

import numpy as np

from rfhlab.gradflow import (
    IntegrateControls,
    discrete_orbit_loop,
    integrate,
    lift_loop,
    reduced_hessian,
    stable_perturbation,
)
from rfhlab.model import make_model

sys1 = make_model(n=1)
orbit = discrete_orbit_loop(sys1, 1, 256)
lifted = lift_loop(orbit, sigma=0.4)

print("== the saddle structure ==")
hess = reduced_hessian(sys1, orbit, kmax=1)
print("free-period second variation at the circle orbit (modes |k| <= 1):")
print("  eigenvalues:", np.round(np.sort(np.linalg.eigvalsh(hess)), 4))
print("  (negative rates grow under the flow, positive rates contract,")
print("   zero is the phase direction)")

print()
print("== a converging run ==")
rng = np.random.default_rng(3)
start = stable_perturbation(sys1, lifted, rng, kmax=1, amplitude=1e-5, rate_min=2.0)
final, d = integrate(sys1, start, IntegrateControls())
print(f"converged: {d.converged} after {len(d.rows) - 1} accepted steps,"
      f" landing on {d.target_component}")
print(f"{'step':>5} {'s':>8} {'action':>18} {'grad':>10} {'max|H|':>10}")
for r in d.rows[:: max(1, len(d.rows) // 8)]:
    print(f"{r.step:5d} {r.s:8.4f} {r.action:18.12f} {r.grad_norm:10.2e}"
          f" {r.max_abs_h:10.2e}")

print()
print("== structural diagnostics ==")
print(f"  action non-increasing:        {d.actions_non_increasing}")
print(f"  energy identity residual:     {d.energy_identity_residual:.2e}")
print(f"  multiplier-ODE residual:      {d.max_eta_residual:.2e}")
print(f"  conserved-average drift:      {d.max_zeta_drift:.2e}")
print(f"  small-gradient threshold ok:  {d.lem1_always}")
print(f"  contained in the plateau ball:{d.contained_always}")
print(f"  fiber-spread bound ok:        {d.zeta_spread_bound_ok()}")
print(f"  final sigma (preserved):      {final.zeta_avg:.6f}")
