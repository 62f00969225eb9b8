"""Index calculus on paths of symplectic matrices.

Walks through the index engine (``rs_index``, with the crossing list of
``rs_index_detailed``, read from the eigenphases of the Souriau unitary W):
anchor paths with known indices, the explicit unipotent 4x4 path attached
to a closed orbit, generator perturbations, and additivity over
block-diagonal joins.
"""

import numpy as np

from rfhlab.rsindex import (
    block_diag,
    perturbed_path,
    rotation_path,
    rs_index,
    rs_index_detailed,
    theta_path,
)

print("== anchors ==")
print("identity segment contributes nothing; a rotation by theta in Sp(2)")
print("turns both eigenphases of W by theta.  They leave 0 at the start and")
print("reach it at each full turn: sig counts those passing 0 upwards less")
print("those passing downwards, at half weight at the start and the end:")
for angle, label in ((2 * np.pi, "one turn"), (4 * np.pi, "two turns"),
                     (np.pi, "half turn"), (-2 * np.pi, "one negative turn")):
    value, crossings = rs_index_detailed(rotation_path(1, angle))
    times = ", ".join(f"{c.time:.3f}({c.kind},{c.sig:+d})" for c in crossings)
    print(f"  angle {angle / np.pi:+.1f} pi: index {value}  crossings: {times}")

print()
print("== the unipotent block of a closed orbit ==")
print("theta_path(tau, hp, hpp) encodes the radial profile's linearized")
print("flow in the (flow, radial, multiplier, fiber) directions.  Its only")
print("crossing-form content sits at t = 0, where the 2x2 block")
print("[[-tau*hpp, -hp], [-hp, 0]] has negative determinant, hence")
print("signature 0, and the whole path is singular with a vanishing form:")
for tau in (-2.0, 1.0, 5.0):
    v = rs_index(theta_path(tau, 1.0, 1.0))
    print(f"  tau = {tau:+.0f}: index {v}")

print()
print("== generator perturbation ==")
print("replacing the generator S by S - delta*I makes the degenerate")
print("directions definite; for the 2-dimensional endpoint kernel the")
print("index moves by exactly -sgn(delta):")
base = theta_path(2 * np.pi, 1.0, 1.0)
for delta in (1e-3, -1e-3):
    v = rs_index(perturbed_path(base, delta))
    print(f"  delta = {delta:+.0e}: index {v}")

print()
print("== block additivity ==")
joint = block_diag(rotation_path(1, 2 * np.pi), theta_path(2 * np.pi, 1.0, 1.0))
print(f"  rotation (+1 turn) x unipotent block: index {rs_index(joint)}"
      f"  (= 2 + 0)")
double = block_diag(rotation_path(1, 2 * np.pi), rotation_path(1, 2 * np.pi))
print(f"  rotation x rotation: index {rs_index(double)}  (= 2 + 2)")
