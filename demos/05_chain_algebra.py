"""Action-filtered Z2 chain complexes and the triangular isomorphism.

Builds a small instance by hand, verifies the boundary squares to zero,
reduces homology over GF(2), and inverts a triangular unit-diagonal chain
map exactly.
"""

import io

import numpy as np

from rfhlab.z2complex import (
    ChainMapMatrix,
    FilteredZ2Complex,
    Generator,
    boundary_apply,
    gf2_matmul,
    homology,
    phi_apply,
    phi_invert,
    phi_matrix,
    random_triangular,
    save_instance,
    verify_chain_map,
    verify_d_squared,
)

print("== a five-generator instance ==")
gens = [
    Generator("a", 2, 3.0),
    Generator("b", 1, 2.0),
    Generator("c", 1, 1.5),
    Generator("d", 0, 1.0),
    Generator("e", 1, 1.2),
]
c = FilteredZ2Complex(gens, [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
print("  boundary of a:", sorted(boundary_apply(c, {"a"})))
print("  boundary of b + c:", sorted(boundary_apply(c, {"b", "c"})), "(cancels over Z2)")
ok, _ = verify_d_squared(c)
print("  d^2 = 0:", ok)
print("  Betti numbers by degree:", homology(c))
print("  (the isolated generator e survives in degree 1)")

print()
print("== the instance file format ==")
buf = io.StringIO()
save_instance(buf, c)
print("  " + "\n  ".join(buf.getvalue().splitlines()[:6]))

print()
print("== triangular chain maps ==")
m = ChainMapMatrix(gens, [("a", "c"), ("a", "e"), ("b", "d")])
print("  Phi(a) =", sorted(phi_apply(m, {"a"})))
inv = phi_invert(m)
print("  inverse off-diagonal counts:", sorted(inv.off_diag))
_, p = phi_matrix(m)
_, q = phi_matrix(inv)
print("  Phi o Phi^{-1} = identity:",
      bool(np.array_equal(gf2_matmul(p, q), np.eye(5, dtype=np.uint8))))

print()
print("== a larger random inversion ==")
rng = np.random.default_rng(0)
big = random_triangular(rng, 24, density=0.3)
binv = phi_invert(big)
_, pb = phi_matrix(big)
_, qb = phi_matrix(binv)
print("  24 generators, composite is the identity:",
      bool(np.array_equal(gf2_matmul(pb, qb), np.eye(24, dtype=np.uint8))))

print()
print("== chain-map verification ==")
ident = ChainMapMatrix(gens, [])
ok, _ = verify_chain_map(ident, c, c)
print("  identity map commutes with the boundary:", ok)
