"""Action-filtered Z2 chain complexes and triangular chain isomorphisms.

Generators carry an action value and (optionally) an integer degree.
Boundary data is a set of ordered pairs (from, to) with coefficient 1 in
Z2, subject to the filtration rule action(to) <= action(from) and, when
both degrees are present, degree(to) = degree(from) - 1.  Chain-map data
is triangular in action order with unit diagonal: every diagonal pair is
present and off-diagonal pairs strictly lower the action, so its matrix
P[to, from] in canonical (action-descending) order is I + N with N
strictly lower triangular, and is invertible row by row.

Linear algebra is dense GF(2).  Matrices cross the API as numpy uint8
arrays.  Triangular inversion and elimination hold each row as
little-endian uint64 words (64 columns per word) and act with one
vectorized XOR per row operation, after Albrecht, Bard & Hart, "Algorithm
898", ACM TOMS 37(1) (2010).  Products are float64 BLAS products reduced
mod 2, exact while the inner dimension stays below 2**53.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._files import read_text, write_text

__all__ = [
    "Generator",
    "FilteredZ2Complex",
    "ChainMapMatrix",
    "FiltrationError",
    "GradingError",
    "NotInvertibleError",
    "boundary_matrix",
    "boundary_apply",
    "verify_d_squared",
    "homology",
    "phi_matrix",
    "phi_apply",
    "phi_invert",
    "verify_chain_map",
    "gf2_rank",
    "gf2_matmul",
    "save_instance",
    "load_instance",
    "random_filtered_complex",
    "random_triangular",
]


class FiltrationError(ValueError):
    """A coefficient violates the action filtration."""


class GradingError(ValueError):
    """A coefficient violates the degree rule."""


class NotInvertibleError(ValueError):
    """A chain-map matrix is missing a unit diagonal entry."""


@dataclass(frozen=True)
class Generator:
    id: str
    degree: int | None
    action: float


def _sorted_ids(generators) -> list[str]:
    # canonical order: action descending, then id
    return [g.id for g in sorted(generators, key=lambda g: (-g.action, g.id))]


class FilteredZ2Complex:
    """Finite list of generators with Z2 boundary counts.

    The infinite filtered vector space behind this structure admits
    elements supported on arbitrarily low action; instances here truncate
    to a finite window, which is harmless because boundary sums are
    row-finite under the filtration.
    """

    def __init__(self, generators, boundary_pairs):
        self.generators = list(generators)
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise ValueError("generator ids must be unique")
        self.by_id = {g.id: g for g in self.generators}
        self.pairs = set()
        for src, dst in boundary_pairs:
            if src not in self.by_id or dst not in self.by_id:
                raise ValueError(f"boundary pair ({src}, {dst}) references unknown generator")
            a, b = self.by_id[src], self.by_id[dst]
            if b.action > a.action + 1e-12:
                raise FiltrationError(
                    f"boundary {src} -> {dst} raises the action "
                    f"({a.action} -> {b.action})"
                )
            if a.degree is not None and b.degree is not None and b.degree != a.degree - 1:
                raise GradingError(
                    f"boundary {src} -> {dst} drops degree by "
                    f"{a.degree - b.degree}, expected 1"
                )
            self.pairs.add((src, dst))

    @property
    def order(self) -> list[str]:
        return _sorted_ids(self.generators)


def boundary_matrix(c: FilteredZ2Complex):
    """Matrix D with D[to, from] = 1 over Z2, in canonical action order."""
    order = c.order
    idx = {g: i for i, g in enumerate(order)}
    d = np.zeros((len(order), len(order)), dtype=np.uint8)
    for src, dst in c.pairs:
        d[idx[dst], idx[src]] = 1
    return order, d


def boundary_apply(c: FilteredZ2Complex, eps) -> set:
    """Apply the boundary to a chain given as a set of generator ids."""
    eps = set(eps)
    out: set = set()
    for src, dst in c.pairs:
        if src in eps:
            out ^= {dst}
    return out


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of 0/1 matrices over GF(2); the float64 sums are exact while
    the inner dimension is below 2**53."""
    return ((a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) & 1).astype(np.uint8)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as little-endian uint64 words, bit j of word w
    holding column 64 w + j."""
    rows, cols = bits.shape
    packed = np.zeros((rows, 8 * -(-cols // 64)), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def _tri_inverse(nil: np.ndarray) -> np.ndarray:
    """(I + N)^-1 over GF(2) for N = nil strictly lower triangular: row i
    is e_i xor the rows j < i with N[i, j] = 1, built in order on packed
    rows."""
    size = len(nil)
    x = _pack(np.eye(size, dtype=np.uint8))
    for i in range(size):
        below = np.flatnonzero(nil[i, :i])
        if below.size:
            x[i] ^= np.bitwise_xor.reduce(x[below], axis=0)
    return np.unpackbits(x.view(np.uint8), axis=1, count=size, bitorder="little")


def gf2_rank(m: np.ndarray) -> int:
    """Rank over GF(2) by row reduction on packed rows: each pivot column
    costs one vectorized XOR into the remaining rows that hold its bit."""
    x = _pack(np.asarray(m, dtype=np.uint8) % 2)
    rows, cols = np.shape(m)
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        w, bit = divmod(col, 64)
        rest = x[rank:]
        hits = np.flatnonzero(rest[:, w] & np.uint64(1 << bit))
        if hits.size == 0:
            continue
        pivot = rest[hits[0], w:].copy()
        rest[hits[1:], w:] ^= pivot
        rest[[0, hits[0]]] = rest[[hits[0], 0]]
        rank += 1
    return rank


def _first_hit(order, diff: np.ndarray):
    """(True, None) when diff is zero, else (False, (from id, to id)) at its
    first nonzero entry D[to, from]."""
    hits = np.argwhere(diff == 1)
    if hits.size == 0:
        return True, None
    to_i, from_i = hits[0]
    return False, (order[from_i], order[to_i])


def verify_d_squared(c: FilteredZ2Complex):
    """True iff the boundary squares to zero; else a witness pair of ids."""
    order, d = boundary_matrix(c)
    return _first_hit(order, gf2_matmul(d, d))


def homology(c: FilteredZ2Complex) -> dict:
    """Z2 Betti numbers per degree (requires d^2 = 0).

    Generators without a degree are collected under the key None and
    contribute dim ker - dim im as a single number.
    """
    order, d = boundary_matrix(c)
    ok, witness = _first_hit(order, gf2_matmul(d, d))
    if not ok:
        raise ValueError(f"boundary does not square to zero (witness {witness})")
    degs = {g.id: g.degree for g in c.generators}
    degrees = sorted({deg for deg in degs.values() if deg is not None})
    idx = {g: i for i, g in enumerate(order)}
    out = {}
    for k in degrees:
        cols = [idx[g] for g in order if degs[g] == k]
        rows_below = [idx[g] for g in order if degs[g] == k - 1]
        rank_k = gf2_rank(d[np.ix_(rows_below, cols)]) if cols and rows_below else 0
        cols_up = [idx[g] for g in order if degs[g] == k + 1]
        rank_up = gf2_rank(d[np.ix_(cols, cols_up)]) if cols and cols_up else 0
        out[k] = len(cols) - rank_k - rank_up
    # ungraded bucket
    free = [idx[g] for g in order if degs[g] is None]
    if free:
        sub = d[np.ix_(free, free)]
        out[None] = len(free) - 2 * gf2_rank(sub)
    return out


class ChainMapMatrix:
    """Triangular chain-map counts: unit diagonal, strictly action-lowering
    off-diagonal entries."""

    def __init__(self, generators, pairs, include_diagonal: bool = True):
        self.generators = list(generators)
        self.by_id = {g.id: g for g in self.generators}
        explicit = set(pairs)
        self.off_diag = set()
        diagonal_seen = set()
        for src, dst in explicit:
            if src not in self.by_id or dst not in self.by_id:
                raise ValueError(f"chain-map pair ({src}, {dst}) references unknown generator")
            if src == dst:
                diagonal_seen.add(src)
                continue
            a, b = self.by_id[src], self.by_id[dst]
            if not (a.action > b.action + 1e-12):
                raise FiltrationError(
                    f"chain-map entry {src} -> {dst} does not strictly lower "
                    f"the action ({a.action} -> {b.action})"
                )
            self.off_diag.add((src, dst))
        if not include_diagonal and diagonal_seen != {g.id for g in self.generators}:
            missing = sorted({g.id for g in self.generators} - diagonal_seen)
            raise NotInvertibleError(
                f"chain-map matrix has zero diagonal at {missing[:4]}; "
                "a unit diagonal is required"
            )

    @property
    def order(self) -> list[str]:
        return _sorted_ids(self.generators)


def phi_matrix(m: ChainMapMatrix):
    order = m.order
    idx = {g: i for i, g in enumerate(order)}
    p = np.eye(len(order), dtype=np.uint8)
    for src, dst in m.off_diag:
        p[idx[dst], idx[src]] = 1
    return order, p


def phi_apply(m: ChainMapMatrix, eps) -> set:
    """Apply the chain map to a chain of generator ids over Z2."""
    eps = set(eps)
    out = set(eps)  # unit diagonal
    for src, dst in m.off_diag:
        if src in eps:
            out ^= {dst}
    return out


def phi_invert(m: ChainMapMatrix) -> ChainMapMatrix:
    """Inverse chain map, exactly.

    In canonical order the matrix is I + N with N strictly lower
    triangular, so the inverse is triangular too and its entries strictly
    lower the action; its off-diagonal entries become the pairs of the
    result, which passes the same filtration check as any chain map.
    """
    order, p = phi_matrix(m)
    q = _tri_inverse(p ^ np.eye(len(order), dtype=np.uint8))
    np.fill_diagonal(q, 0)
    ids = np.array(order, dtype=object)
    dst, src = np.nonzero(q)
    return ChainMapMatrix(m.generators, set(zip(ids[src], ids[dst])))


def verify_chain_map(m: ChainMapMatrix, c_source: FilteredZ2Complex, c_target: FilteredZ2Complex):
    """True iff boundary_target o Phi = Phi o boundary_source over Z2.

    Both complexes must share the generator set.  On failure returns a
    witness pair (from, to) where the composites differ.
    """
    if {g.id for g in c_source.generators} != {g.id for g in c_target.generators}:
        raise ValueError("chain-map verification needs a shared generator set")
    order, p = phi_matrix(m)
    _, d_src = boundary_matrix(c_source)
    _, d_tgt = boundary_matrix(c_target)
    lhs = gf2_matmul(d_tgt, p)
    rhs = gf2_matmul(p, d_src)
    return _first_hit(order, lhs ^ rhs)


# -- instance files -----------------------------------------------------------------


def save_instance(file, c: FilteredZ2Complex, m: ChainMapMatrix | None = None) -> str:
    """Line-oriented text: gen/bnd/phi records, canonically sorted."""
    lines = []
    for g in sorted(c.generators, key=lambda g: (-g.action, g.id)):
        deg = "-" if g.degree is None else str(g.degree)
        lines.append(f"gen {g.id} degree {deg} action {format(g.action, '.17g')}")
    for src, dst in sorted(c.pairs):
        lines.append(f"bnd {src} {dst}")
    if m is not None:
        for src, dst in sorted(m.off_diag | {(g.id, g.id) for g in m.generators}):
            lines.append(f"phi {src} {dst}")
    return write_text(file, "\n".join(lines) + "\n")


def load_instance(file):
    """Read an instance file; returns (complex, chain map or None)."""
    text = read_text(file)
    gens, bnd, phi = [], [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "gen" and len(parts) == 6 and parts[2] == "degree" and parts[4] == "action":
            deg = None if parts[3] == "-" else int(parts[3])
            gens.append(Generator(id=parts[1], degree=deg, action=float(parts[5])))
        elif parts[0] == "bnd" and len(parts) == 3:
            bnd.append((parts[1], parts[2]))
        elif parts[0] == "phi" and len(parts) == 3:
            phi.append((parts[1], parts[2]))
        else:
            raise ValueError(f"line {lineno}: unrecognized record {raw!r}")
    c = FilteredZ2Complex(gens, bnd)
    m = ChainMapMatrix(gens, phi, include_diagonal=False) if phi else None
    return c, m


# -- randomized instances for property suites ----------------------------------------


def random_filtered_complex(rng: np.random.Generator, n_gens: int = 12) -> FilteredZ2Complex:
    """Square-zero instance: a paired boundary conjugated by a random
    triangular degree-zero automorphism, so d^2 = 0 holds by construction
    while the counts look unstructured."""
    n_pairs = n_gens // 2
    gens = []
    for i in range(n_pairs):
        deg = int(rng.integers(1, 4))
        act = float(rng.uniform(1.0, 3.0))
        gens.append(Generator(id=f"a{i}", degree=deg, action=act))
        gens.append(Generator(id=f"b{i}", degree=deg - 1, action=act - float(rng.uniform(0.1, 0.9))))
    order = _sorted_ids(gens)
    by_id = {g.id: g for g in gens}
    idx = {g: i for i, g in enumerate(order)}
    n = len(order)
    d = np.zeros((n, n), dtype=np.uint8)
    for i in range(n_pairs):
        d[idx[f"b{i}"], idx[f"a{i}"]] = 1
    # triangular automorphism preserving degree and lowering action: one
    # draw per eligible (i, j), in row-major order
    act = np.array([by_id[g].action for g in order])
    deg = np.array([by_id[g].degree for g in order])
    rows, cols = np.nonzero((act[:, None] < act[None, :] - 1e-9) & (deg[:, None] == deg[None, :]))
    keep = rng.random(rows.size) < 0.4
    nil = np.zeros((n, n), dtype=np.uint8)
    nil[rows[keep], cols[keep]] = 1
    d_conj = gf2_matmul(gf2_matmul(nil ^ np.eye(n, dtype=np.uint8), d), _tri_inverse(nil))
    pairs = [(order[src], order[dst]) for dst, src in np.argwhere(d_conj == 1)]
    return FilteredZ2Complex(gens, pairs)


def random_triangular(rng: np.random.Generator, n_gens: int = 16, density: float = 0.3):
    """Random unit-diagonal triangular chain-map matrix on fresh generators."""
    gens = [
        Generator(id=f"g{i}", degree=int(rng.integers(0, 3)), action=float(i) + 1.0)
        for i in range(n_gens)
    ]
    # action of g{i} is higher than g{j} for i > j: one draw per pair, row-major
    rows, cols = np.tril_indices(n_gens, -1)
    keep = rng.random(rows.size) < density
    ids = np.array([g.id for g in gens], dtype=object)
    return ChainMapMatrix(gens, set(zip(ids[rows[keep]], ids[cols[keep]])))
