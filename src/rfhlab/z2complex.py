"""Action-filtered Z2 chain complexes and triangular chain isomorphisms.

Generators carry an action value and (optionally) an integer degree.  A
complex or a chain map stores one read-only 0/1 uint8 matrix M[to, from]
over the canonical order (action descending, then id), built from ordered
(from, to) id pairs or adopted as is and checked, or adopted unchecked
from a constructor that builds it to meet the rules; its id pairs `.pairs`
or `.off_diag` are read-only views derived on each read.  Boundary entries
obey the filtration rule action(to) <= action(from) and, when both degrees
are present, degree(to) = degree(from) - 1.  A chain map has a unit diagonal
and off-diagonal entries that strictly lower the action, so its matrix is
I + N with N strictly lower triangular, and is invertible.

Linear algebra is dense GF(2).  Matrices cross the API as numpy uint8
arrays.  Products are float32 BLAS products reduced mod 2, exact while
the inner dimension stays below 2**24.  Triangular inversion is block
recursive on such products, with the doubling product
(I + N)(I + N^2)(I + N^4)... on diagonal blocks of at most 64 rows.
Rank is panel elimination: per 64-column panel, each active row holds its
panel bits and the record of pivot rows XORed into it as two uint64
words, and one float32 product of the records updates the trailing columns
(Albrecht, Bard & Pernet, arXiv:1111.6549; Albrecht, Bard & Hart,
"Algorithm 898", ACM TOMS 37(1) (2010)).  Homology ranks each boundary
block d_k : C_k -> C_{k-1} once.
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


def _ranked(generators) -> list[Generator]:
    """Generators in canonical order: action descending, then id."""
    ranked = sorted(generators, key=lambda g: (-g.action, g.id))
    if len({g.id for g in ranked}) != len(ranked):
        raise ValueError("generator ids must be unique")
    return ranked


def _canonical(generators, pairs, kind: str) -> np.ndarray:
    """The 0/1 matrix M[to, from] of (from, to) id pairs over the canonical
    order; the only work per pair is the id lookup."""
    idx = {g.id: i for i, g in enumerate(_ranked(generators))}
    pairs = list(pairs)
    try:
        ends = np.array([(idx[dst], idx[src]) for src, dst in pairs], dtype=np.intp).reshape(-1, 2)
    except KeyError:
        src, dst = next(p for p in pairs if p[0] not in idx or p[1] not in idx)
        raise ValueError(f"{kind} pair ({src}, {dst}) references unknown generator") from None
    mat = np.zeros((len(idx), len(idx)), dtype=np.uint8)
    mat[ends[:, 0], ends[:, 1]] = 1
    return mat


def _id_pairs(order, mat) -> frozenset:
    """(from, to) id pairs of the nonzero entries M[to, from]."""
    ids = np.array(order, dtype=object)
    to, frm = np.nonzero(mat)
    return frozenset(zip(ids[frm], ids[to]))


def _first_entry(items, mask: np.ndarray):
    """(items[from], items[to]) at the first True M[to, from], row-major."""
    if not mask.any():
        return None
    hits = np.argwhere(mask)
    return items[hits[0, 1]], items[hits[0, 0]]


class _CanonicalMatrix:
    """Generators and one read-only 0/1 matrix M[to, from] over their
    canonical order, held to the subclass's `_check` rules."""

    @classmethod
    def from_matrix(cls, generators, matrix):
        """Adopt a 0/1 matrix M[to, from] over the canonical order of the
        generators, held to the same rules as pairs."""
        obj = cls.__new__(cls)
        obj._adopt(list(generators), np.array(matrix, dtype=np.uint8))
        return obj

    def _adopt(self, generators, matrix):
        ranked = _ranked(generators)
        size = (len(ranked), len(ranked))
        if matrix.shape != size or matrix.max(initial=0) > 1:
            raise ValueError(f"expected a 0/1 matrix of shape {size}, got shape {matrix.shape}")
        self._check(ranked, matrix)
        matrix.setflags(write=False)
        self.generators, self.order, self.matrix = generators, [g.id for g in ranked], matrix

    @classmethod
    def _built(cls, generators, order, matrix):
        """Adopt, unchecked, a matrix built to meet the rules over the canonical ``order``."""
        obj = cls.__new__(cls)
        matrix.setflags(write=False)
        obj.generators, obj.order, obj.matrix = list(generators), list(order), matrix
        return obj


class FilteredZ2Complex(_CanonicalMatrix):
    """Finite list of generators with Z2 boundary counts.

    The infinite filtered vector space behind this structure admits
    elements supported on arbitrarily low action; instances here truncate
    to a finite window, which is harmless because boundary sums are
    row-finite under the filtration.
    """

    def __init__(self, generators, boundary_pairs):
        generators = list(generators)
        self._adopt(generators, _canonical(generators, boundary_pairs, "boundary"))

    @staticmethod
    def _check(ranked, matrix):
        act = np.array([g.action for g in ranked], dtype=float)
        graded = np.array([g.degree is not None for g in ranked], dtype=bool)
        deg = np.array([g.degree or 0 for g in ranked], dtype=np.int64)
        raises = act[:, None] > act[None, :] + 1e-12
        skips = graded[:, None] & graded[None, :] & (deg[:, None] != deg[None, :] - 1)
        hit = _first_entry(ranked, matrix.astype(bool) & (raises | skips))
        if hit is None:
            return
        a, b = hit
        if b.action > a.action + 1e-12:
            raise FiltrationError(
                f"boundary {a.id} -> {b.id} raises the action ({a.action} -> {b.action})"
            )
        raise GradingError(
            f"boundary {a.id} -> {b.id} drops degree by {a.degree - b.degree}, expected 1"
        )

    @property
    def pairs(self) -> frozenset:
        """(from, to) id pairs of the boundary."""
        return _id_pairs(self.order, self.matrix)


def boundary_matrix(c: FilteredZ2Complex):
    """Canonical order and the stored matrix D[to, from] over Z2."""
    return c.order, c.matrix


def boundary_apply(c: FilteredZ2Complex | ChainMapMatrix, eps) -> set:
    """Apply the boundary to a chain given as a set of generator ids, over
    Z2; `phi_apply` applies a chain map the same way."""
    eps = set(eps)
    if not eps <= set(c.order):
        raise ValueError(f"chain references unknown generators {sorted(eps - set(c.order))[:4]}")
    cols = [i for i, g in enumerate(c.order) if g in eps]
    return {c.order[i] for i in np.flatnonzero(c.matrix[:, cols].sum(axis=1) & 1)}


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of 0/1 matrices over GF(2): a float32 BLAS product reduced
    mod 2, exact while the inner dimension is below 2**24 (every partial
    sum is an integer no larger than it)."""
    return _parity(a.astype(np.float32) @ b.astype(np.float32), np.uint8)


def _parity(x: np.ndarray, dtype=np.float32) -> np.ndarray:
    """x mod 2 for a float32 array of exact nonnegative integers."""
    return (x.astype(np.int32) & 1).astype(dtype)


# largest diagonal block that _invert_unit_lower inverts without splitting
_LEAF = 64


def _tri_inverse(nil: np.ndarray) -> np.ndarray:
    """(I + N)^-1 over GF(2) for N the strictly lower triangle of nil (the
    diagonal and above are not read), by `_invert_unit_lower` on a float32
    copy."""
    work = np.array(nil, dtype=np.float32)
    _invert_unit_lower(work)
    return work.astype(np.uint8)


def _invert_unit_lower(work: np.ndarray) -> None:
    """Overwrite a float32 0/1 matrix whose strictly lower triangle is N
    with (I + N)^-1 over GF(2).

    Block recursion: [[A, 0], [C, B]]^-1 = [[A^-1, 0], [B^-1 C A^-1, B^-1]]
    over GF(2), where C is still the lower-left block of work after both
    diagonal blocks are inverted in place.  A block of at most _LEAF rows
    takes the doubling product (I + N)^-1 = (I + N)(I + N^2)(I + N^4)...,
    which ends once the power of the nilpotent N is zero.
    """
    size = len(work)
    if size <= _LEAF:
        nil = np.tril(work, -1)
        inv = nil + np.eye(size, dtype=np.float32)
        power = _parity(nil @ nil)
        while power.any():
            inv = _parity(inv @ power + inv)
            power = _parity(power @ power)
        work[:] = inv
        return
    half = size // 2
    top, bottom = work[:half, :half], work[half:, half:]
    _invert_unit_lower(top)
    _invert_unit_lower(bottom)
    work[:half, half:] = 0
    work[half:, :half] = _parity(bottom @ _parity(work[half:, :half] @ top))


# width of an elimination panel: one uint64 word of columns per row
_PANEL = 64
_SHIFTS = np.arange(_PANEL, dtype=np.uint64)
_BITS = np.left_shift(np.uint64(1), _SHIFTS)


def _panel_words(bits: np.ndarray) -> np.ndarray:
    """Each row's first (at most 64) columns as one little-endian uint64,
    bit j holding column j."""
    packed = np.zeros((len(bits), 8), dtype=np.uint8)
    packed[:, : -(-bits.shape[1] // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")[:, 0]


def gf2_rank(m: np.ndarray) -> int:
    """Rank over GF(2) by panel elimination on the taller orientation.

    Each panel of 64 columns holds, per active row, its panel bits in one
    uint64 word and, in a second word, the pivot rows XORed into it.  Every
    pivot column clears its bit from the other non-pivot rows with one
    masked XOR on each word.  The non-pivot rows then leave the panel zero,
    and their trailing columns take one product of the 0/1 records with the
    pivot rows' trailing columns (the PLE scheme of Albrecht, Bard &
    Pernet, arXiv:1111.6549).  The pivot rows drop out before the next panel.
    """
    a = np.asarray(m, dtype=np.uint8) % 2
    if a.shape[0] < a.shape[1]:
        a = a.T
    rank = 0
    while a.size:
        word = _panel_words(a[:, :_PANEL])
        record = np.zeros_like(word)
        seen = int(np.bitwise_or.reduce(word))
        pivots = []
        for j in range(min(_PANEL, a.shape[1])):
            if not seen >> j & 1:
                continue
            hit = word >> _SHIFTS[j] & _BITS[0]
            p = hit.argmax()
            if not hit[p]:
                continue
            word ^= hit * word[p]
            record ^= hit * (record[p] | _BITS[len(pivots)])
            pivots.append(p)
        rank += len(pivots)
        rest = np.ones(len(a), dtype=bool)
        rest[pivots] = False
        trail = a[rest, _PANEL:]
        if pivots and trail.size:
            mix = np.unpackbits(record[rest].view(np.uint8).reshape(-1, 8), axis=1,
                                bitorder="little")[:, : len(pivots)]
            trail ^= gf2_matmul(mix, a[pivots, _PANEL:])
        a = trail
    return rank


def verify_d_squared(c: FilteredZ2Complex):
    """(True, None) iff the boundary squares to zero, else (False, the
    (from, to) ids of the first nonzero entry of d^2)."""
    hit = _first_entry(c.order, gf2_matmul(c.matrix, c.matrix) == 1)
    return hit is None, hit


def homology(c: FilteredZ2Complex) -> dict:
    """Z2 Betti numbers per degree (requires d^2 = 0): dim C_k - rank d_k
    - rank d_{k+1}, where each boundary block d_k : C_k -> C_{k-1} is
    ranked once and an empty block counts rank 0 without elimination.

    Generators without a degree are collected under the key None and
    contribute dim ker - dim im as a single number.
    """
    ok, witness = verify_d_squared(c)
    if not ok:
        raise ValueError(f"boundary does not square to zero (witness {witness})")
    at = {}
    for i, g in enumerate(_ranked(c.generators)):
        at.setdefault(g.degree, []).append(i)

    def rank(to_deg, from_deg):
        rows, cols = at.get(to_deg, []), at.get(from_deg, [])
        return gf2_rank(c.matrix[np.ix_(rows, cols)]) if rows and cols else 0

    graded = sorted(k for k in at if k is not None)
    d = {k: rank(k - 1, k) for k in set(graded) | {k + 1 for k in graded}}
    out = {k: len(at[k]) - d[k] - d[k + 1] for k in graded}
    if None in at:
        out[None] = len(at[None]) - 2 * rank(None, None)
    return out


class ChainMapMatrix(_CanonicalMatrix):
    """Triangular chain-map counts: unit diagonal, strictly action-lowering
    off-diagonal entries.  Pairs imply the diagonal; a matrix carries it."""

    def __init__(self, generators, pairs):
        generators = list(generators)
        unit = np.eye(len(generators), dtype=np.uint8)
        self._adopt(generators, _canonical(generators, pairs, "chain-map") | unit)

    @staticmethod
    def _check(ranked, matrix):
        act = np.array([g.action for g in ranked], dtype=float)
        bad = matrix.astype(bool) & ~(act[None, :] > act[:, None] + 1e-12)
        np.fill_diagonal(bad, False)
        hit = _first_entry(ranked, bad)
        if hit is not None:
            a, b = hit
            raise FiltrationError(
                f"chain-map entry {a.id} -> {b.id} does not strictly lower "
                f"the action ({a.action} -> {b.action})"
            )
        missing = sorted(ranked[i].id for i in np.flatnonzero(matrix.diagonal() == 0))
        if missing:
            raise NotInvertibleError(
                f"chain-map matrix has zero diagonal at {missing[:4]}; a unit diagonal is required"
            )

    @property
    def off_diag(self) -> frozenset:
        """(from, to) id pairs of the entries off the diagonal."""
        return _id_pairs(self.order, np.tril(self.matrix, -1))


def phi_matrix(m: ChainMapMatrix):
    """Canonical order and the stored matrix P[to, from] = I + N over Z2."""
    return m.order, m.matrix


phi_apply = boundary_apply


def phi_invert(m: ChainMapMatrix) -> ChainMapMatrix:
    """Inverse chain map, exactly, adopted as built: (I + N)^-1 = sum N^k is
    unit lower triangular in m's order too, so it strictly lowers the action."""
    return ChainMapMatrix._built(m.generators, m.order, _tri_inverse(m.matrix))


def verify_chain_map(m: ChainMapMatrix, c_source: FilteredZ2Complex, c_target: FilteredZ2Complex):
    """True iff boundary_target o Phi = Phi o boundary_source over Z2; on
    failure a witness pair (from, to) where the composites differ.  The map
    and both complexes must share one generator set and order."""
    if not m.order == c_source.order == c_target.order:
        raise ValueError("chain-map verification needs a shared generator set and order")
    p = m.matrix
    hit = _first_entry(m.order, gf2_matmul(c_target.matrix, p) != gf2_matmul(p, c_source.matrix))
    return hit is None, hit


# -- instance files -----------------------------------------------------------------


def save_instance(file, c: FilteredZ2Complex, m: ChainMapMatrix | None = None) -> str:
    """Line-oriented text: gen/bnd/phi records, canonically sorted."""
    lines = [f"gen {g.id} degree {'-' if g.degree is None else g.degree} action {g.action:.17g}"
             for g in _ranked(c.generators)]
    lines += [f"bnd {src} {dst}" for src, dst in sorted(c.pairs)]
    if m is not None:
        lines += [f"phi {src} {dst}" for src, dst in sorted(_id_pairs(m.order, m.matrix))]
    return write_text(file, "\n".join(lines) + "\n")


def load_instance(file):
    """Read an instance file; returns (complex, chain map or None)."""
    text = read_text(file)
    gens, records = [], {"bnd": [], "phi": []}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "gen" and len(parts) == 6 and parts[2] == "degree" and parts[4] == "action":
            deg = None if parts[3] == "-" else int(parts[3])
            gens.append(Generator(id=parts[1], degree=deg, action=float(parts[5])))
        elif parts[0] in records and len(parts) == 3:
            records[parts[0]].append((parts[1], parts[2]))
        else:
            raise ValueError(f"line {lineno}: unrecognized record {raw!r}")
    c = FilteredZ2Complex(gens, records["bnd"])
    if not records["phi"]:
        return c, None
    # the records as they stand: a missing `phi g g` record is a zero on
    # the diagonal, which the chain-map rules reject
    return c, ChainMapMatrix.from_matrix(gens, _canonical(gens, records["phi"], "chain-map"))


# -- randomized instances for property suites ----------------------------------------


def random_filtered_complex(rng: np.random.Generator, n_gens: int = 12) -> FilteredZ2Complex:
    """Square-zero instance: a paired boundary conjugated by a random
    triangular degree-zero automorphism, so d^2 = 0 holds by construction
    while the counts look unstructured, and adopted as built: the
    automorphism preserves degree and lowers the action."""
    n_pairs = n_gens // 2
    gens = []
    for i in range(n_pairs):
        deg = int(rng.integers(1, 4))
        act = float(rng.uniform(1.0, 3.0))
        gens.append(Generator(id=f"a{i}", degree=deg, action=act))
        gens.append(Generator(id=f"b{i}", degree=deg - 1, action=act - float(rng.uniform(0.1, 0.9))))
    d = _canonical(gens, [(f"a{i}", f"b{i}") for i in range(n_pairs)], "boundary")
    # triangular automorphism T = I + N preserving degree and lowering
    # action: one draw per eligible (i, j), in row-major order
    ranked = _ranked(gens)
    act = np.array([g.action for g in ranked])
    deg = np.array([g.degree for g in ranked])
    eligible = (act[:, None] < act[None, :] - 1e-9) & (deg[:, None] == deg[None, :])
    t = np.eye(len(gens), dtype=np.uint8)
    t[eligible] = rng.random(np.count_nonzero(eligible)) < 0.4
    return FilteredZ2Complex._built(gens, [g.id for g in ranked],
                                    gf2_matmul(gf2_matmul(t, d), _tri_inverse(t)))


def random_triangular(rng: np.random.Generator, n_gens: int = 16, density: float = 0.3):
    """Random unit-diagonal triangular chain-map matrix on fresh generators,
    adopted as built: its bits lie below the diagonal, over distinct actions."""
    degrees = rng.integers(0, 3, size=n_gens).tolist()
    gens = [Generator(id=f"g{i}", degree=deg, action=float(i) + 1.0)
            for i, deg in enumerate(degrees)]
    # action of g{i} is higher than g{j} for i > j: one draw per pair
    # (g{i}, g{j}), row-major over the strict lower triangle; g{i} ranks
    # n_gens - 1 - i in canonical order
    full = np.zeros((n_gens, n_gens), dtype=np.uint8)
    full[np.tri(n_gens, k=-1, dtype=bool)] = rng.random(n_gens * (n_gens - 1) // 2) < density
    p = np.eye(n_gens, dtype=np.uint8) | full[::-1, ::-1].T
    return ChainMapMatrix._built(gens, [g.id for g in reversed(gens)], p)
