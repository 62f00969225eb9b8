import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfhlab.z2complex import (
    ChainMapMatrix,
    FiltrationError,
    FilteredZ2Complex,
    Generator,
    _tri_inverse,
    GradingError,
    NotInvertibleError,
    boundary_apply,
    boundary_matrix,
    gf2_matmul,
    gf2_rank,
    homology,
    load_instance,
    phi_apply,
    phi_invert,
    phi_matrix,
    random_filtered_complex,
    random_triangular,
    save_instance,
    verify_chain_map,
    verify_d_squared,
)

# -- reference oracles: the earlier loop implementations -------------------------


def canonical_ids(generators):
    """Ids by action descending, then id."""
    return [g.id for g in sorted(generators, key=lambda g: (-g.action, g.id))]


def ref_gf2_matmul(a, b):
    return (a.astype(np.int32) @ b.astype(np.int32) % 2).astype(np.uint8)


def ref_gf2_rank(m):
    """Gauss-Jordan elimination with one XOR row operation per entry."""
    r = (np.asarray(m, dtype=np.uint8) % 2).copy()
    rows, cols = r.shape
    rank = 0
    for col in range(cols):
        pivot = -1
        for row in range(rank, rows):
            if r[row, col]:
                pivot = row
                break
        if pivot < 0:
            continue
        if pivot != rank:
            r[[rank, pivot]] = r[[pivot, rank]]
        for row in range(rows):
            if row != rank and r[row, col]:
                r[row] ^= r[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def ref_neumann_inverse(t):
    """(I + N)^-1 = I + N + N^2 + ... over Z2, for nilpotent N."""
    eye = np.eye(len(t), dtype=np.uint8)
    nmat = t ^ eye
    t_inv = eye.copy()
    power = nmat.copy()
    while power.any():
        t_inv ^= power
        power = ref_gf2_matmul(power, nmat)
    return t_inv


def ref_phi_invert(m):
    """Off-diagonal pairs of the inverse by the action recursion: the entry
    from source to target is the Z2 sum over counts(mid, target) times the
    already known entry from source to mid."""
    gens = m.generators
    actions = {g.id: g.action for g in gens}
    into = {g.id: [] for g in gens}
    for src, dst in m.off_diag:
        into[dst].append(src)
    pairs = set()
    order_desc = canonical_ids(gens)
    for source in order_desc:
        m_row = {source: 1}
        for target in order_desc:
            if target == source or actions[target] >= actions[source]:
                continue
            total = 0
            for mid in into[target]:
                total ^= m_row.get(mid, 0)
            if total:
                m_row[target] = 1
                pairs.add((source, target))
    return pairs


def ref_random_triangular(rng, n_gens=16, density=0.3):
    gens = [
        Generator(id=f"g{i}", degree=int(rng.integers(0, 3)), action=float(i) + 1.0)
        for i in range(n_gens)
    ]
    pairs = set()
    for i in range(n_gens):
        for j in range(i):
            if rng.random() < density:
                pairs.add((f"g{i}", f"g{j}"))
    return gens, pairs


def ref_random_filtered_complex(rng, n_gens=12):
    n_pairs = n_gens // 2
    gens = []
    for i in range(n_pairs):
        deg = int(rng.integers(1, 4))
        act = float(rng.uniform(1.0, 3.0))
        gens.append(Generator(id=f"a{i}", degree=deg, action=act))
        gens.append(Generator(id=f"b{i}", degree=deg - 1, action=act - float(rng.uniform(0.1, 0.9))))
    order = canonical_ids(gens)
    by_id = {g.id: g for g in gens}
    idx = {g: i for i, g in enumerate(order)}
    n = len(order)
    d = np.zeros((n, n), dtype=np.uint8)
    for i in range(n_pairs):
        d[idx[f"b{i}"], idx[f"a{i}"]] = 1
    t = np.eye(n, dtype=np.uint8)
    for i, gi in enumerate(order):
        for j, gj in enumerate(order):
            if (
                by_id[gi].action < by_id[gj].action - 1e-9
                and by_id[gi].degree == by_id[gj].degree
                and rng.random() < 0.4
            ):
                t[i, j] = 1
    d_conj = ref_gf2_matmul(ref_gf2_matmul(t, d), ref_neumann_inverse(t))
    return gens, {(order[src], order[dst]) for dst, src in np.argwhere(d_conj == 1)}


def ref_boundary_pairs(generators, pairs):
    """The per-pair validation loop of the complex constructor."""
    by_id = {g.id: g for g in generators}
    if len(by_id) != len(generators):
        raise ValueError("generator ids must be unique")
    out = set()
    for src, dst in pairs:
        if src not in by_id or dst not in by_id:
            raise ValueError(f"boundary pair ({src}, {dst}) references unknown generator")
        a, b = by_id[src], by_id[dst]
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
        out.add((src, dst))
    return out


def ref_chain_off_diag(generators, pairs):
    """The per-pair validation loop of the chain-map constructor."""
    by_id = {g.id: g for g in generators}
    out = set()
    for src, dst in pairs:
        if src not in by_id or dst not in by_id:
            raise ValueError(f"chain-map pair ({src}, {dst}) references unknown generator")
        if src == dst:
            continue
        a, b = by_id[src], by_id[dst]
        if not (a.action > b.action + 1e-12):
            raise FiltrationError(
                f"chain-map entry {src} -> {dst} does not strictly lower "
                f"the action ({a.action} -> {b.action})"
            )
        out.add((src, dst))
    return out


SIZES = (1, 2, 5, 63, 64, 65, 130, 256)


def _hand_instance():
    # a -> b + c, b -> d, c -> d, e isolated: d^2(a) = d + d = 0 over Z2.
    # Manual elimination: rank d_2 = 1, rank d_1 = 1; betti = (0, 1, 0)
    gens = [
        Generator("a", 2, 3.0),
        Generator("b", 1, 2.0),
        Generator("c", 1, 1.5),
        Generator("d", 0, 1.0),
        Generator("e", 1, 1.2),
    ]
    pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    return FilteredZ2Complex(gens, pairs)


def test_boundary_matrix_and_apply():
    c = _hand_instance()
    order, d = boundary_matrix(c)
    assert sorted(order) == ["a", "b", "c", "d", "e"]
    assert boundary_apply(c, {"a"}) == {"b", "c"}
    assert boundary_apply(c, {"b", "c"}) == set()  # d + d = 0
    assert boundary_apply(c, {"e"}) == set()


def test_d_squared_zero_with_witness_on_corruption():
    c = _hand_instance()
    ok, witness = verify_d_squared(c)
    assert ok and witness is None
    # drop one arrow: the cancellation breaks and the witness names it
    gens = c.generators
    bad = FilteredZ2Complex(gens, [("a", "b"), ("a", "c"), ("b", "d")])
    ok, witness = verify_d_squared(bad)
    assert not ok
    assert witness == ("a", "d")


def test_homology_hand_values():
    c = _hand_instance()
    assert homology(c) == {0: 0, 1: 1, 2: 0}


def test_homology_zero_boundary_counts_generators():
    gens = [Generator(f"g{i}", i % 2, float(i + 1)) for i in range(5)]
    c = FilteredZ2Complex(gens, [])
    ranks = homology(c)
    assert ranks[0] == 3 and ranks[1] == 2


def test_two_generator_rank_one_instance():
    gens = [Generator("x", 1, 2.0), Generator("y", 0, 1.0)]
    c = FilteredZ2Complex(gens, [("x", "y")])
    ok, _ = verify_d_squared(c)
    assert ok
    assert homology(c) == {0: 0, 1: 0}


def test_filtration_and_grading_violations():
    gens = [Generator("hi", 1, 1.0), Generator("lo", 0, 2.0)]
    with pytest.raises(FiltrationError):
        FilteredZ2Complex(gens, [("hi", "lo")])  # action rises
    gens2 = [Generator("p", 2, 2.0), Generator("q", 0, 1.0)]
    with pytest.raises(GradingError):
        FilteredZ2Complex(gens2, [("p", "q")])  # degree drops by 2


def test_equal_action_allowed_for_boundary_not_for_phi():
    gens = [Generator("p", 1, 1.0), Generator("q", 0, 1.0)]
    FilteredZ2Complex(gens, [("p", "q")])  # same-component Morse arrow
    with pytest.raises(FiltrationError):
        ChainMapMatrix(gens, [("p", "q")])  # must strictly lower the action


def test_phi_identity_and_apply():
    gens = [Generator("p", 1, 3.0), Generator("q", 1, 2.0)]
    ident = ChainMapMatrix(gens, [])
    assert phi_apply(ident, {"p"}) == {"p"}
    inv = phi_invert(ident)
    assert inv.off_diag == set()


def test_phi_nilpotent_square_inverse():
    # M = I + N with N^2 = 0: over Z2 the inverse is I + N again
    gens = [Generator("p", 1, 3.0), Generator("q", 1, 2.0), Generator("r", 1, 1.0)]
    m = ChainMapMatrix(gens, [("p", "r")])
    inv = phi_invert(m)
    assert inv.off_diag == {("p", "r")}


def test_phi_invert_random_and_involution():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(4, 33))
        m = random_triangular(rng, n, density=0.4)
        inv = phi_invert(m)
        _, p = phi_matrix(m)
        _, q = phi_matrix(inv)
        eye = np.eye(n, dtype=np.uint8)
        assert np.array_equal(gf2_matmul(p, q), eye)
        assert np.array_equal(gf2_matmul(q, p), eye)
        assert phi_invert(inv).off_diag == m.off_diag


def test_missing_diagonal_rejected():
    text = ("gen p degree 1 action 3\ngen q degree 1 action 2\n"
            "phi p p\nphi p q\nphi q q\n")
    _, m = load_instance(io.StringIO(text))
    assert m.off_diag == {("p", "q")}
    with pytest.raises(NotInvertibleError, match=r"zero diagonal at \['q'\]"):
        load_instance(io.StringIO(text.replace("phi q q\n", "")))


def test_random_complexes_square_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(30):
        c = random_filtered_complex(rng, n_gens=int(rng.integers(4, 17)))
        ok, witness = verify_d_squared(c)
        assert ok, witness


def test_boundary_respects_grading_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = random_filtered_complex(rng, n_gens=12)
        degs = {g.id: g.degree for g in c.generators}
        acts = {g.id: g.action for g in c.generators}
        for src, dst in c.pairs:
            assert degs[dst] == degs[src] - 1
            assert acts[dst] <= acts[src] + 1e-12


def test_verify_chain_map_conjugation_and_corruption():
    rng = np.random.default_rng(3)
    c0 = random_filtered_complex(rng, n_gens=12)
    gens = [Generator(g.id, None, g.action) for g in c0.generators]
    c_src = FilteredZ2Complex(gens, list(c0.pairs))
    m = ChainMapMatrix(gens, [
        (a.id, b.id) for a in gens for b in gens
        if a.action > b.action + 1e-9 and rng.random() < 0.3
    ])
    order, p = phi_matrix(m)
    _, d = boundary_matrix(c_src)
    _, q = phi_matrix(phi_invert(m))
    d_conj = gf2_matmul(gf2_matmul(p, d), q)
    pairs = [(order[s], order[t]) for t, s in np.argwhere(d_conj == 1)]
    c_tgt = FilteredZ2Complex(gens, pairs)
    ok, witness = verify_chain_map(m, c_src, c_tgt)
    assert ok and witness is None
    # corrupt one boundary entry: the composites differ with a witness
    if pairs:
        broken = FilteredZ2Complex(gens, pairs[1:])
        ok, witness = verify_chain_map(m, c_src, broken)
        assert not ok and witness is not None


def test_identity_chain_map_commutes_with_itself():
    c = _hand_instance()
    gens = c.generators
    ident = ChainMapMatrix(gens, [])
    ok, _ = verify_chain_map(ident, c, c)
    assert ok


def test_gf2_rank_small_cases():
    assert gf2_rank(np.eye(4, dtype=np.uint8)) == 4
    assert gf2_rank(np.zeros((3, 3), dtype=np.uint8)) == 0
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)  # rows sum to 0
    assert gf2_rank(m) == 2


def test_instance_file_roundtrip_and_canonical_sort():
    c = _hand_instance()
    m = ChainMapMatrix(c.generators, [("a", "d"), ("b", "d")])
    text = save_instance(None, c, m)
    c2, m2 = load_instance(io.StringIO(text))
    assert c2.pairs == c.pairs
    assert m2.off_diag == m.off_diag
    # canonical: writing again yields identical bytes
    assert save_instance(None, c2, m2) == text


def test_instance_file_rejects_garbage():
    with pytest.raises(ValueError):
        load_instance(io.StringIO("gen a degree x action 1\n"))
    with pytest.raises(ValueError):
        load_instance(io.StringIO("boundary a b\n"))


def test_homology_ungraded_bucket():
    gens = [Generator("a", None, 2.0), Generator("b", None, 1.0),
            Generator("c", None, 0.5)]
    c = FilteredZ2Complex(gens, [("a", "b")])
    ranks = homology(c)
    assert ranks[None] == 1  # ker/im: 3 - 2*rank(1)


def test_homology_rejects_nonzero_square_with_witness():
    gens = _hand_instance().generators
    bad = FilteredZ2Complex(gens, [("a", "b"), ("a", "c"), ("b", "d")])
    with pytest.raises(ValueError, match=r"witness \('a', 'd'\)"):
        homology(bad)


def _degree_blocks(c):
    """Degrees of the canonical order and the block d_k : C_k -> C_{k-1}."""
    degs = [g.degree for g in sorted(c.generators, key=lambda g: (-g.action, g.id))]

    def block(to_deg, from_deg):
        rows = [i for i, k in enumerate(degs) if k == to_deg]
        cols = [i for i, k in enumerate(degs) if k == from_deg]
        return c.matrix[np.ix_(rows, cols)]
    return degs, block


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_gens=st.integers(0, 40),
       planted=st.lists(st.sampled_from((None, 0, 1, 2, 3, 4)), max_size=6),
       ungraded=st.booleans())
def test_homology_counts_planted_isolated_generators(seed, n_gens, planted, ungraded):
    # the paired part of random_filtered_complex is acyclic, so the Betti
    # numbers count the isolated generators planted beside it
    base = random_filtered_complex(np.random.default_rng(seed), n_gens)
    rng = np.random.default_rng(seed + 1)
    gens = [Generator(g.id, None if ungraded else g.degree, g.action) for g in base.generators]
    gens += [Generator(f"z{i}", None if ungraded else k, float(rng.uniform(0.5, 3.5)))
             for i, k in enumerate(planted)]
    c = FilteredZ2Complex(gens, list(base.pairs))
    betti = homology(c)
    degs, block = _degree_blocks(c)
    keys = {None if ungraded else k for k in degs}
    planted = [None if ungraded else k for k in planted]
    assert betti == {k: planted.count(k) for k in keys}
    for k in betti:
        if k is None:
            assert betti[k] == degs.count(None) - 2 * ref_gf2_rank(block(None, None))
        else:
            assert betti[k] == (degs.count(k) - ref_gf2_rank(block(k - 1, k))
                                - ref_gf2_rank(block(k, k + 1)))


def test_homology_ranks_each_degree_block_once(monkeypatch):
    import rfhlab.z2complex as z2

    shapes = []

    def spy(m):
        shapes.append(np.shape(m))
        return gf2_rank(m)

    monkeypatch.setattr(z2, "gf2_rank", spy)
    # degrees 0-3 with 2, 3, 4 and 5 generators: the blocks d_1, d_2, d_3
    # have distinct shapes, and d_0, d_4 are empty
    gens = [Generator(f"g{k}_{i}", k, float(k + 1)) for k in range(4) for i in range(k + 2)]
    assert homology(FilteredZ2Complex(gens, [])) == {0: 2, 1: 3, 2: 4, 3: 5}
    assert len(shapes) <= 5 and len(set(shapes)) == len(shapes)
    shapes.clear()
    assert homology(_hand_instance()) == {0: 0, 1: 1, 2: 0}
    assert sorted(shapes) == [(1, 3), (3, 1)]


# -- array kernels against the reference oracles ------------------------------------


def _tied_chain_map(rng, n, density):
    """Actions on few levels, so that many generators tie; tied pairs carry
    no entry in the map or in its inverse."""
    gens = [Generator(f"t{i}", None, float(rng.integers(0, max(2, n // 4)))) for i in range(n)]
    pairs = [(a.id, b.id) for a in gens for b in gens
             if a.action > b.action and rng.random() < density]
    return ChainMapMatrix(gens, pairs)


@pytest.mark.parametrize("n", SIZES)
def test_phi_invert_matches_recursion(n):
    rng = np.random.default_rng(1000 + n)
    for m in (random_triangular(rng, n, density=0.3), _tied_chain_map(rng, n, 0.2)):
        assert phi_invert(m).off_diag == ref_phi_invert(m)


@pytest.mark.parametrize("n", SIZES)
def test_tri_inverse_matches_neumann_series(n):
    rng = np.random.default_rng(2000 + n)
    # sparse enough at n=256 that the reference series stays short
    nil = np.tril(rng.random((n, n)) < min(0.3, 8 / n), -1).astype(np.uint8)
    inv = _tri_inverse(nil)
    assert inv.dtype == np.uint8
    assert np.array_equal(inv, ref_neumann_inverse(nil ^ np.eye(n, dtype=np.uint8)))


def _check_tri_inverse(nil):
    """_tri_inverse(nil) X satisfies (I + N) X = I for N the strictly lower
    triangle of nil; the diagonal and above hold noise it must not read."""
    n = len(nil)
    eye = np.eye(n, dtype=np.uint8)
    inv = _tri_inverse(nil)
    assert inv.dtype == np.uint8
    assert np.array_equal(ref_gf2_matmul(np.tril(nil, -1) | eye, inv), eye)


@pytest.mark.parametrize("n", [0, 31, 32, 33, 127, 128, 129, 511, 512, 513])
def test_tri_inverse_at_block_edges(n):
    _check_tri_inverse(np.random.default_rng(6000 + n).integers(0, 2, (n, n), dtype=np.uint8))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 200), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_tri_inverse_solves_the_triangular_system(n, density, seed):
    _check_tri_inverse((np.random.default_rng(seed).random((n, n)) < density).astype(np.uint8))


@pytest.mark.parametrize("inner", [255, 256, 257, 4097])
def test_gf2_matmul_of_ones_past_a_byte(inner):
    got = gf2_matmul(np.ones((3, inner), dtype=np.uint8), np.ones((inner, 5), dtype=np.uint8))
    assert got.dtype == np.uint8
    assert np.array_equal(got, np.full((3, 5), inner % 2, dtype=np.uint8))


@pytest.mark.parametrize("n", SIZES)
def test_gf2_matmul_matches_integer_product(n):
    rng = np.random.default_rng(3000 + n)
    a = rng.integers(0, 2, (n, n + 3), dtype=np.uint8)
    b = rng.integers(0, 2, (n + 3, 7), dtype=np.uint8)
    got = gf2_matmul(a, b)
    assert got.dtype == np.uint8
    assert np.array_equal(got, ref_gf2_matmul(a, b))
    sq = rng.integers(0, 2, (n, n), dtype=np.uint8)
    assert np.array_equal(gf2_matmul(sq, sq), ref_gf2_matmul(sq, sq))


@pytest.mark.parametrize("n", SIZES)
def test_gf2_rank_matches_elimination(n):
    rng = np.random.default_rng(4000 + n)
    for shape in ((n, n), (n, n + 37), (n + 37, n), (n, 1), (1, n)):
        for density in (0.05, 0.5):
            a = (rng.random(shape) < density).astype(np.uint8)
            assert gf2_rank(a) == ref_gf2_rank(a)
    k = max(1, n // 3)
    low_rank = ref_gf2_matmul(rng.integers(0, 2, (n, k), dtype=np.uint8),
                              rng.integers(0, 2, (k, n + 11), dtype=np.uint8))
    assert gf2_rank(low_rank) == ref_gf2_rank(low_rank)


@pytest.mark.parametrize("n", SIZES)
def test_random_triangular_draws_match_loop(n):
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    m = random_triangular(rng, n, density=0.35)
    gens, pairs = ref_random_triangular(ref_rng, n, density=0.35)
    assert m.generators == gens
    assert m.off_diag == pairs
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", SIZES)
def test_random_filtered_complex_draws_match_loop(n):
    rng, ref_rng = np.random.default_rng(5000 + n), np.random.default_rng(5000 + n)
    c = random_filtered_complex(rng, n)
    gens, pairs = ref_random_filtered_complex(ref_rng, n)
    assert c.generators == gens
    assert c.pairs == pairs
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _assert_adopted_as_checked(out):
    # a constructor that adopts its matrix as built must leave what the
    # checked adoption of the same generators and matrix gives
    checked = type(out).from_matrix(out.generators, out.matrix)
    assert out.order == checked.order
    assert out.matrix.tobytes() == checked.matrix.tobytes() and out.matrix.shape == checked.matrix.shape
    assert not out.matrix.flags.writeable
    ranked = sorted(out.generators, key=lambda g: (-g.action, g.id))
    type(out)._check(ranked, out.matrix)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 150), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_constructors_adopt_what_the_checked_path_gives(n, density, seed):
    rng = np.random.default_rng(seed)
    m = random_triangular(rng, n, density=density)
    tied = _tied_chain_map(rng, n, density)  # maps with tied actions
    for out in (m, phi_invert(m), tied, phi_invert(tied), random_filtered_complex(rng, n)):
        _assert_adopted_as_checked(out)
    # the lists are the adopter's own: changing the source's leaves them
    inv = phi_invert(m)
    assert inv.generators is not m.generators and inv.order is not m.order


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 130), cols=st.integers(1, 130),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_planted_rank_and_transpose(rows, cols, seed, data):
    r = data.draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(seed)
    # unit triangular factors are invertible, so L[:, :r] and U[:r, :] have rank r
    low = np.tril(rng.integers(0, 2, (rows, rows), dtype=np.uint8), -1) | np.eye(rows, dtype=np.uint8)
    up = np.triu(rng.integers(0, 2, (cols, cols), dtype=np.uint8), 1) | np.eye(cols, dtype=np.uint8)
    planted = ref_gf2_matmul(low[:, :r], up[:r, :])
    planted = planted[rng.permutation(rows)][:, rng.permutation(cols)]
    assert gf2_rank(planted) == r
    a = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    assert gf2_rank(a) == gf2_rank(a.T)


def _low_rank(rng, rows, cols, r):
    return ref_gf2_matmul(rng.integers(0, 2, (rows, r), dtype=np.uint8),
                          rng.integers(0, 2, (r, cols), dtype=np.uint8))


@pytest.mark.parametrize("rows", [40, 100, 200])
@pytest.mark.parametrize("cols", [127, 128, 129])
def test_gf2_rank_at_panel_edges(rows, cols):
    rng = np.random.default_rng(7000 + 3 * rows + cols)
    dense = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    # a zero 64-column panel between nonzero ones
    gap = dense.copy()
    gap[:, 64:128] = 0
    # a first panel of rank 20, then full columns
    short = dense.copy()
    short[:, :64] = _low_rank(rng, rows, 64, 20)
    # an all-zero trailing block after the first panel
    head = dense.copy()
    head[:, 64:] = 0
    low = _low_rank(rng, rows, cols, 30)
    for a in (dense, gap, short, head, low):
        assert gf2_rank(a) == ref_gf2_rank(a)
        assert gf2_rank(a.T) == ref_gf2_rank(a)


def test_phi_invert_n1024_smoke():
    n = 1024
    m = random_triangular(np.random.default_rng(1024), n)
    inv = phi_invert(m)
    _, p = phi_matrix(m)
    _, q = phi_matrix(inv)
    assert np.array_equal(gf2_matmul(p, q), np.eye(n, dtype=np.uint8))
    assert phi_invert(inv).off_diag == m.off_diag


# -- array rules against the per-pair loops ----------------------------------------

# tied actions, and a pair 1e-13 apart that the 1e-12 tolerance calls tied
ACTIONS = (0.5, 1.0, 1.0 + 1e-13, 2.0)


@st.composite
def generators_and_pairs(draw):
    n = draw(st.integers(1, 7))
    gens = [Generator(f"g{i}", draw(st.sampled_from((None, 0, 1, 2))),
                      draw(st.sampled_from(ACTIONS))) for i in range(n)]
    ids = st.sampled_from([g.id for g in gens] + ["unknown"])
    # duplicates and diagonal pairs come up by themselves
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=12))
    return gens, pairs


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _in_check_order(gens, pairs):
    """The order in which the array rules report: unknown ids first, in
    their given order, then the pairs row-major in M[to, from]."""
    rank = {g: i for i, g in enumerate(canonical_ids(gens))}
    return sorted(pairs, key=lambda p: (1, rank[p[1]], rank[p[0]])
                  if p[0] in rank and p[1] in rank else (0,))


@settings(max_examples=400, deadline=None)
@given(case=generators_and_pairs())
def test_array_rules_match_per_pair_rules(case):
    gens, pairs = case
    ordered = _in_check_order(gens, pairs)
    got = _outcome(lambda: FilteredZ2Complex(gens, pairs).pairs)
    assert got == _outcome(ref_boundary_pairs, gens, ordered)
    got = _outcome(lambda: ChainMapMatrix(gens, pairs).off_diag)
    assert got == _outcome(ref_chain_off_diag, gens, ordered)
    if not isinstance(got, tuple):
        # the matrix constructor applies the same rules to the same matrix
        m = ChainMapMatrix(gens, pairs)
        assert ChainMapMatrix.from_matrix(gens, m.matrix).off_diag == got


def test_rules_reject_bad_input():
    gens = [Generator("p", 1, 3.0), Generator("q", 1, 2.0)]
    with pytest.raises(ValueError, match="unique"):
        ChainMapMatrix(gens + gens[:1], [])
    with pytest.raises(NotInvertibleError, match=r"zero diagonal at \['p', 'q'\]"):
        ChainMapMatrix.from_matrix(gens, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="0/1 matrix of shape"):
        FilteredZ2Complex.from_matrix(gens, np.eye(3, dtype=np.uint8))
    with pytest.raises(ValueError, match="unknown generators"):
        boundary_apply(FilteredZ2Complex(gens, []), {"x"})
    c = FilteredZ2Complex(gens, [])
    with pytest.raises(ValueError):
        c.matrix[0, 1] = 1  # the stored matrix is read-only
