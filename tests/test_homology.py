import itertools
import random
from fractions import Fraction

import pytest

from cycibl.algebra import CyclicStructure
from cycibl.dibl import canonical_mc, twisted_q110
from cycibl.homology import chain_homology, cochain_homology, degree_window
from cycibl.linalg import (Eliminator, SparseMatrix, SquareZeroError,
                           det_sign, graded_homology, image_basis,
                           kernel_basis, rank, solve)
from cycibl.models import build_cpn, build_sn, truncated_polynomial
from cycibl.signs import GradedBasis
from cycibl.words import canonical_words


def test_linalg_basics():
    zero = SparseMatrix(3, 4)
    assert rank(zero) == 0
    assert len(kernel_basis(zero)) == 4
    eye = SparseMatrix.from_entries(3, 3, {(i, i): 1 for i in range(3)})
    assert rank(eye) == 3
    assert kernel_basis(eye) == []


def test_linalg_rank_nullity_random():
    rng = random.Random(6)
    for _ in range(10):
        entries = {}
        for r in range(6):
            for c in range(6):
                if rng.random() < 0.4:
                    entries[(r, c)] = Fraction(rng.randint(-3, 3))
        mat = SparseMatrix.from_entries(6, 6, entries)
        kb = kernel_basis(mat)
        assert rank(mat) + len(kb) == 6
        for vec in kb:
            assert not mat.matvec(vec)
        img = image_basis(mat)
        assert len(img) == rank(mat)
    # solve and det_sign on square and rectangular matrices, singular ones
    # included; the determinant reference is the Leibniz expansion
    seen = set()
    for nrows, ncols in [(5, 5), (6, 6), (4, 6), (6, 4)] * 8:
        cols = [{r: Fraction(rng.randint(-3, 3)) for r in range(nrows)
                 if rng.random() < 0.5} for _ in range(ncols)]
        if rng.random() < 0.3:
            cols[-1] = {r: cols[0].get(r, 0) - 2 * cols[1].get(r, 0)
                        for r in range(nrows)}
        cols = [{r: v for r, v in col.items() if v} for col in cols]
        mat = SparseMatrix.from_columns(nrows, cols)
        inside = mat.matvec({c: Fraction(rng.randint(-2, 2)) for c in range(ncols)})
        other = {r: Fraction(rng.randint(-3, 3)) for r in range(nrows)}
        other = {r: v for r, v in other.items() if v}
        sol_in, sol_other = solve(cols, [inside, other])
        assert mat.matvec(sol_in) == inside
        outside = rank(SparseMatrix.from_columns(nrows, cols + [other])) > rank(mat)
        assert (sol_other is None) == outside
        if not outside:
            assert mat.matvec(sol_other) == other
        seen.add(("outside", outside))
        if nrows == ncols:
            det = _leibniz_det(cols, nrows)
            assert det_sign(cols) == (det > 0) - (det < 0)
            seen.add(("singular", det == 0))
    assert seen == {("outside", True), ("outside", False),
                    ("singular", True), ("singular", False)}


def _leibniz_det(cols, n):
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(1)
        for c, r in enumerate(perm):
            term *= cols[c].get(r, 0)
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += -term if inversions % 2 else term
    return total


def _random_two_term(rng, size, weight_step):
    """A random complex C0 -> C1 whose differential moves weight by 0 or
    ``weight_step``: (degrees, weights, differential columns)."""
    degs = [rng.randint(0, 1) for _ in range(size)]
    wts = [rng.randint(0, 2) for _ in range(size)]
    diff = []
    for i in range(size):
        col = {}
        if degs[i] == 0:
            for j in range(size):
                if degs[j] == 1 and wts[j] - wts[i] in (0, weight_step) \
                        and rng.random() < 0.8:
                    col[j] = Fraction(rng.randint(-2, 2))
        diff.append({j: c for j, c in col.items() if c})
    return degs, wts, diff


def _per_level_dims(basis_fn, diff_fn, d, weight_step, degree_step):
    """dim gr_w H at degree d from ranks of submatrices, level by level."""
    src, prev = basis_fn(d), basis_fn(d - degree_step)
    coords: dict = {}

    def col(vec):
        return {coords.setdefault(k, len(coords)): c for k, c in vec.items()}

    src_cols = {k: col(diff_fn(k)) for k in src}
    img = [col(diff_fn(k)) for k in prev]
    unit = {k: col({k: 1}) for k in src}

    def rk(cols):
        return rank(SparseMatrix.from_columns(len(coords), cols))

    levels = sorted({k[0] for k in src}, key=lambda w: -weight_step * w)
    out, k_next, i_next = {}, 0, 0
    for w in levels:
        filt = [k for k in src if weight_step * (k[0] - w) >= 0]
        k_w = len(filt) - rk([src_cols[k] for k in filt])
        i_w = rk(img) + len(filt) - rk(img + [unit[k] for k in filt])
        out[w] = (k_w - k_next) - (i_w - i_next)
        k_next, i_next = k_w, i_w
    return out


def test_graded_homology_matches_per_level_ranks():
    # tensor products of two random two-term complexes: d^2 = 0, weight
    # moves by 0 or weight_step, and the dual-side truncation has phantom
    # targets; every graded dimension must match the per-level rank formula
    phantoms = 0
    for seed in range(8):
        for weight_step in (1, -1):
            rng = random.Random(seed)
            du, wu, dif_u = _random_two_term(rng, 6, weight_step)
            dv, wv, dif_v = _random_two_term(rng, 6, weight_step)

            def key(i, j):
                return (wu[i] + wv[j] + 1, (i, j))

            bound = rng.randint(2, 4)
            keys = [key(i, j) for i in range(6) for j in range(6)]

            def basis_fn(d):
                return [k for k in keys
                        if du[k[1][0]] + dv[k[1][1]] == d and k[0] <= bound]

            def diff_fn(k):
                i, j = k[1]
                out = {key(i2, j): c for i2, c in dif_u[i].items()}
                sgn = -1 if du[i] % 2 else 1
                for j2, c in dif_v[j].items():
                    out[key(i, j2)] = out.get(key(i, j2), 0) + sgn * c
                return out

            phantoms += sum(t[0] > bound for d in (0, 1) for k in basis_fn(d)
                            for t in diff_fn(k))
            rep = graded_homology(basis_fn, diff_fn, [0, 1, 2], bound,
                                  weight_step=weight_step, degree_step=1)
            for d in (0, 1, 2):
                want = _per_level_dims(basis_fn, diff_fn, d, weight_step, 1)
                got = {w: n for (dd, w), n in rep.dims.items() if dd == d}
                assert got == want, (seed, weight_step, d)
            for (d, w), vecs in rep.reps.items():
                for vec in vecs:
                    acc: dict = {}
                    for k, c in vec.items():
                        for t, c2 in diff_fn(k).items():
                            acc[t] = acc.get(t, 0) + c * c2
                    assert not any(acc.values()), (seed, weight_step, d, w)
    assert phantoms


def test_zero_differential_homology_is_chains():
    basis = GradedBasis(("a", "b"), (1, 2))

    def basis_fn(d):
        return [(w, u) for w in range(1, 4)
                for u in canonical_words(basis, w, d)]

    rep = graded_homology(basis_fn, lambda key: {}, [2, 3, 4], 3)
    for d in (2, 3, 4):
        for w in range(1, 4):
            expected = len(list(canonical_words(basis, w, d)))
            assert rep.dim(d, w) == expected or expected == 0


def test_square_zero_guard():
    basis = GradedBasis(("a", "b"), (1, 2))

    def basis_fn(d):
        return [(1, u) for u in canonical_words(basis, 1, d)]

    def bad_diff(key):
        w, u = key
        # a "differential" that does not square to zero
        if u == (0,):
            return {(1, (1,)): Fraction(1)}
        return {(1, (0,)): Fraction(1)}

    with pytest.raises(SquareZeroError):
        graded_homology(basis_fn, bad_diff, [1, 2, 3], 1)


def test_even_sphere_reduced_twisted_homology():
    bundle = build_sn(2)
    s = bundle.structure
    mc = canonical_mc(s)
    rep = cochain_homology(s, mc, weight_bound=9, reduced=True)
    stable = rep.stable_classes()
    # exactly the duals of odd volume powers up to the stable range
    assert stable == {(w, w): 1 for w in (1, 3, 5, 7)} | {(8, 8): 0 for w in ()} \
        or stable == {(w, w): 1 for w in (1, 3, 5, 7)}
    reps = rep.reps[(1, 1)]
    assert len(reps) == 1


def test_odd_sphere_full_twisted_homology_splits():
    bundle = build_sn(3)
    s = bundle.structure
    mc = canonical_mc(s)
    rep = cochain_homology(s, mc, weight_bound=8)
    stable = rep.stable_classes()
    expected = {}
    for w in range(1, 8):
        expected[(2 * w, w)] = 1          # volume powers, degree 2w
    for w in (1, 3, 5, 7):
        expected[(-w, w)] = 1             # unit powers, degree -w
    assert stable == expected
    red = cochain_homology(s, mc, weight_bound=8, reduced=True)
    stable_red = red.stable_classes()
    assert stable_red == {(2 * w, w): 1 for w in range(1, 8)}


def test_unit_power_cohomology_of_scalars():
    # the one-letter unital model: classes exactly at odd unit powers
    one = Fraction(1)
    s = CyclicStructure(
        name="R", basis=GradedBasis(("1",), (-1,)), manifold_dim=0,
        pairing=None, mu={1: {}, 2: {(0, 0): {0: one}}}, unit=0,
        augmentation={0: one})
    rep = cochain_homology(s, None, weight_bound=9)
    stable = rep.stable_classes()
    assert stable == {(-w, w): 1 for w in (1, 3, 5, 7)}
    # q = w - 1 even: matches the unit-power table for q <= 8


def test_projective_plane_twisted_homology():
    bundle = build_cpn(2)
    s = bundle.structure
    mc = canonical_mc(s)
    rep = cochain_homology(s, mc, weight_bound=7)
    stable = rep.stable_classes()
    expected = {}
    for w in (1, 3, 5):
        for i in (1, 2):
            expected[(2 * i + (w - 1) * 2 - 1, w)] = \
                expected.get((2 * i + (w - 1) * 2 - 1, w), 0) + 1
        expected[(-w, w)] = 1
    assert stable == expected
    for key, reps in rep.reps.items():
        for vec in reps:
            # representatives are exactly closed
            from cycibl.words import dual_word
            acc = None
            for (w, u), c in vec.items():
                term = twisted_q110(s, mc, dual_word(
                    s.basis, u, slot_shift=s.slot_shift).scaled(c))
                acc = term if acc is None else acc + term
            assert acc.is_zero()


def test_truncated_polynomial_primal_cyclic_homology():
    # brute force over the bar complex of k[x]/(x^3), generator degree 2
    s = truncated_polynomial(2, 2)
    rep = chain_homology(s, weight_bound=7)
    stable = rep.stable_classes()
    expected = {}
    for w in (1, 3, 5):
        for i in (1, 2):
            d = 2 * i + (w - 1) * 2 - 1
            expected[(d, w)] = expected.get((d, w), 0) + 1
        expected[(-w, w)] = 1
    assert stable == expected


def test_uct_dimensions_match():
    # primal and dual computations agree dimensionwise per bidegree
    s = build_sn(3).structure
    primal = chain_homology(s, weight_bound=6)
    dual = cochain_homology(s, None, weight_bound=6)
    for (d, w), n in primal.stable_classes().items():
        assert dual.dim(d, w) == n, (d, w)
    for (d, w), n in dual.stable_classes().items():
        assert primal.dim(d, w) == n, (d, w)


def test_projective_line_matches_even_sphere_dimensions():
    a = build_cpn(1).structure
    b = build_sn(2).structure
    mca, mcb = canonical_mc(a), canonical_mc(b)
    ra = cochain_homology(a, mca, weight_bound=6)
    rb = cochain_homology(b, mcb, weight_bound=6)
    assert ra.stable_classes() == rb.stable_classes()


def test_reports_deterministic():
    s = build_sn(2).structure
    mc = canonical_mc(s)
    r1 = cochain_homology(s, mc, weight_bound=6, reduced=True)
    r2 = cochain_homology(s, mc, weight_bound=6, reduced=True)
    assert r1.dims == r2.dims
    assert r1.reps == r2.reps
