import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycibl.algebra import CyclicStructure, hochschild_b_cyclic, integral_multiple
from cycibl.dibl import canonical_mc, mu_from_mc, twisted_q110
from cycibl import linalg
from cycibl.homology import chain_homology, cochain_homology
from cycibl.linalg import (Eliminator, SparseMatrix, SquareZeroError,
                           det_sign, graded_homology, kernel_basis, rank, rref,
                           solve)
from cycibl.models import (build_cpn, build_sn, random_cyclic_dga,
                           truncated_polynomial)
from cycibl.signs import GradedBasis
from cycibl.words import canonical_words
from helpers import sparse_from_entries


def matvec(mat: SparseMatrix, vec: dict) -> dict:
    out: dict[int, Fraction] = {}
    for r, row in enumerate(mat.rows):
        s = Fraction(0)
        for c, v in row.items():
            s += v * vec.get(c, Fraction(0))
        if s:
            out[r] = s
    return out


def transpose(mat: SparseMatrix) -> SparseMatrix:
    out = SparseMatrix(mat.ncols, mat.nrows)
    for r, row in enumerate(mat.rows):
        for c, v in row.items():
            out.rows[c][r] = v
    return out


def image_basis(mat: SparseMatrix) -> list[dict]:
    """Echelon basis of the column space (vectors over row indices)."""
    rows, _ = rref(transpose(mat))
    return rows


def test_linalg_basics():
    zero = SparseMatrix(3, 4)
    assert rank(zero) == 0
    assert len(kernel_basis(zero)) == 4
    eye = sparse_from_entries(3, 3, {(i, i): 1 for i in range(3)})
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
        mat = sparse_from_entries(6, 6, entries)
        kb = kernel_basis(mat)
        assert rank(mat) + len(kb) == 6
        for vec in kb:
            assert not matvec(mat, vec)
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
        inside = matvec(mat, {c: Fraction(rng.randint(-2, 2)) for c in range(ncols)})
        other = {r: Fraction(rng.randint(-3, 3)) for r in range(nrows)}
        other = {r: v for r, v in other.items() if v}
        sol_in, sol_other = solve(cols, [inside, other])
        assert matvec(mat, sol_in) == inside
        outside = rank(SparseMatrix.from_columns(nrows, cols + [other])) > rank(mat)
        assert (sol_other is None) == outside
        if not outside:
            assert matvec(mat, sol_other) == other
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


# -- elimination oracles: the rescanning rref and the min-led reduce --------

def oracle_rref(mat):
    """Reduced row echelon form that rescans every remaining row for the
    least lead column at each pivot."""
    rows = [dict(r) for r in mat.rows if r]
    pivots, out = [], []
    while rows:
        lead = min(min(r) for r in rows)
        pivot = min([r for r in rows if lead in r], key=len)
        rows.remove(pivot)
        inv = 1 / pivot[lead]
        pivot = {c: v * inv for c, v in pivot.items()}
        for r in out + rows:
            if lead in r:
                f = r[lead]
                for c, v in pivot.items():
                    new = r.get(c, Fraction(0)) - f * v
                    if new:
                        r[c] = new
                    else:
                        r.pop(c, None)
        rows = [r for r in rows if r]
        out.append(pivot)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [out[i] for i in order], [pivots[i] for i in order]


def oracle_kernel(mat, echelon=oracle_rref):
    rows, pivots = echelon(mat)
    basis = []
    for f in range(mat.ncols):
        if f not in pivots:
            vec = {f: Fraction(1)}
            for row, p in zip(rows, pivots):
                if f in row:
                    vec[p] = -row[f]
            basis.append(vec)
    return basis


def oracle_solve(columns, rhs_list, echelon=oracle_rref):
    n = len(columns)
    cols = list(columns) + list(rhs_list)
    nrows = 1 + max((r for col in cols for r in col), default=-1)
    rows, pivots = echelon(SparseMatrix.from_columns(nrows, cols))
    out = []
    for j in range(n, len(cols)):
        sol = {p: row[j] for row, p in zip(rows, pivots) if j in row}
        out.append(None if any(p >= n for p in sol) else sol)
    return out


class OracleEliminator:
    """Incremental echelon form whose reduce takes the least column of the
    vector at every step."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        vec = {c: Fraction(v) for c, v in vec.items() if v}
        while vec:
            lead = min(vec)
            if lead not in self.rows:
                return vec
            f = vec[lead]
            for c, v in self.rows[lead].items():
                new = vec.get(c, Fraction(0)) - f * v
                if new:
                    vec[c] = new
                else:
                    vec.pop(c, None)
        return vec

    def add(self, vec):
        red = self.reduce(vec)
        if not red:
            return False
        lead = min(red)
        self.rows[lead] = {c: v / red[lead] for c, v in red.items()}
        return True


def _random_matrix(rng, shape):
    """Seeded sparse rational matrix of the given kind; rows are dicts
    whose keys are inserted in random order."""
    nrows, ncols = {"tall": (11, 5), "wide": (5, 11), "square": (8, 8),
                    "zero rows": (9, 7), "duplicates": (9, 7),
                    "fill-in": (9, 9)}[shape]
    density = 0.6 if shape == "fill-in" else 0.3
    rows = []
    for _ in range(nrows):
        cols = [c for c in range(ncols) if rng.random() < density]
        rng.shuffle(cols)
        rows.append({c: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                 rng.randint(1, 4)) for c in cols})
    if shape == "zero rows":
        for r in rng.sample(range(nrows), 3):
            rows[r] = {}
    if shape == "duplicates":
        for r in rng.sample(range(1, nrows), 3):
            rows[r] = dict(rows[rng.randrange(r)])
    if shape == "fill-in":
        # an arrow: a dense first row and column fill every later row
        rows[0] = {c: Fraction(rng.randint(1, 3)) for c in range(ncols)}
        for r in range(1, nrows):
            rows[r][0] = Fraction(rng.randint(1, 3))
    return SparseMatrix(nrows, ncols, rows)


SHAPES = ("tall", "wide", "square", "zero rows", "duplicates", "fill-in")


def _ordered(vecs):
    return [list(v.items()) for v in vecs]


def test_elimination_matches_rescanning_oracles():
    rng = random.Random(8)
    seen = set()
    for trial in range(48):
        shape = SHAPES[trial % len(SHAPES)]
        mat = _random_matrix(rng, shape)
        want_rows, want_pivots = oracle_rref(mat)
        got_rows, got_pivots = rref(mat)
        assert got_pivots == want_pivots, (trial, shape)
        assert _ordered(got_rows) == _ordered(want_rows), (trial, shape)
        assert _ordered(kernel_basis(mat)) == _ordered(oracle_kernel(mat))
        seen.add((shape, len(want_pivots) < min(mat.nrows, mat.ncols)))

        cols = [dict(col) for col in transpose(mat).rows]
        inside = matvec(mat, {c: Fraction(rng.randint(-2, 2))
                             for c in range(mat.ncols)})
        other = {r: Fraction(rng.randint(1, 3)) for r in range(mat.nrows)
                 if rng.random() < 0.5}
        assert solve(cols, [inside, other]) == oracle_solve(cols, [inside, other])
        if mat.nrows == mat.ncols:
            det = _dense_det(cols, mat.nrows)
            assert det_sign(cols) == (det > 0) - (det < 0), (trial, shape)
            seen.add(("singular", det == 0))

        elim, oracle = Eliminator(), OracleEliminator()
        for vec in mat.rows + cols:
            assert list(elim.reduce(vec).items()) == \
                list(oracle.reduce(vec).items())
            assert elim.add(vec) == oracle.add(vec)
            assert len(elim.rows) == len(oracle.rows)
        assert elim.rows == oracle.rows
    # every shape appears; rank deficiency and singular squares occur
    assert {shape for shape, _ in seen} == set(SHAPES) | {"singular"}
    assert ("singular", True) in seen and ("singular", False) in seen
    assert any(deficient for shape, deficient in seen if shape != "singular")


def test_elimination_never_yields_floats():
    # int matrices with some Fraction entries: leads of ±1, ±2 and ±3/2 all
    # occur, and no route divides one int by another
    rng = random.Random(3)
    leads = set()
    for trial in range(40):
        nrows, ncols = rng.randint(3, 7), rng.randint(3, 7)
        rows = [{c: rng.choice((1, -1, 2, -2, 3, Fraction(3, 2), Fraction(-3, 2)))
                 for c in range(ncols) if rng.random() < 0.5} for _ in range(nrows)]
        mat = SparseMatrix(nrows, ncols, rows)
        cols = [dict(col) for col in transpose(mat).rows]
        echelon, _ = rref(mat)
        public = echelon + kernel_basis(mat) + image_basis(mat)
        public += [sol for sol in solve(cols, [rows[0], {0: 1}]) if sol is not None]
        assert all(type(v) is Fraction for vec in public for v in vec.values())
        if nrows == ncols:
            assert type(det_sign(cols)) is int
        elim = Eliminator()
        for vec in rows + cols:
            red = elim.reduce(vec)
            if red:
                leads.add(red[min(red)])
            assert all(type(v) in (int, Fraction) for v in red.values())
            elim.add(vec)
        assert all(type(v) in (int, Fraction)
                   for row in elim.rows.values() for v in row.values())
    assert {2, -2, Fraction(3, 2), Fraction(-3, 2)} <= leads


# -- the fraction-free eliminator against a dense rational oracle ----------

def dense_rref(mat):
    """Gauss-Jordan over ``Fraction``s on the dense matrix: pivot rows
    scaled to lead 1 and cleared from every other row; returns (rows as
    dicts in column order, pivot columns)."""
    a = [[Fraction(row.get(c, 0)) for c in range(mat.ncols)] for row in mat.rows]
    pivots, top = [], 0
    for c in range(mat.ncols):
        r = next((r for r in range(top, len(a)) if a[r][c]), None)
        if r is None:
            continue
        a[top], a[r] = a[r], a[top]
        a[top] = [x / a[top][c] for x in a[top]]
        for i in range(len(a)):
            if i != top and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        pivots.append(c)
        top += 1
    rows = [{c: x for c, x in enumerate(row) if x} for row in a[:top]]
    return rows, pivots


@st.composite
def int_matrices(draw, with_fractions=False):
    """Sparse matrices of entries -9..9, keys inserted in a drawn order; a
    drawn row may be a combination of two earlier ones (rank deficiency)
    and, ``with_fractions``, some entries are ``Fraction``s."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = []
    for r in range(nrows):
        order = draw(st.permutations(range(ncols)))
        if r >= 2 and draw(st.booleans()):
            x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            vals = {c: x * rows[0].get(c, 0) + y * rows[1].get(c, 0) for c in order}
        else:
            vals = {c: draw(entry) for c in order}
        rows.append({c: v for c, v in vals.items() if v})
    if with_fractions:
        for row in rows:
            for c in row:
                if draw(st.integers(0, 3)) == 0:
                    row[c] = Fraction(row[c], draw(st.integers(2, 4)))
    return SparseMatrix(nrows, ncols, rows)


def _as_fractions(mat):
    return SparseMatrix(mat.nrows, mat.ncols,
                        [{c: Fraction(v) for c, v in row.items()} for row in mat.rows])


def _positive_multiple(got, want):
    if not want:
        return not got
    ratio = Fraction(got.get(min(want), 0)) / want[min(want)]
    return ratio > 0 and list(got) == list(want) and all(
        got[c] == ratio * v for c, v in want.items())


@settings(max_examples=300, deadline=None)
@given(st.one_of(int_matrices(), int_matrices(with_fractions=True)),
       st.data())
def test_fraction_free_elimination_matches_dense_oracle(mat, data):
    ints = all(type(v) is int for row in mat.rows for v in row.values())
    want_rows, want_pivots = dense_rref(mat)
    got_rows, got_pivots = rref(mat)
    assert got_pivots == want_pivots and got_rows == want_rows
    # key order is that of the rational route (the rescanning oracle)
    assert _ordered(got_rows) == _ordered(oracle_rref(_as_fractions(mat))[0])
    assert all(type(v) is Fraction for row in got_rows for v in row.values())
    assert _ordered(kernel_basis(mat)) == _ordered(oracle_kernel(mat, dense_rref))
    assert rank(mat) == len(want_pivots)

    cols = [dict(col) for col in transpose(mat).rows]
    inside = matvec(mat, {c: Fraction(data.draw(st.integers(-2, 2)))
                          for c in range(mat.ncols)})
    other = {r: data.draw(st.integers(-5, 5)) for r in range(mat.nrows)}
    rhs = [inside, {r: v for r, v in other.items() if v}]
    got = solve(cols, rhs)
    assert [None if sol is None else list(sol.items()) for sol in got] == \
        [None if sol is None else list(sol.items())
         for sol in oracle_solve(cols, rhs, dense_rref)]
    if mat.nrows == mat.ncols:
        det = _dense_det(_as_fractions(transpose(mat)).rows, mat.nrows)
        assert det_sign(cols) == (det > 0) - (det < 0)

    elim, oracle = Eliminator(), OracleEliminator()
    for vec in mat.rows + cols:
        assert _positive_multiple(elim.reduce(vec), oracle.reduce(vec))
        assert elim.add(vec) == oracle.add(vec)
    assert elim.rows.keys() == oracle.rows.keys()
    for lead, row in elim.rows.items():
        assert _positive_multiple(row, oracle.rows[lead])
        if ints:
            assert all(type(v) is int for v in row.values())
            assert row[lead] > 0 and math.gcd(*row.values()) == 1


def test_int_elimination_makes_no_fraction(monkeypatch):
    # leads 3 and 2 would bring in Fraction(1, 3) on a rational route; the
    # fraction-free one keeps ints until rows leave the module
    mat = SparseMatrix(3, 4, [{0: 3, 1: 1, 3: 2}, {0: 6, 1: 5, 2: 1},
                              {1: 2, 2: 4, 3: 7}])
    want_rows, want_pivots = dense_rref(mat)

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built inside the elimination")

    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    rows, pivots = linalg._echelon(mat)
    kernel = linalg._kernel(mat)
    elim = Eliminator()
    assert all(elim.add(row) for row in mat.rows)
    assert det_sign([{0: 3, 1: 6}, {0: 1, 1: 5}]) == 1
    assert rank(mat) == 3
    assert elim.rows[0][0] == 3 and all(row[p] > 1 for row, p in zip(rows, pivots))
    assert all(type(v) is int for vec in rows + kernel + list(elim.rows.values())
               for v in vec.values())
    monkeypatch.undo()
    assert pivots == want_pivots
    assert rref(mat) == (want_rows, want_pivots)
    assert kernel_basis(mat) == oracle_kernel(mat, dense_rref)


def _dense_det(cols, n):
    """Determinant by dense Gaussian elimination with row swaps."""
    a = [[cols[c].get(r, Fraction(0)) for c in range(n)] for r in range(n)]
    det = Fraction(1)
    for i in range(n):
        p = next((r for r in range(i, n) if a[r][i]), None)
        if p is None:
            return Fraction(0)
        if p != i:
            a[i], a[p] = a[p], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


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
        return [(w, u) for w in range(1, 4) for u in canonical_words(basis, w)
                if basis.word_degree(u) == d]

    rep = graded_homology(basis_fn, lambda key: {}, [2, 3, 4], 3)
    for d in (2, 3, 4):
        for w in range(1, 4):
            expected = sum(1 for u in canonical_words(basis, w)
                           if basis.word_degree(u) == d)
            assert rep.dim(d, w) == expected or expected == 0


def test_square_zero_guard():
    basis = GradedBasis(("a", "b"), (1, 2))

    def basis_fn(d):
        return [(1, u) for u in canonical_words(basis, 1)
                if basis.word_degree(u) == d]

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
    # primal and dual computations agree dimensionwise per bidegree, on the
    # full and on the reduced (unit-free) complexes
    for s, reduced in itertools.product(
            (build_sn(3).structure, build_sn(2).structure,
             build_cpn(2).structure), (False, True)):
        primal = chain_homology(s, weight_bound=6, reduced=reduced)
        dual = cochain_homology(s, None, weight_bound=6, reduced=reduced)
        for (d, w), n in primal.stable_classes().items():
            assert dual.dim(d, w) == n, (s.name, d, w)
        for (d, w), n in dual.stable_classes().items():
            assert primal.dim(d, w) == n, (s.name, d, w)


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


def _fraction_table_homology(s, pmc, weight_bound, chain):
    """The homology route of ``cochain_homology`` / ``chain_homology`` on the
    unscaled ``Fraction`` structure constants: no integral multiple."""
    amb = s
    if pmc is not None:
        e10 = pmc.entry(1, 0)
        amb = mu_from_mc(s, e10, max(2, max(e10.weights(), default=2) - 1))
    top = weight_bound if chain else weight_bound + 2
    words = [(w, u) for w in range(1, top + 1) for u in canonical_words(s.basis, w)]
    by_degree = {}
    for w, u in words:
        if w <= weight_bound:
            by_degree.setdefault(s.basis.word_degree(u), []).append((w, u))
    table = {}
    for _, v in words:
        for u, c in hochschild_b_cyclic(amb, v).items():
            assert type(c) is Fraction
            if chain:
                table.setdefault(v, {})[(len(u), u)] = c
            else:
                table.setdefault(u, {})[(len(v), v)] = c
    return graded_homology(lambda d: list(by_degree.get(d, [])),
                           lambda key: table.get(key[1], {}),
                           sorted(by_degree), weight_bound,
                           weight_step=-1 if chain else 1,
                           degree_step=1 if chain else -1)


def test_integral_tables_match_fraction_tables():
    # S^3 and CP^2 have integral structure constants; the random 10-letter
    # algebra has entries ±3/2, so its tables are scaled by D = 2
    r10 = random_cyclic_dga(10, seed=0)
    assert integral_multiple(build_sn(3).structure)[0] == 1
    D, scaled = integral_multiple(r10)
    assert D == 2 and scaled.mu == {
        k: {t: {o: 2 * c for o, c in img.items()} for t, img in table.items()}
        for k, table in r10.mu.items()}
    assert all(type(c) is int for table in scaled.mu.values()
               for img in table.values() for c in img.values())
    cases = [(build_sn(3).structure, True, 6), (build_cpn(2).structure, True, 5),
             (r10, False, 3)]
    for s, twist, bound in cases:
        pmc = canonical_mc(s) if twist else None
        reports = {"cochain": cochain_homology(s, pmc, bound),
                   "chain": chain_homology(s, bound)}
        for side, rep in reports.items():
            want = _fraction_table_homology(s, pmc, bound, side == "chain")
            assert rep.dims == want.dims and rep.stable == want.stable, (s.name, side)
            # repr pins values, key order and the Fraction type of every entry
            assert repr(rep.reps) == repr(want.reps), (s.name, side)
            assert all(type(c) is Fraction for vecs in rep.reps.values()
                       for vec in vecs for c in vec.values())
            assert any(rep.reps.values())


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: untwisted cochain homology of random_cyclic_dga(6, "
    "seed=0) disagrees with chain homology on stable entries, and its "
    "stable (4, 2) entry changes from W = 3 to W = 4"))
def test_random_chain_and_cochain_stable_entries_agree():
    s = random_cyclic_dga(6, seed=0)
    first: dict = {}
    wrong = []
    for bound in (3, 4, 5):
        reports = {"chain": chain_homology(s, bound),
                   "cochain": cochain_homology(s, None, bound)}
        stable = {key for rep in reports.values()
                  for key, ok in rep.stable.items() if ok}
        for key in sorted(stable):
            dims = {side: rep.dim(*key) for side, rep in reports.items()}
            if dims["chain"] != dims["cochain"]:
                wrong.append((bound, key, dims))
            for side, n in dims.items():
                if first.setdefault((side, key), n) != n:
                    wrong.append((bound, key, side, first[(side, key)], n))
    assert not wrong, wrong
