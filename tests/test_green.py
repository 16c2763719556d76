import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycibl.algebra import CyclicStructure, check_cyclic_dga
from cycibl.green import (GreenReport, KernelTensor, LinearOperator, _dual_sign,
                          _expand, adjoint, check_g_properties,
                          gdg_rewriting_holds, green_build, green_gdg,
                          green_pipeline, green_project, green_symmetrize,
                          harmonic_projection, harmonic_splitting,
                          identity_operator, m1_operator, pairing_degree,
                          schwartz_kernel)
from cycibl.linalg import SparseMatrix, add_scaled
from cycibl.models import build_cpn, build_sn, random_cyclic_dga
from helpers import (apply, oracle_dual_basis, oracle_kernel, oracle_solve, pair,
                     sparse_from_entries)


# -- test-side routes: an operator from its kernel, the kernel of a composite

def operator_from_kernel(s, K):
    """Inverse of :func:`schwartz_kernel`: recover L from P(L w1, w2) = P(K, w1 w2)."""
    # P(K, e_r ⊗ e_c) determines P(L e_r, e_c) for all r, c; expand L e_r in
    # the basis through the dual basis.
    n = len(s.basis)
    deg = s.basis.degrees
    ldeg = K.degree - pairing_degree(s)
    dual = oracle_dual_basis(s)
    cols = [dict() for _ in range(n)]
    for r in range(n):
        # P(L e_r, e_c) = sum_{ij} K^{ij} (-1)^(|e_j| |e_r|) P(e_i,e_r) P(e_j,e_c)
        img = {}
        for c in range(n):
            val = Fraction(0)
            for (i, j), v in K.entries.items():
                pir = s.pairing[i][r]
                if not pir:
                    continue
                pjc = s.pairing[j][c]
                if not pjc:
                    continue
                sgn = -1 if (deg[j] % 2) and (deg[r] % 2) else 1
                val += sgn * v * pir * pjc
            if val:
                img[c] = val
        # expand through the left duals, P(e^c, e_c') = _dual_sign(c) delta
        cols[r] = _expand({c: _dual_sign(s, c) * val for c, val in img.items()},
                          dual, 0)
    return LinearOperator(s.basis, ldeg, cols)


def kernel_of_composition(s, K1, K2):
    """Kernel of L1 ∘ L2 by contracting K2 ⊗ K1 along the middle pairing:

        K^{il} = sum_{jk} (-1)^e A^{ij} P(e_j, e_k) B^{kl},
        e = 1 + (m + |L1|) |L2| + m + m |e_i|,

    where A is the kernel of L2 and B that of L1.
    """
    m = s.manifold_dim
    deg = s.basis.degrees
    degL2 = K2.degree - pairing_degree(s)
    degL1 = K1.degree - pairing_degree(s)
    A, B = K2.entries, K1.entries
    out = {}
    for (i, j), a in A.items():
        for (k, l), b in B.items():
            p = s.pairing[j][k]
            if not p:
                continue
            e = (1 + (m + degL1) * degL2 + m + m * deg[i]) % 2
            term = a * p * b
            key = (i, l)
            new = out.get(key, Fraction(0)) + (-term if e else term)
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return KernelTensor(s.basis, K1.degree + K2.degree - pairing_degree(s), out)


def extended_pairing(s: CyclicStructure, w1: list[tuple[tuple[int, ...], Fraction]],
                     w2: list[tuple[tuple[int, ...], Fraction]]) -> Fraction:
    """The Koszul-extended pairing on k-fold tensor powers.

    Inputs are sparse tensors given as (letter tuple, coefficient) lists;
    the sign interleaves the two factor strings:

        P(x1..xk, y1..yk) = eps * P(x1,y1) ... P(xk,yk),
        eps = prod over i of (-1)^(|y_i| (|x_{i+1}| + ... + |x_k|)).
    """
    deg = s.basis.degrees
    total = Fraction(0)
    for xs, cx in w1:
        for ys, cy in w2:
            if len(xs) != len(ys):
                continue
            k = len(xs)
            term = cx * cy
            for i in range(k):
                term *= s.pairing[xs[i]][ys[i]]
                if not term:
                    break
            if not term:
                continue
            e = 0
            for i in range(k):
                tail = sum(deg[x] for x in xs[i + 1:])
                e += deg[ys[i]] * tail
            total += -term if e % 2 else term
    return total


def test_extended_pairing_base_cases():
    s = build_sn(3).structure
    one = Fraction(1)
    # k = 1 reduces to the base pairing
    assert extended_pairing(s, [((0,), one)], [((1,), one)]) == s.pairing[0][1]
    # k = 2: Gram matrix of the squared basis has full rank 4
    from cycibl.linalg import rank
    pairs = [(i, j) for i in range(2) for j in range(2)]
    entries = {}
    for r, (a, b) in enumerate(pairs):
        for c, (x, y) in enumerate(pairs):
            v = extended_pairing(s, [((a, b), one)], [((x, y), one)])
            if v:
                entries[(r, c)] = v
    assert rank(sparse_from_entries(4, 4, entries)) == 4


def test_identity_kernel_is_contraction_tensor_up_to_sign():
    # T = (-1)^(m-2) * kernel of the identity
    from cycibl.dibl import t_tensor
    for bundle in (build_sn(2), build_sn(3), build_cpn(2)):
        s = bundle.structure
        k_id = schwartz_kernel(s, identity_operator(s.basis))
        sgn = Fraction(-1) ** (s.manifold_dim - 2)
        scaled = {key: sgn * v for key, v in k_id.entries.items()}
        assert scaled == t_tensor(s)
        assert k_id.degree == s.manifold_dim - 2


def test_kernel_round_trip():
    for seed in range(4):
        s = random_cyclic_dga(8, seed=seed)
        for op in (m1_operator(s), identity_operator(s.basis)):
            K = schwartz_kernel(s, op)
            back = operator_from_kernel(s, K)
            assert back == op, (seed, op.degree)


def test_zero_operator_kernel():
    s = build_sn(3).structure
    z = LinearOperator(s.basis, -1)
    assert not schwartz_kernel(s, z).entries


def _adjointness_cases(s):
    """Named operators on s: the pipeline stages, m1, the identity, the
    harmonic projection, the degree-0 composite G1 m1 and the degree -1
    composite G1 B, with B the identity plus one diagonal unit on a column
    that G1 does not kill."""
    g, proj, stages = green_pipeline(s)
    m1 = m1_operator(s)
    one = identity_operator(s.basis)
    cases = [(f"G{i}", op) for i, op in enumerate(stages)]
    cases += [("m1", m1), ("id", one), ("proj", proj),
              ("G1 m1", stages[1].compose(m1))]
    live = [j for j, col in enumerate(stages[1].columns) if col]
    if live:
        bump = one.add(LinearOperator(s.basis, 0, [
            {j: Fraction(1)} if j == live[0] else {} for j in range(len(s.basis))]))
        cases.append(("G1 B", stages[1].compose(bump)))
    return proj, cases


def test_kernel_symmetry_iff_adjointness():
    # self-adjointness in the (G3) sense == twist symmetry of the kernel
    # == the (G3) entry of check_g_properties, in every degree
    models = [random_cyclic_dga(6, seed=seed) for seed in (0, 1, 2, 9)]
    models += [random_cyclic_dga(8, seed=seed) for seed in range(3)]
    models += [build_sn(3).structure, build_cpn(2).structure,
               build_cpn(3).structure]
    seen = set()
    for s in models:
        proj, cases = _adjointness_cases(s)
        for name, op in cases:
            selfadj = adjoint(s, op) == op
            assert selfadj == schwartz_kernel(s, op).is_symmetric_propagator(), \
                (s.name, name)
            rep = check_g_properties(s, op, proj)
            assert rep.results["G3"] == selfadj, (s.name, name)
            assert ("G3" in rep.witnesses) == (not selfadj), (s.name, name)
            if name in ("G1", "G2", "G3"):
                assert selfadj, (s.name, name)  # symmetrized stages
            seen.add((op.degree == -1, selfadj))
    # both outcomes occur, among degree -1 operators and among the others
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_g3_witness_is_an_entry_where_g_and_its_adjoint_differ():
    s = random_cyclic_dga(6, seed=9)
    proj, cases = _adjointness_cases(s)
    op = dict(cases)["G1 B"]
    (i, j), c = check_g_properties(s, op, proj).witnesses["G3"]
    assert c == op.columns[j].get(i, 0) - adjoint(s, op).columns[j].get(i, 0) != 0


def test_operators_of_other_degrees_fail_g2_by_degree():
    # (G2) needs degree -1: operators of degree 1, 0 and -2 fail it with a
    # witness naming their degree, and (G3)-(G5) are still decided
    seen = set()
    for s in (random_cyclic_dga(6, seed=0), random_cyclic_dga(8, seed=2),
              build_cpn(2).structure):
        g, proj, _ = green_pipeline(s)
        m1 = m1_operator(s)
        for op in (m1, identity_operator(s.basis), proj, m1.compose(g).compose(m1),
                   g.compose(g)):
            rep = check_g_properties(s, op, proj)
            assert not rep.results["G2"] and not rep.passed, (s.name, op.degree)
            assert rep.witnesses["G2"] == ("degree", op.degree)
            assert rep.results["G3"] == (adjoint(s, op) == op)
            assert rep.results["G4"] == (op.compose(proj).is_zero()
                                         and proj.compose(op).is_zero())
            assert rep.results["G5"] == op.compose(op).is_zero()
            assert "G2: FAIL" in rep.summary()
            seen.add((op.degree, rep.results["G3"], rep.results["G5"]))
    assert {d for d, _, _ in seen} == {1, 0, -2}
    assert {g3 for _, g3, _ in seen} == {g5 for _, _, g5 in seen} == {True, False}


def test_kernel_of_composition_matches_operator_route():
    for seed in (0, 3, 5):
        s = random_cyclic_dga(8, seed=seed)
        split = harmonic_splitting(s)
        g = green_symmetrize(s, green_build(s, split))
        m1 = m1_operator(s)
        for a, b in ((m1, g), (g, m1), (g, g), (m1, m1)):
            k = kernel_of_composition(s, schwartz_kernel(s, a),
                                      schwartz_kernel(s, b))
            direct = schwartz_kernel(s, a.compose(b))
            assert k.entries == direct.entries, seed
            assert k.degree == direct.degree


def test_kernel_of_composition_with_identity():
    s = random_cyclic_dga(8, seed=1)
    m1 = m1_operator(s)
    k_m1 = schwartz_kernel(s, m1)
    k_id = schwartz_kernel(s, identity_operator(s.basis))
    assert kernel_of_composition(s, k_m1, k_id).entries == k_m1.entries
    assert kernel_of_composition(s, k_id, k_m1).entries == k_m1.entries


def test_harmonic_projection_properties():
    for seed in range(4):
        s = random_cyclic_dga(10, seed=seed)
        split = harmonic_splitting(s)
        proj = harmonic_projection(split)
        assert proj.compose(proj) == proj
        m1 = m1_operator(s)
        assert proj.compose(m1).is_zero()
        assert m1.compose(proj).is_zero()
        # pairing self-adjointness of the projection
        n = len(s.basis)
        for x in range(n):
            for y in range(n):
                a = pair(s, apply(proj, {x: Fraction(1)}), {y: Fraction(1)})
                b = pair(s, {x: Fraction(1)}, apply(proj, {y: Fraction(1)}))
                assert a == b


def test_harmonic_projection_identity_when_no_differential():
    s = build_sn(3).structure
    split = harmonic_splitting(s)
    assert harmonic_projection(split) == identity_operator(s.basis)
    assert green_build(s, split).is_zero()


def test_green_build_two_line_complex():
    s = random_cyclic_dga(6, seed=1)
    split = harmonic_splitting(s)
    g = green_build(s, split)
    proj = harmonic_projection(split)
    rep = check_g_properties(s, g, proj)
    assert rep.results["G2"], rep.summary()
    m1 = m1_operator(s)
    # G = -(m1|_C)^{-1} on the image part: m1 G m1 = -m1
    assert m1.compose(g).compose(m1) == m1.scaled(-1)


def test_pipeline_properties_many_seeds():
    for seed in range(12):
        s = random_cyclic_dga(8, seed=seed)
        g, proj, stages = green_pipeline(s)
        rep = check_g_properties(s, g, proj)
        assert rep.passed, (seed, rep.summary())
        # every intermediate satisfies (G2) and the gdg identities exactly
        for stage in stages:
            srep = check_g_properties(s, stage, proj)
            assert srep.results["G2"], (seed, srep.summary())
            assert gdg_rewriting_holds(s, stage), seed
            corr = green_gdg(stage, m1_operator(s))
            assert corr.compose(corr).is_zero()


def test_pipeline_idempotent():
    s = random_cyclic_dga(8, seed=7)
    g, proj, _ = green_pipeline(s)
    g2 = green_gdg(green_project(s, green_symmetrize(s, g), proj),
                   m1_operator(s))
    assert g2 == g


def test_two_adjacent_degrees_square_zero_for_free():
    # any degree -1 operator between two adjacent degrees squares to zero
    s = random_cyclic_dga(6, seed=1)
    degs = set(s.basis.degrees)
    g, proj, stages = green_pipeline(s)
    g0 = stages[0]
    if len(degs) <= 2:
        assert g0.compose(g0).is_zero()


def test_symmetrize_keeps_g2_project_adds_g4():
    for seed in (2, 4, 6):
        s = random_cyclic_dga(10, seed=seed)
        split = harmonic_splitting(s)
        proj = harmonic_projection(split)
        g1 = green_symmetrize(s, green_build(s, split))
        rep1 = check_g_properties(s, g1, proj)
        assert rep1.results["G2"] and rep1.results["G3"]
        g2 = green_project(s, g1, proj)
        rep2 = check_g_properties(s, g2, proj)
        assert rep2.results["G2"] and rep2.results["G3"] and rep2.results["G4"]
        assert proj.compose(g2).is_zero() and g2.compose(proj).is_zero()


def test_adjoint_involution():
    s = random_cyclic_dga(8, seed=3)
    g = green_build(s, harmonic_splitting(s))
    assert adjoint(s, adjoint(s, g)) == g


def test_malformed_columns_are_rejected():
    s = random_cyclic_dga(6, seed=0)
    n = len(s.basis)
    with pytest.raises(ValueError, match="5 columns for a basis of 6"):
        LinearOperator(s.basis, 0, [{} for _ in range(n - 1)])
    # row -6 has the degree of row 0, so only the range check catches it
    for row in (-n, n):
        with pytest.raises(ValueError, match=f"row {row} of column 0 is outside"):
            LinearOperator(s.basis, 0, [{row: 1}] + [{} for _ in range(n - 1)])
    with pytest.raises(ValueError, match="degree homogeneity"):
        LinearOperator(s.basis, 0, [{1: 1}] + [{} for _ in range(n - 1)])


# -- the Fraction operator route, the oracle of the int one: Fraction
# columns, every entry re-wrapped by every operation, and the pipeline on
# them with the pairing contracted entry by entry

class FractionOperator:
    def __init__(self, basis, degree, columns):
        self.basis = basis
        self.degree = degree
        self.columns = [{i: Fraction(c) for i, c in col.items() if c}
                        for col in columns]
        for j, col in enumerate(self.columns):
            for i in col:
                assert basis.degrees[i] == basis.degrees[j] + degree

    def apply(self, vec):
        out = {}
        for j, c in vec.items():
            add_scaled(out, self.columns[j], c)
        return out

    def compose(self, other):
        return FractionOperator(self.basis, self.degree + other.degree,
                                [self.apply(col) for col in other.columns])

    def add(self, other, scale=1):
        assert other.degree == self.degree
        cols = [dict(col) for col in self.columns]
        for col, other_col in zip(cols, other.columns):
            add_scaled(col, other_col, scale)
        return FractionOperator(self.basis, self.degree, cols)

    def scaled(self, scale):
        return FractionOperator(self.basis, self.degree,
                                [{i: Fraction(scale) * c for i, c in col.items()}
                                 for col in self.columns])

    def is_zero(self):
        return not any(self.columns)

    def entries(self):
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                yield (i, j), c


def frac_identity(s):
    return FractionOperator(s.basis, 0, [{j: 1} for j in range(len(s.basis))])


def frac_m1(s):
    return FractionOperator(s.basis, 1, s.m1_matrix())


def frac_adjoint(s, L):
    n = len(s.basis)
    pdeg = pairing_degree(s)
    cols = [dict() for _ in range(n)]
    for i, dual in enumerate(oracle_dual_basis(s)):
        img = L.apply(dual)
        sgn = _dual_sign(s, i) * (-1 if (pdeg - s.basis.degrees[i]) % 2 else 1)
        for j in range(n):
            if c := pair(s, img, {j: Fraction(1)}):
                cols[j][i] = sgn * c
    return FractionOperator(s.basis, L.degree, cols)


def frac_kernel(s, L):
    dual = oracle_dual_basis(s)
    pdeg = pairing_degree(s)
    entries = {}
    for i in range(len(s.basis)):
        img = L.apply(dual[i])
        for j in range(len(s.basis)):
            if val := pair(s, img, dual[j]):
                e = (L.degree + 1) * (pdeg + s.basis.degrees[i])
                entries[(i, j)] = -val if e % 2 else val
    return KernelTensor(s.basis, pdeg + L.degree, entries)


def frac_orth_complement_inside(universe, subspace):
    if not subspace:
        return [dict(v) for v in universe]
    rows = [{c: dot for c, u in enumerate(universe)
             if (dot := sum(w.get(i, 0) * u.get(i, 0) for i in set(w) | set(u)))}
            for w in subspace]
    mat = SparseMatrix(len(subspace), len(universe), rows)
    return [_expand(combo, universe, 0) for combo in oracle_kernel(mat)]


def frac_pipeline(s):
    """build -> symmetrize -> project -> gdg on Fraction operators, with the
    splitting vectors as the reduced-echelon ``Fraction`` vectors."""
    n = len(s.basis)
    deg = s.basis.degrees
    m1 = s.m1_matrix()
    by_deg = {}
    for i, d in enumerate(deg):
        by_deg.setdefault(d, []).append(i)
    harmonic, image_by_deg = [], {}
    for d, idx in sorted(by_deg.items()):
        kb = oracle_kernel(SparseMatrix.from_columns(n, [m1[i] for i in idx]))
        free = {max(vec) for vec in kb}
        image_by_deg[d + 1] = [m1[i] for c, i in enumerate(idx) if c not in free]
        harmonic.extend(frac_orth_complement_inside(
            [{idx[c]: v for c, v in vec.items()} for vec in kb],
            image_by_deg.get(d, [])))
    if harmonic:
        rows = [{j: v for j in range(n) if (v := pair(s, h, {j: Fraction(1)}))}
                for h in harmonic]
        perp = oracle_kernel(SparseMatrix(len(harmonic), n, rows))
    else:
        perp = [{j: Fraction(1)} for j in range(n)]
    complement = []
    for d in sorted(by_deg):
        uni = [v for v in perp if {deg[i] for i in v} == {d}]
        complement.extend(frac_orth_complement_inside(uni, image_by_deg.get(d, [])))
    mop = frac_m1(s)
    image = [mop.apply(c) for c in complement]
    coordinates = oracle_solve(harmonic + image + complement,
                               [{j: Fraction(1)} for j in range(n)])
    proj = FractionOperator(s.basis, 0, [_expand(c, harmonic, 0)
                                         for c in coordinates])
    g0 = FractionOperator(s.basis, -1, [_expand(c, complement, len(harmonic))
                                        for c in coordinates]).scaled(-1)
    g1 = g0.add(frac_adjoint(s, g0)).scaled(Fraction(1, 2))
    q = frac_identity(s).add(proj, scale=-1)
    g2 = q.compose(g1).compose(q)
    g3 = g2.compose(mop).compose(g2).scaled(-1)
    return g3, proj, [g0, g1, g2, g3]


def frac_check(s, G, proj):
    """(results, witnesses) of (G2)-(G5) on the Fraction route."""
    m1 = frac_m1(s)
    diffs = {"G2": m1.compose(G).add(G.compose(m1)).add(
                 proj.add(frac_identity(s), scale=-1), scale=-1),
             "G3": G.add(frac_adjoint(s, G), scale=-1),
             "G5": G.compose(G)}
    gp, pg = G.compose(proj), proj.compose(G)
    diffs["G4"] = gp if not gp.is_zero() else pg
    results = {name: d.is_zero() for name, d in diffs.items()}
    witnesses = {name: next(d.entries()) for name, d in diffs.items()
                 if not d.is_zero()}
    return results, witnesses


def frac_gdg_holds(s, G):
    m1 = frac_m1(s)
    left = G.compose(m1).compose(G).scaled(-1)
    right = G.add(m1.compose(G).compose(G).compose(G).compose(m1), scale=-1)
    return left.add(right, scale=-1).is_zero()


def assert_matches(op, oracle):
    """Same degree and entries, primitive form with a positive denominator."""
    assert op.degree == oracle.degree
    assert op.columns == oracle.columns
    assert list(op.entries()) == list(oracle.entries())
    assert op.is_zero() == oracle.is_zero()
    assert op.den > 0
    assert math.gcd(op.den, *(c for col in op.cols for c in col.values())) == 1
    assert all(type(c) is int for col in op.cols for c in col.values())


OPERATOR_MODELS = [build_sn(3).structure, build_cpn(2).structure,
                   random_cyclic_dga(6, seed=1), random_cyclic_dga(10, seed=2)]
SCALARS = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def operator_cases(draw):
    """A model, a degree of its graded endomorphisms and two column lists of
    that degree with small non-integral entries, so that sums often cancel."""
    s = draw(st.sampled_from(OPERATOR_MODELS))
    degs = s.basis.degrees
    n = len(degs)
    d = draw(st.sampled_from(sorted({a - b for a in degs for b in degs})))

    def columns():
        return [{i: draw(SCALARS) for i in range(n)
                 if degs[i] == degs[j] + d and draw(st.booleans())}
                for j in range(n)]
    return s, d, columns(), columns()


@settings(max_examples=150, deadline=None)
@given(operator_cases(), SCALARS.filter(bool), st.integers(1, 12))
def test_int_operators_match_the_fraction_route(case, scale, k):
    s, d, cols_a, cols_b = case
    a, b = (LinearOperator(s.basis, d, cols) for cols in (cols_a, cols_b))
    fa, fb = (FractionOperator(s.basis, d, cols) for cols in (cols_a, cols_b))
    assert_matches(a, fa)
    for op, oracle in ((a.compose(b), fa.compose(fb)),
                       (a.add(b, scale=scale), fa.add(fb, scale=scale)),
                       (a.add(b), fa.add(fb)),
                       (a.add(a.scaled(scale), scale=-1 / scale),
                        fa.add(fa.scaled(scale), scale=-1 / scale)),
                       (a.scaled(scale), fa.scaled(scale)),
                       (a.scaled(0), fa.scaled(0)),
                       (adjoint(s, a), frac_adjoint(s, fa))):
        assert_matches(op, oracle)
        # the same operator from the oracle's Fraction columns, and from
        # those columns scaled by k and scaled back, is the same object
        assert op == LinearOperator(s.basis, op.degree, oracle.columns)
        assert op == LinearOperator(s.basis, op.degree, [
            {i: k * c for i, c in col.items()} for col in oracle.columns]
            ).scaled(Fraction(1, k))
    assert a.add(a.scaled(scale), scale=-1 / scale).is_zero()
    for vec in cols_b:
        assert apply(a, vec) == fa.apply(vec)
    assert schwartz_kernel(s, a).entries == frac_kernel(s, fa).entries


def m1_scaled(s, c):
    """s with mu_1 scaled by c: every relation is homogeneous in mu_1, so this
    is again a cyclic dg algebra, and c = 2/3 gives an m1 with a denominator."""
    mu1 = {ins: {o: c * v for o, v in out.items()} for ins, out in s.mu[1].items()}
    return s.replace(mu={**s.mu, 1: mu1})


PIPELINE_MODELS = [("S3", build_sn(3).structure), ("CP2", build_cpn(2).structure)]
PIPELINE_MODELS += [(f"r{k}-{seed}", random_cyclic_dga(k, seed=seed))
                    for k in (6, 10) for seed in range(8)]
PIPELINE_MODELS += [(f"r{k}-{seed} m1*2/3",
                     m1_scaled(random_cyclic_dga(k, seed=seed), Fraction(2, 3)))
                    for k, seed in ((6, 3), (10, 5))]


@pytest.mark.parametrize("name, s", PIPELINE_MODELS,
                         ids=[name for name, _ in PIPELINE_MODELS])
def test_pipeline_matches_the_fraction_route(name, s):
    assert check_cyclic_dga(s).passed
    g, proj, stages = green_pipeline(s)
    fg, fproj, fstages = frac_pipeline(s)
    assert_matches(g, fg)
    assert_matches(proj, fproj)
    for stage, fstage in zip(stages, fstages, strict=True):
        assert_matches(stage, fstage)
        rep = check_g_properties(s, stage, proj)
        assert (rep.results, rep.witnesses) == frac_check(s, fstage, fproj)
        assert gdg_rewriting_holds(s, stage) == frac_gdg_holds(s, fstage)
    k, fk = schwartz_kernel(s, g), frac_kernel(s, fg)
    assert (k.degree, k.entries) == (fk.degree, fk.entries)
    assert list(k.entries) == list(fk.entries)
