from fractions import Fraction

import pytest

from cycibl.algebra import CyclicStructure
from cycibl.green import (GreenReport, KernelTensor, LinearOperator, _dual_sign,
                          _expand, adjoint, check_g_properties,
                          gdg_rewriting_holds, green_build, green_gdg,
                          green_pipeline, green_project, green_symmetrize,
                          harmonic_projection, harmonic_splitting,
                          identity_operator, m1_operator, pairing_degree,
                          schwartz_kernel)
from cycibl.models import build_cpn, build_sn, random_cyclic_dga
from helpers import sparse_from_entries


# -- test-side routes: an operator from its kernel, the kernel of a composite

def operator_from_kernel(s, K):
    """Inverse of :func:`schwartz_kernel`: recover L from P(L w1, w2) = P(K, w1 w2)."""
    # P(K, e_r ⊗ e_c) determines P(L e_r, e_c) for all r, c; expand L e_r in
    # the basis through the dual basis.
    n = len(s.basis)
    deg = s.basis.degrees
    ldeg = K.degree - pairing_degree(s)
    dual = s.dual_basis()
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
    # self-adjointness in the (G3) sense == twist symmetry of the kernel,
    # and for degree -1 operators == the (G3) entry of check_g_properties
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
            if op.degree == -1:
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
                a = s.pair(proj.apply({x: Fraction(1)}), {y: Fraction(1)})
                b = s.pair({x: Fraction(1)}, proj.apply({y: Fraction(1)}))
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
            assert green_gdg(s, stage).compose(green_gdg(s, stage)).is_zero()


def test_pipeline_idempotent():
    s = random_cyclic_dga(8, seed=7)
    g, proj, _ = green_pipeline(s)
    g2 = green_gdg(s, green_project(s, green_symmetrize(s, g), proj))
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
