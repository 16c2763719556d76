import random
from fractions import Fraction

import pytest

from cycibl.dibl import (canonical_mc, collection_sign, distribution_sign,
                         q120, q210, t_tensor)
from cycibl.models import build_cpn, build_sn, random_cyclic_dga
from cycibl.ribbon import (Labeling, RibbonGraph, enumerate_graphs, f_klg,
                           f_klg_tensor, graph_pairing, orientation_compatible,
                           compatible_edge_labeling, pushforward_mc, sigma_L)
from cycibl.words import CochainTensor, canonical_words, dual_word


def two_vertex_graph(k1, k2):
    """Two vertices of valencies k1, k2 joined by one edge."""
    v1 = tuple(range(k1))
    v2 = tuple(range(k1, k1 + k2))
    return RibbonGraph([v1, v2], [(0, k1)])


def loop_graph(s1, s2):
    """One vertex with a loop; s1 legs inside the loop corner, s2 outside."""
    half = [0] + list(range(2, 2 + s1)) + [1] + list(range(2 + s1, 2 + s1 + s2))
    return RibbonGraph([tuple(half)], [(0, 1)])


def test_two_vertex_family_counts():
    for k1, k2 in [(1, 2), (2, 2), (2, 3), (3, 3), (1, 5)]:
        g = two_vertex_graph(k1, k2)
        k, l, gen = g.counts()
        assert (k, l, gen) == (2, 1, 0)
        assert len(g.legs) == k1 + k2 - 2
        assert g.automorphism_order() == (2 if k1 == k2 else 1)


def test_loop_family_counts():
    for s1, s2 in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 3)]:
        g = loop_graph(s1, s2)
        k, l, gen = g.counts()
        assert (k, l, gen) == (1, 2, 0)
        legs_per_boundary = sorted(len(b) for b in g.boundary_legs())
        assert legs_per_boundary == sorted((s1, s2))
        assert g.automorphism_order() == (2 if s1 == s2 else 1)


def test_genus_one_graph():
    g = RibbonGraph([(0, 1, 2, 3)], [(0, 2), (1, 3)])
    assert g.counts() == (1, 1, 1)


def test_single_trivalent_vertex():
    g = RibbonGraph([(0, 1, 2)], [])
    assert g.counts() == (1, 1, 0)
    assert len(g.boundary_legs()[0]) == 3
    assert g.automorphism_order() == 3


def test_enumerate_two_one_zero():
    # classes are the two-vertex family indexed by (k1 <= k2), no legless one
    for legs in (1, 2, 3, 4):
        found = enumerate_graphs(2, 1, 0, legs)
        expected = [(k1, legs + 2 - k1) for k1 in range(1, legs // 2 + 2)
                    if k1 <= legs + 2 - k1]
        assert len(found) == len(expected), legs
        auts = sorted(a for _, a in found)
        assert auts == sorted(2 if k1 == k2 else 1 for k1, k2 in expected)


def test_enumerate_one_two_zero():
    # the loop family indexed by 0 <= s1 <= s2, dropping at most one leg
    for legs in (2, 3, 4):
        found = enumerate_graphs(1, 2, 0, legs)
        expected = [(s1, legs - s1) for s1 in range(0, legs // 2 + 1)]
        assert len(found) == len(expected)
    # the excluded degenerate classes do not appear
    assert enumerate_graphs(2, 1, 0, 0) == []
    assert enumerate_graphs(1, 2, 0, 0) == []
    assert enumerate_graphs(1, 2, 0, 1) == []


def test_enumerate_graphs_rejects_negative_counts():
    # rejected before the cache is read or written
    from cycibl import ribbon
    before = len(ribbon._ENUM_CACHE)
    for args in ((-1, 3, 0, 3), (2, -1, 0, 3), (1, 1, -1, 3), (2, 1, 0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_graphs(*args)
    assert len(ribbon._ENUM_CACHE) == before


def test_enumerate_trivalent_tree():
    found = enumerate_graphs(1, 1, 0, 3, trivalent=True)
    assert len(found) == 1
    graph, aut = found[0]
    assert aut == 3
    found2 = enumerate_graphs(2, 1, 0, 4, trivalent=True)
    assert len(found2) == 1  # two trivalent vertices, one edge, 4 legs
    found3 = enumerate_graphs(3, 1, 0, 5, trivalent=True)
    assert len(found3) >= 1   # the trivalent path tree
    found4 = enumerate_graphs(4, 1, 0, 6, trivalent=True)
    # both the caterpillar and the star shapes occur
    assert len(found4) >= 2


def test_compatible_edge_orientation_two_vertex():
    # for vertex order (1, 2) the edge runs from the first to the second
    g = two_vertex_graph(2, 3)
    edges = compatible_edge_labeling(g, (0, 1), (0,))
    assert edges == ((0, 2),)
    edges_swapped = compatible_edge_labeling(g, (1, 0), (0,))
    assert edges_swapped == ((2, 0),)


def test_compatible_edge_orientation_loop():
    g = loop_graph(1, 2)
    e1 = compatible_edge_labeling(g, (0,), (0, 1))
    e2 = compatible_edge_labeling(g, (0,), (1, 0))
    assert e1 != e2  # swapping the boundaries flips the loop orientation


def test_labeling_independence_of_vertex_marks():
    # the summand value is independent of the vertex first-marks
    s = build_cpn(2).structure
    T = t_tensor(s)
    g = two_vertex_graph(2, 3)
    psi1 = dual_word(s.basis, (0, 1), slot_shift=s.slot_shift)
    psi2 = dual_word(s.basis, (1, 1, 2), slot_shift=s.slot_shift)
    words = [(1, 2, 0)]
    base = None
    for m1 in g.vertices[0]:
        for m2 in g.vertices[1]:
            lab = Labeling((0, 1), (0,), compatible_edge_labeling(g, (0, 1), (0,)),
                           (m1, m2), (0,))
            sigma = sigma_L(g, lab)
            total = Fraction(0)
            deg = s.basis.degrees
            from cycibl.signs import koszul_sign
            for (i, j), t in T.items():
                letters = [i, j] + list(words[0])
                degs = [deg[x] for x in letters]
                sign = koszul_sign(sigma, degs)
                routed = [0] * len(letters)
                for p, x in enumerate(letters):
                    routed[sigma[p]] = x
                total += t * sign * psi1.eval_word(tuple(routed[:2])) * \
                    psi2.eval_word(tuple(routed[2:]))
            if base is None:
                base = total
            assert total == base


def test_one_edge_maps_match_operations_sphere():
    # graph route with the contraction tensor == direct product/coproduct
    s = build_sn(3).structure
    T = t_tensor(s)
    rng = random.Random(4)
    words = [u for w in range(1, 5) for u in canonical_words(s.basis, w)]
    for _ in range(25):
        u1, u2 = rng.choice(words), rng.choice(words)
        psi1 = dual_word(s.basis, u1, slot_shift=s.slot_shift)
        psi2 = dual_word(s.basis, u2, slot_shift=s.slot_shift)
        direct = q210(s, psi1, psi2)
        for w in range(1, len(u1) + len(u2) - 1):
            for out in canonical_words(s.basis, w):
                got = f_klg(s, T, [psi1, psi2], 2, 1, 0, [out])
                assert got == direct.eval_word(out), (u1, u2, out)
    for _ in range(10):
        u = rng.choice([w for w in words if len(w) >= 4])
        psi = dual_word(s.basis, u, slot_shift=s.slot_shift)
        direct = q120(s, psi)
        for w1 in range(1, len(u) - 2):
            for out1 in canonical_words(s.basis, w1):
                for out2 in canonical_words(s.basis, len(u) - 2 - w1):
                    got = f_klg(s, T, [psi], 1, 2, 0, [out1, out2])
                    want = direct.eval_tuple((out1, out2))
                    assert got == want, (u, out1, out2)


def test_one_edge_maps_match_operations_projective():
    s = build_cpn(2).structure
    T = t_tensor(s)
    rng = random.Random(9)
    words = [u for w in range(1, 4) for u in canonical_words(s.basis, w)]
    for _ in range(12):
        u1, u2 = rng.choice(words), rng.choice(words)
        psi1 = dual_word(s.basis, u1, slot_shift=s.slot_shift)
        psi2 = dual_word(s.basis, u2, slot_shift=s.slot_shift)
        direct = q210(s, psi1, psi2)
        out_t = f_klg_tensor(s, T, [psi1, psi2], 2, 1, 0, 6)
        assert out_t.values == direct.values, (u1, u2)
    for _ in range(8):
        u = rng.choice([w for w in words if len(w) >= 3])
        psi = dual_word(s.basis, u, slot_shift=s.slot_shift)
        direct = q120(s, psi)
        out_t = f_klg_tensor(s, T, [psi], 1, 2, 0, 6)
        assert out_t.values == direct.values, u


def random_symmetric_propagator(s, degree, rng):
    """A random twist-symmetric tensor of the given degree."""
    deg = s.basis.degrees
    n = len(s.basis)
    sgn = -1 if degree % 2 else 1
    entries = {}
    for i in range(n):
        for j in range(n):
            if deg[i] + deg[j] != degree:
                continue
            tw = -1 if (deg[i] * deg[j]) % 2 else 1
            if (j, i) in entries:
                entries[(i, j)] = sgn * tw * entries[(j, i)]
            elif i == j and sgn * tw == -1:
                continue
            else:
                entries[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return {k: v for k, v in entries.items() if v}


def test_graph_pairing_degree_and_weight_laws():
    # nonzero values force weight(words) = weight(psis) - 2e and
    # degree(words) = degree(psis) - e |P|
    s = build_cpn(2).structure
    rng = random.Random(12)
    P = random_symmetric_propagator(s, s.manifold_dim - 3, rng)
    cases = [(1, 1, 0), (2, 1, 0), (1, 2, 0), (1, 1, 1)]
    words_all = [u for w in range(1, 4) for u in canonical_words(s.basis, w)]
    for (k, l, g) in cases:
        e = k + l + 2 * g - 2
        for _ in range(20):
            psis = [dual_word(s.basis, rng.choice(words_all),
                              slot_shift=s.slot_shift) for _ in range(k)]
            wsum = sum(len(p.weights()) and p.weights()[0] for p in psis)
            dsum = sum(p.degree() for p in psis)
            for words in _tuples(s, rng, l):
                val = f_klg(s, P, psis, k, l, g, words)
                if val:
                    assert sum(len(w) for w in words) == wsum - 2 * e
                    assert sum(s.basis.word_degree(w) for w in words) == \
                        dsum - e * (s.manifold_dim - 3)


def _tuples(s, rng, l):
    words_all = [u for w in range(1, 4) for u in canonical_words(s.basis, w)]
    out = []
    for _ in range(12):
        out.append([rng.choice(words_all) for _ in range(l)])
    return out


def test_symmetry_law_for_symmetric_propagator():
    # exchanging the two cochains of the (2,1,0)-map costs (-1)^|P|
    s = build_cpn(2).structure
    rng = random.Random(3)
    for pdeg in (s.manifold_dim - 3, s.manifold_dim - 2):
        P = random_symmetric_propagator(s, pdeg, rng)
        if pdeg % 2:
            sgn_flip = -1
        else:
            sgn_flip = 1
        words_all = [u for w in range(1, 4) for u in canonical_words(s.basis, w)]
        for _ in range(10):
            u1, u2 = rng.choice(words_all), rng.choice(words_all)
            psi1 = dual_word(s.basis, u1, slot_shift=s.slot_shift)
            psi2 = dual_word(s.basis, u2, slot_shift=s.slot_shift)
            d1, d2 = s.basis.word_degree(u1), s.basis.word_degree(u2)
            koszul = -1 if (d1 * d2) % 2 else 1
            for out in words_all:
                a = f_klg(s, P, [psi1, psi2], 2, 1, 0, [out])
                b = f_klg(s, P, [psi2, psi1], 2, 1, 0, [out])
                assert a == sgn_flip * koszul * b, (pdeg, u1, u2, out)


def test_pushforward_zero_kernel_gives_canonical_mc():
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        fam = pushforward_mc(s, s, {}, weight_bound=5, genus_bound=0, l_bound=2)
        mc = canonical_mc(s)
        assert fam.entry(1, 0).equal_values(mc.entry(1, 0))
        assert fam.entry(2, 0).is_zero()
        assert fam.entry(1, 1).is_zero()


def test_pushforward_transfer_passes_higher_associativity():
    # the four-vertex tree classes carry relative signs; a wrong sign breaks
    # the arity-six relations of the induced family (mu_1 vanishes on the
    # harmonic part, so they pin mu_5 against mu_2..mu_4)
    from cycibl.algebra import check_ainfty
    from cycibl.dibl import mu_from_mc, twisted_q110
    from cycibl.green import green_pipeline, harmonic_substructure, schwartz_kernel
    from cycibl.models import random_cyclic_dga

    s = random_cyclic_dga(6, seed=5)
    g, proj, _ = green_pipeline(s)
    kernel = schwartz_kernel(s, g)
    harm = harmonic_substructure(s, [0, 1])
    fam = pushforward_mc(s, harm, kernel.entries, weight_bound=6)
    twisted = mu_from_mc(harm, fam.entry(1, 0), 5)
    assert check_ainfty(twisted, 6).passed
    for w in range(1, 7):
        for u in canonical_words(harm.basis, w):
            psi = dual_word(harm.basis, u, slot_shift=harm.slot_shift)
            assert twisted_q110(harm, fam, twisted_q110(harm, fam, psi)).is_zero()
