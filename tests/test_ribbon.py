import math
import random
from fractions import Fraction
from itertools import permutations, product as iproduct

import pytest

from cycibl.dibl import (canonical_mc, collection_sign, distribution_sign,
                         q120, q210, t_tensor)
from cycibl.green import green_pipeline, harmonic_substructure, schwartz_kernel
from cycibl.linalg import Eliminator, det_sign
from cycibl.models import build_cpn, build_sn, random_cyclic_dga
from cycibl.ribbon import (Labeling, RibbonGraph, _surface_complex,
                           enumerate_graphs, f_klg, f_klg_tensor, graph_pairing,
                           orientation_compatible, compatible_edge_labeling,
                           pushforward_mc, sigma_L)
from cycibl.signs import ZERO, GradedBasis, koszul_sign
from cycibl.words import (CochainTensor, canonical_key, canonical_tuples,
                          canonical_words, dual_word)


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


def test_edges_join_half_edges_of_the_graph():
    # an out-of-range half-edge would index the half-edge map from the end
    for pairs in ([(0, 7)], [(-1, 0)]):
        with pytest.raises(ValueError, match="0..N-1"):
            RibbonGraph([(0, 1, 2)], pairs)


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
    # |Aut| per class, in the order enumerate_graphs returns them
    pinned = {(1, 1, 0, 3): [3], (2, 1, 0, 4): [2], (3, 1, 0, 5): [1],
              (4, 1, 0, 6): [1, 2, 2, 3]}
    for args, auts in pinned.items():
        assert [a for _, a in enumerate_graphs(*args, trivalent=True)] == auts
    for args, count in (((2, 1, 0, 3), 2), ((1, 2, 0, 3), 2),
                        ((3, 1, 0, 4), 19), ((2, 1, 1, 2), 37)):
        assert len(enumerate_graphs(*args)) == count, args


def test_trivalent_trees_count_rooted_planar_trees():
    # rooting a class at one of its legs gives legs/|Aut| rooted planar
    # trivalent trees, and there are Catalan(legs - 2) of those
    for legs in range(3, 7):
        found = enumerate_graphs(legs - 2, 1, 0, legs, trivalent=True)
        assert sum(Fraction(legs, a) for _, a in found) == math.comb(
            2 * (legs - 2), legs - 2) // (legs - 1)


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


def test_pushforward_is_the_signed_graph_sum_of_the_canonical_entry():
    # the (1, 0) and (2, 0) entries are distribution_sign times the sum over
    # k of f_klg_tensor with the canonical (1, 0) entry at every vertex (no
    # budget stop below k = 5); on weight-3 vertices f_klg_tensor pairs the
    # trivalent classes only, and every valency gives the same values
    W = 4
    nonzero = 0
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        T = t_tensor(s)
        vertex = canonical_mc(s).entry(1, 0)
        fam = pushforward_mc(s, s, T, W, l_bound=2, check_symmetry=False)
        for l in (1, 2):
            want = {}
            for k in range(1, W + 2 * l - 3):
                part = f_klg_tensor(s, T, [vertex] * k, k, l, 0, W)
                for key, v in part.items():
                    want[key] = want.get(key, 0) + distribution_sign(s, key) * v
                    if l == 1:
                        assert v == f_klg(s, T, [vertex] * k, k, l, 0, list(key))
            want = {key: v for key, v in want.items() if v}
            assert fam.entry(l, 0).values == want, (s.name, l)
            nonzero += len(want)
    assert nonzero >= 5, nonzero


def test_pushforward_without_product_gives_zero_family():
    # no product means no vertex cochain: only the (1, 0) entry, and zero
    from dataclasses import replace

    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        bare = replace(s, mu={1: {}})
        for kernel, symmetric in (({}, True), (t_tensor(s), False)):
            fam = pushforward_mc(bare, bare, kernel, weight_bound=4,
                                 genus_bound=0, check_symmetry=symmetric)
            assert list(fam.entries) == [(1, 0)], s.name
            assert fam.entry(1, 0).is_zero()
            assert fam.entry(1, 0).weight_bound == 4


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


# ---------------------------------------------------------------------------
# oracles: the all-starts canonical form, a full candidate enumeration, the
# per-labeling orientation frame, the per-labeling propagator loop and the
# m2+ vertex table
# ---------------------------------------------------------------------------

def oracle_encoding_from(graph, h0):
    """BFS encoding from one start, every row built after the traversal."""
    vert_of = {h: vi for vi, cyc in enumerate(graph.vertices) for h in cyc}
    vertex_id, entry, order = {}, {}, []

    def visit(v, h_entry):
        vertex_id[v] = len(order)
        entry[v] = h_entry
        order.append(v)

    visit(vert_of[h0], h0)
    pos = 0
    while pos < len(order):
        v = order[pos]
        pos += 1
        cyc = graph.vertices[v]
        start = cyc.index(entry[v])
        for t in range(len(cyc)):
            partner = graph.pairing.get(cyc[(start + t) % len(cyc)])
            if partner is not None and vert_of[partner] not in vertex_id:
                visit(vert_of[partner], partner)
    rows = []
    for v in order:
        cyc = graph.vertices[v]
        start = cyc.index(entry[v])
        row = []
        for t in range(len(cyc)):
            partner = graph.pairing.get(cyc[(start + t) % len(cyc)])
            if partner is None:
                row.append((-1, -1))
            else:
                pcyc = graph.vertices[vert_of[partner]]
                off = (pcyc.index(partner) - pcyc.index(entry[vert_of[partner]])) \
                    % len(pcyc)
                row.append((vertex_id[vert_of[partner]], off))
        rows.append(tuple(row))
    return tuple(rows)


def oracle_canonical(graph):
    """(least encoding over all starts, number of starts reaching it)."""
    encodings = [oracle_encoding_from(graph, h) for h in range(graph.n)]
    best = min(encodings)
    return best, encodings.count(best)


ENUMERATED = [((1, 1, 0, 3), True), ((2, 1, 0, 4), True), ((3, 1, 0, 5), True),
              ((4, 1, 0, 6), True), ((2, 1, 0, 3), False), ((1, 2, 0, 3), False),
              ((3, 1, 0, 4), False), ((2, 1, 1, 2), False)]


def relabeled(graph, rng):
    """The graph under a random relabeling of its half-edges, with the
    vertex list shuffled and each cycle written from a random start."""
    perm = list(range(graph.n))
    rng.shuffle(perm)
    cycles = []
    for cyc in graph.vertices:
        r = rng.randrange(len(cyc))
        cycles.append(tuple(perm[h] for h in cyc[r:] + cyc[:r]))
    rng.shuffle(cycles)
    return RibbonGraph(cycles, [(perm[a], perm[b]) for a, b in graph.edges])


def test_canonical_pass_matches_all_starts_oracle():
    rng = random.Random(17)
    for args, trivalent in ENUMERATED:
        for graph, aut in enumerate_graphs(*args, trivalent=trivalent,
                                           reduced=False):
            fresh = RibbonGraph(graph.vertices, graph.edges)
            sig, count = oracle_canonical(fresh)
            assert fresh.canonical_signature() == sig, args
            assert fresh.automorphism_order() == count == aut, args
            for _ in range(3):
                other = relabeled(graph, rng)
                assert other.canonical_signature() == sig, args
                assert other.automorphism_order() == aut, args


def test_canonical_pass_on_disconnected_graphs():
    # starts in different components give encodings of different lengths
    graphs = [RibbonGraph([(0, 1, 2), (3, 4, 5), (6, 7, 8)], [(0, 3)]),
              RibbonGraph([(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)],
                          [(0, 3), (6, 9), (7, 10)]),
              RibbonGraph([(0, 1, 2, 3), (4, 5), (6, 7, 8, 9)], [(0, 2), (6, 8)])]
    for graph in graphs:
        assert not graph.is_connected()
        sig, count = oracle_canonical(graph)
        assert (graph.canonical_signature(), graph.automorphism_order()) == \
            (sig, count)


def oracle_enumerate(k, l, g, legs, trivalent):
    """Every candidate matching built and encoded from every start; the
    first candidate of each class represents it (unreduced)."""
    e = k + l + 2 * g - 2
    n = 2 * e + legs

    def matchings(avail, count):
        if count == 0:
            yield []
            return
        if len(avail) < 2 * count:
            return
        first, rest0 = avail[0], avail[1:]
        yield from matchings(rest0, count)
        for idx in range(len(rest0)):
            for m in matchings(rest0[:idx] + rest0[idx + 1:], count - 1):
                yield [(first, rest0[idx])] + m

    def partitions(total, parts, minimum=1):
        if parts == 1:
            if total >= minimum:
                yield (total,)
            return
        for first in range(minimum, total - parts + 2):
            for rest in partitions(total - first, parts - 1, first):
                yield (first,) + rest

    found = {}
    for vals in ([(3,) * k] if trivalent else partitions(n, k)):
        starts = [sum(vals[:i]) for i in range(k)]
        blocks = [tuple(range(a, a + v)) for a, v in zip(starts, vals)]
        for match in matchings(list(range(n)), e):
            graph = RibbonGraph(blocks, match)
            if not graph.is_connected() or graph.counts() != (k, l, g):
                continue
            sig, aut = oracle_canonical(graph)
            found.setdefault(sig, (graph, aut))
    return [found[sig] for sig in sorted(found)]


def test_enumeration_matches_every_candidate_oracle():
    # same classes, same representative graphs, same order
    def shape(pairs):
        return [(gr.vertices, gr.edges, aut) for gr, aut in pairs]

    for args, trivalent in ENUMERATED:
        got = enumerate_graphs(*args, trivalent=trivalent, reduced=False)
        assert shape(got) == shape(oracle_enumerate(*args, trivalent)), args


def oracle_orientation_compatible(graph, vertex_order, boundary_order,
                                  edge_order):
    """The three level determinants rebuilt in the labeled bases: the
    surface complex re-indexed and re-signed for the labeling, lifts chosen
    in labeled order, det(level 0) det(level 1) det(level 2) = (-1)^e."""
    d1, d2, middle = _surface_complex(graph)
    k, e, l = len(graph.vertices), len(d1), len(d2)
    # canonical edge -> (labeled position, -1 when the labeling reverses it)
    canon = {pair_: c for c, pair_ in enumerate(graph.edges)}
    at = [None] * e
    for idx, (tail, head) in enumerate(edge_order):
        at[canon[(min(tail, head), max(tail, head))]] = \
            (idx, 1 if tail < head else -1)

    def relabel(vec):
        return {at[c][0]: at[c][1] * v for c, v in vec.items()}

    v_pos = {v: i for i, v in enumerate(vertex_order)}
    d1_cols = [None] * e
    for c, col in enumerate(d1):
        idx, flip = at[c]
        d1_cols[idx] = {v_pos[r]: flip * v for r, v in col.items()}
    d2_cols = [None] * l
    for b, col in enumerate(d2):
        d2_cols[boundary_order.index(b)] = relabel(col)

    # level 0: [d1(lift of image basis) | point class] against C0
    elim = Eliminator()
    lift_cols, lift1_cols_in_c1 = [], []
    for c, col in enumerate(d1_cols):
        if col and elim.add(col):
            lift_cols.append(col)
            lift1_cols_in_c1.append({c: Fraction(1)})
    level0 = det_sign(lift_cols + [{0: Fraction(1)}]) \
        if len(lift_cols) + 1 == k else 0
    # level 2: [fundamental class | lifts of the image of d2] against C2
    elim2 = Eliminator()
    lift2, lift2_cols_in_c2 = [], []
    for c, col in enumerate(d2_cols):
        if col and elim2.add(col):
            lift2.append(col)
            lift2_cols_in_c2.append({c: Fraction(1)})
    fund = {c: Fraction(1) for c in range(l)}
    level2 = det_sign([fund] + lift2_cols_in_c2) \
        if 1 + len(lift2_cols_in_c2) == l else 0
    # level 1: [image of d2 | middle reference | level-0 lifts] against C1
    middle = [relabel(vec) for vec in middle]
    level1 = det_sign(lift2 + middle + lift1_cols_in_c1) \
        if len(lift2) + len(middle) + len(lift1_cols_in_c1) == e else 0
    if e == 0:
        level1 = 1
    assert 0 not in (level0, level1, level2)
    return level0 * level1 * level2 == (-1 if e % 2 else 1)


def oracle_compatible_edge_labeling(graph, vertex_order, boundary_order):
    """The canonical edges, or else the first one reversed: the first of
    the two candidates the oracle frame accepts."""
    base = list(graph.edges)
    candidates = [base] + ([[base[0][::-1]] + base[1:]] if base else [])
    for cand in candidates:
        if oracle_orientation_compatible(graph, vertex_order, boundary_order,
                                         tuple(cand)):
            return tuple(cand)
    raise AssertionError("no compatible edge orientation")


ORIENTED = [(k, l, g, legs) for k in (1, 2, 3) for l in (1, 2) for g in (0, 1)
            for legs in range(5) if 2 * (k + l + 2 * g - 2) + legs <= 8]


def test_orientation_parity_matches_per_labeling_frame():
    # every vertex and boundary order of every graph in the budget, reduced
    # and unreduced, with seeded edge orders and reversals
    rng = random.Random(41)
    graphs = orders = accepted = 0
    for args in ORIENTED:
        for reduced in (True, False):
            for graph, _ in enumerate_graphs(*args, reduced=reduced):
                graphs += 1
                k, l = len(graph.vertices), len(graph.boundaries())
                for vo in permutations(range(k)):
                    for bo in permutations(range(l)):
                        orders += 1
                        assert compatible_edge_labeling(graph, vo, bo) == \
                            oracle_compatible_edge_labeling(graph, vo, bo), \
                            (args, graph.vertices, graph.edges, vo, bo)
                        for _ in range(3):
                            eo = rng.sample(graph.edges, len(graph.edges))
                            eo = tuple(p[::-1] if rng.random() < 0.5 else p
                                       for p in eo)
                            want = oracle_orientation_compatible(graph, vo, bo, eo)
                            assert orientation_compatible(graph, vo, bo, eo) == \
                                want, (args, graph.vertices, graph.edges, vo, bo, eo)
                            accepted += want
    # both outcomes, over multi-edge graphs of positive genus too
    assert graphs >= 500 and orders >= 2000, (graphs, orders)
    assert 0.3 < accepted / (3 * orders) < 0.7, accepted


def oracle_graph_pairing(s, graph, propagator, psis, words):
    """The graph pairing with every propagator assignment multiplied out,
    signed and routed for every labeling before any vertex is evaluated."""
    k, l = len(graph.vertices), len(graph.boundaries())
    if len(psis) != k or len(words) != l:
        return Fraction(0)
    deg = s.basis.degrees
    blegs = graph.boundary_legs()
    vals = graph.valencies()
    total = Fraction(0)
    for vertex_order in permutations(range(k)):
        for boundary_order in permutations(range(l)):
            if any(len(blegs[b]) != len(words[pos])
                   for pos, b in enumerate(boundary_order)):
                continue
            edge_order = compatible_edge_labeling(graph, vertex_order,
                                                  boundary_order)
            vertex_marks = tuple(graph.vertices[v][0] for v in vertex_order)
            for marks in iproduct(*[range(max(len(blegs[b]), 1))
                                    for b in boundary_order]):
                sigma = sigma_L(graph, Labeling(vertex_order, boundary_order,
                                                edge_order, vertex_marks, marks))
                for combo in iproduct(propagator.items(),
                                      repeat=len(graph.edges)):
                    letters, coeff = [], Fraction(1)
                    for pair_, pval in combo:
                        letters.extend(pair_)
                        coeff *= pval
                    for w in words:
                        letters.extend(w)
                    term = coeff * koszul_sign(sigma, [deg[x] for x in letters])
                    routed = [0] * len(letters)
                    for p, x in enumerate(letters):
                        routed[sigma[p]] = x
                    off = 0
                    for pos, v in enumerate(vertex_order):
                        term *= psis[pos].eval_word(tuple(routed[off:off + vals[v]]))
                        off += vals[v]
                    total += term
    return total


def dense_propagators():
    for bundle in (build_sn(3), build_cpn(2)):
        yield bundle.structure, t_tensor(bundle.structure)
    for seed in (1, 2):
        s = random_cyclic_dga(6, seed=seed)
        g, _, _ = green_pipeline(s)
        yield s, schwartz_kernel(s, g).entries


def routed_case(s, graph, propagator, rng):
    """Dual-word psis and boundary words read off one propagator assignment,
    so that at least that term can be nonzero."""
    letter = {}
    for a, b in graph.edges:
        i, j = rng.choice(sorted(propagator))
        letter[a], letter[b] = (i, j) if rng.random() < 0.5 else (j, i)
    for h in graph.legs:
        letter[h] = rng.randrange(len(s.basis))
    order = list(range(len(graph.vertices)))
    rng.shuffle(order)
    psis = [dual_word(s.basis, tuple(letter[h] for h in graph.vertices[v]),
                      slot_shift=s.slot_shift) for v in order]
    words = [tuple(letter[h] for h in legs) for legs in graph.boundary_legs()]
    return psis, words


def test_graph_pairing_matches_per_labeling_oracle():
    rng = random.Random(23)
    for s, propagator in dense_propagators():
        nonzero = 0
        for (k, l, g) in ((2, 1, 0), (1, 2, 0), (3, 1, 0)):
            for legs in range(2, 5):
                for graph, _ in enumerate_graphs(k, l, g, legs):
                    psis, words = routed_case(s, graph, propagator, rng)
                    # a random dual word in one slot: blocks that vanish
                    stray = rng.randrange(k)
                    other = [rng.randrange(len(s.basis))
                             for _ in graph.vertices[stray]]
                    variants = [psis, psis[:stray] + [dual_word(
                        s.basis, other, slot_shift=s.slot_shift)] + psis[stray + 1:]]
                    for ps in variants:
                        want = oracle_graph_pairing(s, graph, propagator, ps, words)
                        assert graph_pairing(s, graph, propagator, ps, words) == want
                        nonzero += bool(want)
        assert nonzero >= 10, s.name


class OracleMuPlusCochain:
    """The weight-three cochain P(m2(x, y), z), kept as its table of nonzero
    values on letter triples."""

    __slots__ = ("values",)

    def __init__(self, s):
        self.values = {}
        for xy in s.mu.get(2, {}):
            for z in range(len(s.basis)):
                value = s.mu_plus(2, xy + (z,))
                if value:
                    self.values[xy + (z,)] = value

    def eval_word(self, letters) -> Fraction:
        return self.values.get(tuple(letters), ZERO)

    def weights(self):
        return [3]


def supported_word(graph, propagator, support, rng):
    """A boundary word such that one propagator assignment puts a triple of
    ``support`` on every vertex (None when the drawn edge letters allow
    none)."""
    letter = {}
    for a, b in graph.edges:
        letter[a], letter[b] = rng.choice(sorted(propagator))
    for cyc in graph.vertices:
        fits = [t for t in sorted(support)
                if all(letter.get(h, x) == x for h, x in zip(cyc, t))]
        if not fits:
            return None
        letter.update(zip(cyc, rng.choice(fits)))
    (legs,) = graph.boundary_legs()
    return tuple(letter[h] for h in legs)


def test_mu_plus_pairing_matches_oracle_on_trivalent_trees():
    # the dense propagators cancel over the labelings of a four-vertex tree
    # (the pipeline kernels of the random algebras vanish on it outright);
    # propagators without the twist symmetry leave nonzero sums
    rng = random.Random(31)
    cases = list(dense_propagators())
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        pairs = sorted(iproduct(range(len(s.basis)), repeat=2))
        cases.append((s, {p: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                          for p in rng.sample(pairs, 3)}))
    nonzero = 0
    for s, propagator in cases:
        m2p = OracleMuPlusCochain(s)
        n = len(s.basis)
        for graph, _ in enumerate_graphs(4, 1, 0, 6, trivalent=True):
            word = supported_word(graph, propagator, m2p.values, rng) or \
                tuple(rng.randrange(n) for _ in range(6))
            want = oracle_graph_pairing(s, graph, propagator, [m2p] * 4, [word])
            assert graph_pairing(s, graph, propagator, [m2p] * 4, [word]) == want
            nonzero += bool(want)
    assert nonzero >= 4, nonzero


def oracle_tuples_of_total(basis, total, slots):
    """Every ordered tuple of ``slots`` canonical words of the given total
    weight, slot by slot in (weight, letters) order."""
    if slots == 1:
        if total >= 1:
            for u in canonical_words(basis, total):
                yield (u,)
        return
    for first in range(1, total - slots + 2):
        for u in canonical_words(basis, first):
            for rest in oracle_tuples_of_total(basis, total - first, slots - 1):
                yield (u,) + rest


def oracle_canonical_tuples(basis, slot_shift, total, slots):
    """The enumerate-and-dedup walk: each canonical key with the sign of
    the first ordered tuple that reaches it."""
    seen = set()
    for words in oracle_tuples_of_total(basis, total, slots):
        keyed = canonical_key(words, basis, slot_shift)
        if keyed is None or keyed[0] in seen:
            continue
        seen.add(keyed[0])
        yield keyed


def shuffled_basis(seed, size=6):
    """A basis whose label order differs from its index order, with
    degrees drawn from -1 to 3."""
    rng = random.Random(seed)
    labels = [chr(ord("a") + i) for i in range(size)]
    while labels == sorted(labels):
        rng.shuffle(labels)
    return GradedBasis(tuple(labels),
                       tuple(rng.randint(-1, 3) for _ in range(size)))


def test_canonical_tuples_match_enumerate_and_dedup_walk():
    cases = [(b.structure.basis, b.structure.slot_shift, 6)
             for b in (build_sn(3), build_cpn(2))]
    cases += [(shuffled_basis(seed), seed % 2, 5) for seed in range(4)]
    annihilated = negative = 0
    for basis, shift, top in cases:
        for slots in (1, 2, 3):
            for total in range(1, top + 1):
                got = list(canonical_tuples(basis, shift, total, slots))
                want = list(oracle_canonical_tuples(basis, shift, total, slots))
                assert got == want, (basis.labels, shift, slots, total)
                negative += sum(sign == -1 for _, sign in got)
                annihilated += sum(canonical_key(words, basis, shift) is None
                                   for words in oracle_tuples_of_total(
                                       basis, total, slots))
    # the signs and the self-annihilating tuples are exercised
    assert negative and annihilated, (negative, annihilated)


def oracle_pushforward_entries(s, harmonic, kernel, weight_bound,
                               genus_bound=0, l_bound=2):
    """``pushforward_mc``'s entries with every word tuple paired against
    every class (the loop before the degree-law filter), with the m2+
    table at each vertex and the sign (-1)^(k (m-2)) per graph sum."""
    amb_index = {lab: i for i, lab in enumerate(s.basis.labels)}
    lift = [amb_index[lab] for lab in harmonic.basis.labels]
    m2p = OracleMuPlusCochain(s)
    entries = {}
    for l in range(1, l_bound + 1):
        for g in range(genus_bound + 1):
            ten = CochainTensor(harmonic.basis, l, harmonic.slot_shift,
                                weight_bound)
            for total in range(l, weight_bound + 1):
                k = total + 2 * l + 4 * g - 4
                if k < 1 or (not kernel and k + l + 2 * g - 2 >= 1):
                    continue
                try:
                    graphs = enumerate_graphs(k, l, g, total, trivalent=True)
                except ValueError:
                    ten.weight_bound = total - 1
                    break
                sgn = Fraction(-1) ** (k * (s.manifold_dim - 2))
                for key, _ in oracle_canonical_tuples(
                        harmonic.basis, harmonic.slot_shift, total, l):
                    ambient = [tuple(lift[x] for x in w) for w in key]
                    val = sum((graph_pairing(s, graph, kernel, [m2p] * k,
                                             ambient) / aut
                               for graph, aut in graphs), Fraction(0))
                    val = val * sgn / math.factorial(l)
                    if val:
                        ten.add(key, distribution_sign(harmonic, key) * val)
            if not ten.is_zero() or (l, g) == (1, 0):
                entries[(l, g)] = ten
    return entries


def _entries_text(entries):
    return [(key, repr(ten), ten.weight_bound) for key, ten in sorted(entries.items())]


def test_pushforward_degree_filter_matches_unfiltered_oracle():
    cases = []
    for seed in range(8):
        s = random_cyclic_dga(6, seed=seed)
        g, _, _ = green_pipeline(s)
        cases.append((s, harmonic_substructure(s, [0, 1]),
                      schwartz_kernel(s, g).entries, 6, 0, True))
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        for genus in (0, 1):
            cases.append((s, s, {}, 5, genus, True))
    # the pipeline kernels vanish on every tree with an edge; the dense
    # T tensors (without the twist symmetry) do not
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        cases.append((s, s, t_tensor(s), 5, 0, False))
    with_edges = 0
    for s, harm, kernel, weight, genus, symmetric in cases:
        got = pushforward_mc(s, harm, kernel, weight_bound=weight,
                             genus_bound=genus,
                             check_symmetry=symmetric).entries
        want = oracle_pushforward_entries(s, harm, kernel, weight, genus)
        assert _entries_text(got) == _entries_text(want), (s.name, genus)
        assert [list(t.values.items()) for t in got.values()] == \
            [list(t.values.items()) for t in want.values()]
        # weight 4 and up in (1, 0) needs k >= 2 vertices, so an edge
        with_edges += sum(sum(map(len, key)) >= 4 for key in
                          want[(1, 0)].values)
    assert with_edges >= 4, with_edges
