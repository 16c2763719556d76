"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact equality of rationals; the stated runtime budgets
are asserted as upper bounds on the measured wall time of the criterion
body.  Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from cycibl.algebra import check_ainfty, unit_cochain
from cycibl.dibl import (MaurerCartanFamily, canonical_mc, circ1,
                         collection_sign, distribution_sign, ibl_relations_check,
                         mu_from_mc, q110, q120, q210, t_tensor,
                         twisted_boundary_vs_bar_dual, twisted_q110,
                         twisted_q120)
from cycibl.green import (check_g_properties, gdg_rewriting_holds, green_gdg,
                          green_pipeline, harmonic_substructure, m1_operator,
                          schwartz_kernel)
from cycibl.homology import cochain_homology
from cycibl.linalg import Eliminator
from cycibl.models import (S1TwistConfig, build_cpn, build_s1_pmc, build_sn,
                           random_cyclic_dga, truncated_polynomial)
from cycibl.ribbon import enumerate_graphs, f_klg, f_klg_tensor, pushforward_mc
from cycibl.words import (CochainTensor, canonical_tuples, canonical_words,
                          dual_word)
from helpers import classical_b_tensor, conjugated_b_tensor, random_s1_config


class Budget:
    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"criterion {self.number:>2}: {status} ({elapsed:6.2f}s / "
              f"budget {self.seconds}s) - {self.description}")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget")
        return False


def wdual(s, letters, bound=None):
    return dual_word(s.basis, letters, slot_shift=s.slot_shift,
                     weight_bound=bound)


def vol_dual(s, k, bound=None):
    return wdual(s, (1,) * k, bound)


def test_criterion_01_unit_relation_odd_sphere():
    with Budget(1, "unit product relation on the 3-sphere", 1):
        s = build_sn(3).structure
        one = unit_cochain(s, 1)
        for k in range(2, 9):
            out = q210(s, one, vol_dual(s, k))
            expected = vol_dual(s, k - 1).scaled(-(k - 1))
            assert out.equal_values(expected), k


def test_criterion_02_even_sphere_relations_and_homology():
    with Budget(2, "2-sphere vanishing relations and reduced homology", 10):
        s = build_sn(2).structure
        one = unit_cochain(s, 1)
        for k in range(1, 9):
            psi = vol_dual(s, k)
            if psi.is_zero():
                continue
            assert q210(s, one, psi).is_zero(), k
            assert q120(s, psi).is_zero(), k
        rep = cochain_homology(s, canonical_mc(s), weight_bound=9,
                               reduced=True)
        assert rep.stable_classes() == {(w, w): 1 for w in (1, 3, 5, 7)}


def test_criterion_03_circle_long_cochain_relation():
    with Budget(3, "circle long-cochain product relation at truncation 10", 1):
        s = build_sn(1).structure
        rng = random.Random(2024)
        W = 10
        coeffs = {k: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                  for k in range(1, W + 1)}
        long = CochainTensor(s.basis, 1, s.slot_shift, weight_bound=W)
        for k, c in coeffs.items():
            long.add(((1,) * k,), c)
        out = q210(s, unit_cochain(s, 1), long)
        assert out.weight_bound == W - 1
        for k in range(1, W):
            assert out.eval_word((1,) * k) == -k * coeffs[k + 1], k
        for key in out.values:
            assert set(key[0]) == {1}


def test_criterion_04_projective_plane_cohomology_table():
    with Budget(4, "projective-plane cohomology table at truncation 7", 60):
        s = build_cpn(2).structure
        rep = cochain_homology(s, canonical_mc(s), weight_bound=7)
        expected = {}
        for w in (1, 3, 5):
            for i in (1, 2):
                expected[(2 * i + (w - 1) * 2 - 1, w)] = 1
            expected[(-w, w)] = 1
        assert rep.stable_classes() == expected


def test_criterion_05_twisted_boundary_is_bar_dual():
    with Budget(5, "twisted boundary equals the dual bar differential", 30):
        for bundle in (build_sn(3), build_cpn(2)):
            s = bundle.structure
            mc = canonical_mc(s)
            for w in range(1, 7):
                for u in canonical_words(s.basis, w):
                    psi = wdual(s, u)
                    left, right = twisted_boundary_vs_bar_dual(s, mc, psi)
                    assert left.equal_values(right), (s.name, u)


def test_criterion_06_graph_route_equals_operations():
    with Budget(6, "one-edge graph maps equal product and coproduct", 30):
        for bundle in (build_sn(3), build_cpn(2)):
            s = bundle.structure
            T = t_tensor(s)
            rng = random.Random(61)
            words = [u for w in range(1, 5) for u in canonical_words(s.basis, w)]
            count = 0
            while count < 50:
                u1, u2 = rng.choice(words), rng.choice(words)
                psi1, psi2 = wdual(s, u1), wdual(s, u2)
                direct = q210(s, psi1, psi2)
                out = rng.choice(words)
                got = f_klg(s, T, [psi1, psi2], 2, 1, 0, [out])
                assert got == direct.eval_word(out), (s.name, u1, u2, out)
                count += 1
            count = 0
            while count < 50:
                u = rng.choice([w for w in words if len(w) >= 4])
                psi = wdual(s, u)
                direct = q120(s, psi)
                w1 = rng.randrange(1, len(u) - 2)
                outs1 = list(canonical_words(s.basis, w1))
                outs2 = list(canonical_words(s.basis, len(u) - 2 - w1))
                o1, o2 = rng.choice(outs1), rng.choice(outs2)
                got = f_klg(s, T, [psi], 1, 2, 0, [o1, o2])
                want = direct.eval_tuple((o1, o2))
                assert got == want, (s.name, u, o1, o2)
                count += 1


def _random_propagator(s, degree, rng):
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


def test_criterion_07_graph_pairing_laws():
    with Budget(7, "degree, filtration, symmetry and labeling laws", 30):
        s = build_cpn(2).structure
        rng = random.Random(7)
        words = [u for w in range(1, 4) for u in canonical_words(s.basis, w)]
        off_law = nonzero = 0
        # CP2 has no pair of degree m - 3; m - 2 puts the propagator's
        # degree into the law
        for pdeg in (s.manifold_dim - 3, s.manifold_dim - 4,
                     s.manifold_dim - 2):
            P = _random_propagator(s, pdeg, rng)
            if not P:
                continue
            for (k, l, g) in ((1, 1, 0), (2, 1, 0), (1, 2, 0), (1, 1, 1)):
                e = k + l + 2 * g - 2
                for _ in range(6):
                    psis = [wdual(s, rng.choice(words)) for _ in range(k)]
                    wsum = sum(p.weights()[0] for p in psis)
                    dsum = sum(p.degree() for p in psis)
                    # degree law on f_klg itself, over every canonical tuple
                    # of the reachable total: a value off the law is 0;
                    # f_klg_tensor, which pairs only the tuples on the
                    # law, must give the same tensor as this walk
                    walk = {}
                    total = wsum - 2 * e
                    for key, _ in (canonical_tuples(s.basis, s.slot_shift,
                                                    total, l)
                                   if l <= total <= 8 else ()):
                        val = f_klg(s, P, psis, k, l, g, list(key))
                        if sum(s.basis.word_degree(w) for w in key) != \
                                dsum - e * pdeg:
                            assert val == 0, (k, l, g, key)
                            off_law += 1
                        elif val:
                            walk[key] = val
                    out = f_klg_tensor(s, s, P, psis, k, l, g, 8)
                    assert list(out.items()) == list(walk.items())
                    nonzero += len(walk)
                    # weight/filtration law
                    for key in out.values:
                        assert sum(len(w) for w in key) == total
                    if out.weights():
                        assert out.filtration_degree() >= total
                # symmetry law for the two-input map
                if (k, l, g) == (2, 1, 0):
                    for _ in range(6):
                        u1, u2 = rng.choice(words), rng.choice(words)
                        p1, p2 = wdual(s, u1), wdual(s, u2)
                        d1, d2 = s.basis.word_degree(u1), s.basis.word_degree(u2)
                        kos = -1 if (d1 * d2) % 2 else 1
                        sg = -1 if pdeg % 2 else 1
                        for out_w in words:
                            a = f_klg(s, P, [p1, p2], 2, 1, 0, [out_w])
                            b = f_klg(s, P, [p2, p1], 2, 1, 0, [out_w])
                            assert a == sg * kos * b
        assert off_law and nonzero, (off_law, nonzero)
        _labeling_independence(s, rng)


def _labeling_independence(s, rng):
    # the summand value does not depend on vertex first-marks nor on which
    # compatible edge frame is used (checked with two flips on genus one)
    from cycibl.ribbon import (Labeling, RibbonGraph, orientation_compatible,
                               compatible_edge_labeling, sigma_L)
    from cycibl.signs import koszul_sign

    P = _random_propagator(s, s.manifold_dim - 3, rng)
    graph = RibbonGraph([(0, 1, 2, 3, 4)], [(0, 2), (1, 3)])  # genus one
    assert graph.counts() == (1, 1, 1)
    psi = wdual(s, rng.choice(list(canonical_words(s.basis, 3))))
    word = next(iter(canonical_words(s.basis, 1)))
    deg = s.basis.degrees

    def value(edge_order, vmark):
        lab = Labeling((0,), (0,), edge_order, (vmark,), (0,))
        sigma = sigma_L(graph, lab)
        total = Fraction(0)
        for (a1, b1), v1 in P.items():
            for (a2, b2), v2 in P.items():
                letters = [a1, b1, a2, b2] + list(word)
                degs = [deg[x] for x in letters]
                sign = koszul_sign(sigma, degs)
                routed = [0] * 5
                for p, x in enumerate(letters):
                    routed[sigma[p]] = x
                total += v1 * v2 * sign * psi.eval_word(tuple(routed))
        return total

    base_edges = compatible_edge_labeling(graph, (0,), (0,))
    ref = value(base_edges, graph.vertices[0][0])
    for vmark in graph.vertices[0]:
        assert value(base_edges, vmark) == ref
    # flip both edges (an even number of frame moves): compatible, same value
    flipped = tuple((b, a) for (a, b) in base_edges)
    assert orientation_compatible(graph, (0,), (0,), flipped)
    assert value(flipped, graph.vertices[0][0]) == ref
    # a single swap is orientation-odd; swap plus one flip is even again
    swapped = (base_edges[1], base_edges[0])
    assert not orientation_compatible(graph, (0,), (0,), swapped)
    swap_flip = ((base_edges[1][1], base_edges[1][0]), base_edges[0])
    assert orientation_compatible(graph, (0,), (0,), swap_flip)
    assert value(swap_flip, graph.vertices[0][0]) == ref


def test_criterion_08_green_pipeline_hundred_seeds():
    with Budget(8, "homotopy pipeline on one hundred seeded complexes", 60):
        for seed in range(100):
            s = random_cyclic_dga(8, seed=seed)
            g, proj, stages = green_pipeline(s)
            rep = check_g_properties(s, g, proj)
            assert rep.passed, (seed, rep.summary())
            for stage in stages:
                srep = check_g_properties(s, stage, proj)
                assert srep.results["G2"], seed
                # the exact rewriting of the square-zero correction, and
                # its square-zero property, hold at every stage
                assert gdg_rewriting_holds(s, stage), seed
                corr = green_gdg(s, stage)
                assert corr.compose(corr).is_zero(), seed


def test_criterion_09_pushforward_sanity():
    with Budget(9, "transferred twist element: zero and nonzero kernels", 120):
        # zero kernel: the canonical element comes back, everything else zero
        for bundle in (build_sn(3), build_cpn(2)):
            s = bundle.structure
            fam = pushforward_mc(s, s, {}, weight_bound=5, genus_bound=1,
                                 l_bound=2)
            assert fam.entry(1, 0).equal_values(canonical_mc(s).entry(1, 0))
            for (l, g), ten in fam.entries.items():
                if (l, g) != (1, 0):
                    assert ten.is_zero(), (l, g)
        # harmonic-plus-acyclic model with its pipeline kernel
        s = random_cyclic_dga(6, seed=3)
        g, proj, _ = green_pipeline(s)
        kernel = schwartz_kernel(s, g)
        harm = harmonic_substructure(s, [0, 1])
        fam = pushforward_mc(s, harm, kernel.entries, weight_bound=6)
        e10 = fam.entry(1, 0)
        # weight-three part equals the canonical element of the harmonic part
        mc_h = canonical_mc(harm).entry(1, 0)
        assert e10.restricted(3).equal_values(mc_h.restricted(3))
        twisted = mu_from_mc(harm, e10, 5)
        assert check_ainfty(twisted, 5).passed
        for w in range(1, 7):
            for u in canonical_words(harm.basis, w):
                psi = dual_word(harm.basis, u, slot_shift=harm.slot_shift)
                once = twisted_q110(harm, fam, psi)
                assert twisted_q110(harm, fam, once).is_zero(), u


def test_criterion_10_circle_twist_parity():
    with Budget(10, "circle twist: equality on homology, chain-level twist", 30):
        s = build_sn(1).structure
        for seed in (0, 1, 2, 3):
            rng = random.Random(seed)
            cfg = random_s1_config(rng, top=12)
            fam = build_s1_pmc(cfg, weight_bound=9)
            # volume-power representatives at truncation 8: exact equality
            for k in range(1, 8):
                psi = vol_dual(s, k)
                assert twisted_q120(s, fam, psi).equal_values(q120(s, psi))
            # unit-power representatives: the twist difference is supported
            # on tuples with a mixed word, which die in homology
            for q in (1, 3, 5):
                psi = unit_cochain(s, q)
                diff = twisted_q120(s, fam, psi) - q120(s, psi)
                for key in diff.values:
                    assert any(len(set(w)) == 2 for w in key), (seed, q, key)
        # chain-level inequality with a nonzero second moment
        cfg = S1TwistConfig({2: Fraction(3, 2)})
        fam = build_s1_pmc(cfg, weight_bound=8)
        psi = wdual(s, (0, 1))
        tw, base = twisted_q120(s, fam, psi), q120(s, psi)
        assert not tw.equal_values(base)
        assert tw.eval_tuple(((1,), (1,))) != 0
        assert base.eval_tuple(((1,), (1,))) == 0


def _boundary_block_elim(s, mc, degree, weights, table):
    """Eliminator spanning the twisted-boundary image in fixed degree,
    from the dual-differential transpose table."""
    elim = Eliminator()
    index = {}

    def col_of(key):
        if key not in index:
            index[key] = len(index)
        return index[key]

    top = max(weights)
    for w in range(1, top + 1):
        for u in canonical_words(s.basis, w):
            if s.basis.word_degree(u) != degree + 1:
                continue
            vec = {col_of((len(v), v)): c
                   for v, c in table.get(u, {}).items()}
            if vec:
                elim.add(vec)
    return elim, col_of


def test_criterion_11_projective_vanishing_on_homology():
    from cycibl.homology import dual_differential_table
    with Budget(11, "projective spaces: operations vanish on homology", 120):
        for n in (2, 3):
            bundle = build_cpn(n)
            s = bundle.structure
            mc = canonical_mc(s)
            table = dual_differential_table(s, mc, 9)
            rep = cochain_homology(s, mc, weight_bound=7)
            shift = 2 * n - 3
            reps = []
            for (d, w), vecs in rep.reps.items():
                if not rep.stable[(d, w)]:
                    continue
                # every stable class is even after the suspension shift
                for vec in vecs:
                    assert (d + shift) % 2 == 0, (n, d, w)
                    ten = CochainTensor(s.basis, 1, s.slot_shift)
                    for (ww, u), c in vec.items():
                        ten.add((u,), c)
                    if not ten.is_zero():
                        reps.append(ten)
            # pairwise products: zero or an exact twisted boundary
            elims = {}
            for r1 in reps:
                for r2 in reps:
                    out = q210(s, r1, r2).scaled(collection_sign(s, r1))
                    if out.is_zero():
                        continue
                    d = out.degree()
                    assert (d + shift) % 2 == 1  # odd classes must die
                    ws = out.weights()
                    if max(ws) > 7:
                        continue  # beyond the certified range; parity covers it
                    if d not in elims:
                        elims[d] = _boundary_block_elim(s, mc, d,
                                                        set(range(1, 8)), table)
                    elim, col_of = elims[d]
                    vec = {col_of((len(k[0]), k[0])): c
                           for k, c in out.values.items()}
                    assert not elim.reduce(vec), (n, d)
            # coproducts of representatives: the twisted coproduct has no
            # extra entry here; nonzero outputs are odd against the even
            # two-slot homology, and within the certified range they are
            # exact extended boundaries
            prod_elims = {}
            for r in reps:
                out = twisted_q120(s, mc, r)
                if out.is_zero():
                    continue
                d = out.degree()
                # total word degree keeps the parity of the input, so the
                # two-slot shifted parity is odd while surviving classes
                # (products of even classes) are even
                assert (d - r.degree()) % 2 == 0
                assert (r.degree() + shift) % 2 == 0
                ws = out.weights()
                if n == 2 and max(ws) <= 6:
                    key = (d, max(ws))
                    if key not in prod_elims:
                        prod_elims[key] = _extended_boundary_elim(
                            s, mc, d, max(ws))
                    elim, col_of = prod_elims[key]
                    vec = {col_of(k): c for k, c in out.values.items()}
                    assert not elim.reduce(vec), (n, d)


def _extended_boundary_elim(s, mc, degree, top_weight):
    """Eliminator spanning the image of the slotwise-extended twisted
    boundary on two-slot tensors of the given total degree."""
    from cycibl.words import product_cochain

    elim = Eliminator()
    index = {}

    def col_of(key):
        if key not in index:
            index[key] = len(index)
        return index[key]

    for total in range(2, top_weight + 1):
        for w1 in range(1, total):
            for u1 in canonical_words(s.basis, w1):
                for u2 in canonical_words(s.basis, total - w1):
                    d1 = s.basis.word_degree(u1)
                    d2 = s.basis.word_degree(u2)
                    if d1 + d2 != degree + 1:
                        continue
                    x = dual_word(s.basis, u1, slot_shift=s.slot_shift)
                    y = dual_word(s.basis, u2, slot_shift=s.slot_shift)
                    t1 = product_cochain([twisted_q110(s, mc, x), y])
                    sgn = -1 if ((d1 + s.slot_shift) % 2) else 1
                    t2 = product_cochain([x, twisted_q110(s, mc, y)]).scaled(sgn)
                    img = t1 + t2
                    vec = {col_of(k): c for k, c in img.values.items()}
                    if vec:
                        elim.add(vec)
    return elim, col_of


def test_criterion_12_classical_comparison():
    with Budget(12, "classical complex comparison through the degree shift", 10):
        from itertools import product as iproduct
        for s in (build_sn(3).structure, truncated_polynomial(2, 2)):
            for w in range(1, 6):
                for letters in iproduct(range(len(s.basis)), repeat=w):
                    assert conjugated_b_tensor(s, letters) == \
                        classical_b_tensor(s, letters), (s.name, letters)


def test_criterion_13_odd_sphere_splitting_and_unit_table():
    with Budget(13, "3-sphere homology splitting and the unit-power table", 30):
        s = build_sn(3).structure
        mc = canonical_mc(s)
        full = cochain_homology(s, mc, weight_bound=8)
        red = cochain_homology(s, mc, weight_bound=8, reduced=True)
        expected_red = {(2 * w, w): 1 for w in range(1, 8)}
        assert red.stable_classes() == expected_red
        expected_full = dict(expected_red)
        for w in (1, 3, 5, 7):
            expected_full[(-w, w)] = 1
        assert full.stable_classes() == expected_full
        # unit-power cohomology of the scalars for q <= 8
        from cycibl.algebra import CyclicStructure
        from cycibl.signs import GradedBasis
        one = Fraction(1)
        scalars = CyclicStructure(
            name="R", basis=GradedBasis(("1",), (-1,)), manifold_dim=0,
            pairing=None, mu={1: {}, 2: {(0, 0): {0: one}}}, unit=0,
            augmentation={0: one})
        rep = cochain_homology(scalars, None, weight_bound=10)
        got = {w: n for (d, w), n in rep.stable_classes().items()}
        assert got == {w: 1 for w in (1, 3, 5, 7, 9)}
        # q = w - 1: classes exactly at even q in 0..8


def test_criterion_14_relation_suite_and_mutation():
    with Budget(14, "relation suite with mutation witness", 120):
        s3 = build_sn(3).structure
        cp2 = build_cpn(2).structure
        cases = [(s3, 5), (cp2, 5), (cp2, 7)] + [
            (random_cyclic_dga(6, seed=100 + seed), 5) for seed in range(20)]
        reached = set()
        for s, weight in cases:
            rep = ibl_relations_check(s, weight)
            assert rep.passed, (s.name, weight)
            reached |= {name for name, n in rep.with_terms.items() if n}
        # CP2 at weight 7 is the first case where co-Jacobi and Drinfeld
        # receive terms; without it they would pass with nothing checked
        assert reached == set(rep.checked), set(rep.checked) - reached
        T = t_tensor(s3)
        T[(0, 1)] = -T[(0, 1)]
        rep = ibl_relations_check(s3, 5, T=T)
        assert not rep.passed
        assert rep.failures  # explicit witnesses
