import random
from collections import Counter
from fractions import Fraction

import pytest

from cycibl.algebra import check_ainfty, unit_cochain
from cycibl.dibl import (MaurerCartanFamily, canonical_mc, circ1, collection_sign,
                         decompose_arity2, distribution_sign, ibl_relations_check,
                         iota_vol, iota_vol_pairing, mc_reconstruction_check,
                         mu_from_mc, q110, q120, q210, t_tensor,
                         twisted_boundary_vs_bar_dual, twisted_q110, twisted_q120,
                         twisted_q1lg_on_unit)
from cycibl.models import (S1TwistConfig, build_cpn, build_s1_pmc, build_sn,
                           random_cyclic_dga)
from cycibl.words import (CochainTensor, TruncationError, canonical_key,
                          canonical_words, dual_word, pair, product_cochain,
                          rotations, slot_degree)


def wdual(s, letters, bound=None):
    return dual_word(s.basis, letters, slot_shift=s.slot_shift, weight_bound=bound)


# ---------------------------------------------------------------------------
# word-by-word oracles: the product, coproduct and partial-composition
# formulas of the dibl module docstrings, evaluated on one word (or word
# tuple) at a time through eval_tuple
# ---------------------------------------------------------------------------

def _splittings(word, basis):
    """(rotation sign, left half, right half) over every rotation and cut."""
    for rotated, sign in rotations(tuple(word), basis):
        for cut in range(len(word) + 1):
            yield sign, rotated[:cut], rotated[cut:]


def _known(psi, words):
    """psi on a word tuple, or None beyond its truncation bound."""
    try:
        return psi.eval_tuple(words)
    except TruncationError:
        return None


def _times(psi1, words1, psi2, words2):
    """psi1(words1) psi2(words2), zero when either factor is known to vanish.
    An unknown value against a nonzero one means a bound was not honest."""
    x = _known(psi1, words1)
    if x == 0:
        return 0
    y = _known(psi2, words2)
    if y == 0:
        return 0
    assert x is not None and y is not None, "value beyond a truncation bound"
    return x * y


def oracle_product(s, T, psi1, psi2, word):
    """sum T^{ij} eps(w -> w1 w2) (-1)^(|e_j||w1|) psi1(e_i w1) psi2(e_j w2)."""
    deg = s.basis.degrees
    total = Fraction(0)
    for sign, w1, w2 in _splittings(word, s.basis):
        odd = s.basis.word_degree(w1) % 2
        for (i, j), t in T.items():
            val = _times(psi1, ((i,) + w1,), psi2, ((j,) + w2,))
            if val:
                total += sign * t * val * (-1 if odd and deg[j] % 2 else 1)
    return total


def oracle_coproduct(s, T, psi, w1, w2):
    """1/2 sum T^{ij} eps1 eps2 (-1)^(|e_j||w1'|) psi(e_i w1' e_j w2') over
    rotations w1', w2' of the two words, times the sign distributing the two
    suspensions (the stored normalization)."""
    deg = s.basis.degrees
    total = Fraction(0)
    for r1, s1 in rotations(w1, s.basis):
        odd = s.basis.word_degree(r1) % 2
        for r2, s2 in rotations(w2, s.basis):
            for (i, j), t in T.items():
                val = psi.eval_word((i,) + r1 + (j,) + r2)
                if val:
                    sgn = -1 if odd and deg[j] % 2 else 1
                    total += Fraction(1, 2) * s1 * s2 * sgn * t * val
    return distribution_sign(s, (w1, w2)) * total


def oracle_circ1(s, T, entry, psi, words):
    """sum_j sum eps' eps(w_j -> w1 w2) T^{ab} psi(e_a w1) entry(.. (e_b w2) ..)
    with eps' = |e_b|(P + |w1|) + |w1| P, where P is |s| plus the shifted
    degrees of the slots before j."""
    deg = s.basis.degrees
    shift = psi.slot_shift
    total = Fraction(0)
    before = shift
    for j, word in enumerate(words):
        for sign, w1, w2 in _splittings(word, s.basis):
            d1 = s.basis.word_degree(w1)
            for (a, b), t in T.items():
                inner = words[:j] + ((b,) + w2,) + words[j + 1:]
                val = _times(psi, ((a,) + w1,), entry, inner)
                if val:
                    eps = (deg[b] * (before + d1) + d1 * before) % 2
                    total += -sign * t * val if eps else sign * t * val
        before += slot_degree(word, s.basis, shift)
    return total


def _random_cochain(s, rng, top, terms, bound=None):
    """A seeded combination of dual words of weight 1..top."""
    words = [u for w in range(1, top + 1) for u in canonical_words(s.basis, w)]
    psi = CochainTensor(s.basis, 1, s.slot_shift, bound)
    for u in rng.sample(words, min(terms, len(words))):
        psi.add((u,), Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
    return psi


def _random_entry(s, rng, arity, bound, terms):
    """A seeded truncated arity-l entry on tuples of words of weight 1..2."""
    words = [u for w in (1, 2) for u in canonical_words(s.basis, w)]
    entry = CochainTensor(s.basis, arity, s.slot_shift, bound)
    for _ in range(terms):
        tup = tuple(rng.choice(words) for _ in range(arity))
        if sum(map(len, tup)) <= bound:
            entry.add(tup, Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2)))
    return entry


def _assert_product_matches_oracle(s, T, psi1, psi2):
    """q210 against the oracle on every word of a weight it can reach,
    |u| + |v| - 2 for stored words u, v, up to its bound."""
    out = q210(s, psi1, psi2, T=T)
    bound = out.weight_bound
    weights = {len(u) + len(v) - 2 for (u,) in psi1.values for (v,) in psi2.values}
    weights = {w for w in weights if bound is None or w <= bound}
    assert set(out.weights()) <= weights
    for w in weights:
        for u in canonical_words(s.basis, w):
            assert out.eval_word(u) == oracle_product(s, T, psi1, psi2, u), (s.name, u)
    return out


def _assert_circ1_matches_oracle(s, T, entry, psi):
    """circ1 against the oracle on every tuple where it can be nonzero: a
    stored key of the entry with one slot v replaced by any canonical word
    of weight |v| + |u| - 2, u a stored word of psi."""
    out = circ1(s, entry, psi, T=T)
    growth = {len(u) - 2 for (u,) in psi.values}
    candidates = set()
    for key in entry.values:
        for j, v in enumerate(key):
            for d in growth:
                for w in canonical_words(s.basis, len(v) + d):
                    keyed = canonical_key(key[:j] + (w,) + key[j + 1:],
                                          s.basis, s.slot_shift)
                    if keyed is not None:
                        candidates.add(keyed[0])
    assert set(out.values) <= candidates
    bound = out.weight_bound
    for key in candidates:
        if bound is None or sum(map(len, key)) <= bound:
            assert out.eval_tuple(key) == oracle_circ1(s, T, entry, psi, key), key
    return out


def test_t_tensor_sphere():
    for n in (2, 3, 4, 5):
        s = build_sn(n).structure
        assert t_tensor(s) == {(0, 1): Fraction(-1), (1, 0): Fraction(-1)}


def test_t_tensor_projective():
    for n in (1, 2, 3):
        s = build_cpn(n).structure
        T = t_tensor(s)
        expected = {(i, n - i): Fraction(-1) for i in range(n + 1)}
        assert T == expected


def test_t_tensor_covariant_under_label_permutation():
    # permuting the basis labels permutes T accordingly and the product
    # of two dual words transforms to the same values
    s = build_cpn(2).structure
    from cycibl.algebra import CyclicStructure
    from cycibl.signs import GradedBasis
    perm = [2, 0, 1]  # new index of old letter
    inv = [perm.index(i) for i in range(3)]
    basis2 = GradedBasis(tuple(s.basis.labels[i] for i in inv),
                         tuple(s.basis.degrees[i] for i in inv))
    pairing2 = [[s.pairing[inv[a]][inv[b]] for b in range(3)] for a in range(3)]
    mu2 = {tuple(perm[i] for i in key): {perm[o]: c for o, c in val.items()}
           for key, val in s.mu[2].items()}
    s2 = CyclicStructure("perm", basis2, 4, pairing2, {1: {}, 2: mu2},
                         unit=perm[0], augmentation={perm[0]: Fraction(1)})
    T1 = t_tensor(s)
    T2 = t_tensor(s2)
    assert T2 == {(perm[i], perm[j]): v for (i, j), v in T1.items()}
    # contraction results agree: q210 on permuted duals evaluates equally
    psi1 = wdual(s, (0, 1))
    psi2 = wdual(s, (1, 2))
    out1 = q210(s, psi1, psi2)
    p1 = wdual(s2, tuple(perm[i] for i in (0, 1)))
    p2 = wdual(s2, tuple(perm[i] for i in (1, 2)))
    out2 = q210(s2, p1, p2)
    for (u,), v in out1.values.items():
        assert out2.eval_word(tuple(perm[i] for i in u)) == v


def test_mc_filtration_and_values():
    for n in (1, 2, 3):
        s = build_cpn(n).structure
        mc = canonical_mc(s).entry(1, 0)
        assert mc.filtration_degree() == 3
        for i in range(n + 1):
            for j in range(n + 1):
                for k in range(n + 1):
                    expected = Fraction(1 if i + j + k == n else 0)
                    assert mc.eval_word((i, j, k)) == expected, (i, j, k)


def test_mc_sphere_support():
    # nonzero exactly on words with a unit letter whose other letters
    # multiply into a volume pairing
    for n in (2, 3):
        s = build_sn(n).structure
        mc = canonical_mc(s).entry(1, 0)
        sgn = Fraction(-1) ** (n - 2)
        for u in canonical_words(s.basis, 3):
            assert mc.eval_word(u) == sgn * s.mu_plus(2, u)
        assert mc.eval_word((0, 0, 1)) != 0
        assert mc.eval_word((1, 1, 1)) == 0


def test_unit_product_relation_odd_sphere():
    # the only nonzero product against the unit dual: -(k-1) on the next
    # volume power down, for odd spheres
    s = build_sn(3).structure
    one = unit_cochain(s, 1)
    for k in range(2, 9):
        out = q210(s, one, wdual(s, (1,) * k))
        expected = wdual(s, (1,) * (k - 1)).scaled(-(k - 1))
        assert out.equal_values(expected), k
        # and symmetrically with the arguments exchanged
        out2 = q210(s, wdual(s, (1,) * k), one)
        assert out2.equal_values(expected), k


def test_unit_product_relation_even_sphere():
    s = build_sn(2).structure
    one = unit_cochain(s, 1)
    for k in range(1, 9):
        psi = wdual(s, (1,) * k)
        if psi.is_zero():
            continue
        assert q210(s, one, psi).is_zero(), k


def test_volume_products_vanish():
    for n in (2, 3):
        s = build_sn(n).structure
        for k1 in range(1, 4):
            for k2 in range(1, 4):
                p1, p2 = wdual(s, (1,) * k1), wdual(s, (1,) * k2)
                if p1.is_zero() or p2.is_zero():
                    continue
                assert q210(s, p1, p2).is_zero()
        for k in range(1, 6):
            psi = wdual(s, (1,) * k)
            if not psi.is_zero():
                assert q120(s, psi).is_zero()


def test_unit_coproduct_vanishes():
    for bundle in (build_sn(2), build_sn(3), build_cpn(2)):
        s = bundle.structure
        for q in (1, 3, 5):
            psi = unit_cochain(s, q)
            if not psi.is_zero():
                assert q120(s, psi).is_zero()


def test_unit_products_vanish():
    s = build_sn(3).structure
    for q1 in (1, 3):
        for q2 in (1, 3):
            assert q210(s, unit_cochain(s, q1), unit_cochain(s, q2)).is_zero()


def test_unit_relation_via_volume_insertion():
    # the product against the unit dual equals (-1)^(m-2) psi ∘ iota_vol
    for bundle in (build_sn(2), build_sn(3), build_cpn(2)):
        s = bundle.structure
        one = unit_cochain(s, 1)
        sgn = Fraction(-1) ** (s.manifold_dim - 2)
        for w in range(1, 5):
            for u in canonical_words(s.basis, w):
                if s.unit in u:
                    continue
                psi = wdual(s, u)
                out = q210(s, one, psi)
                for w2 in range(1, w):
                    for v in canonical_words(s.basis, w2):
                        if s.unit in v:
                            continue
                        expected = sgn * iota_vol_pairing(s, psi, (v,))
                        assert out.eval_word(v) == expected, (u, v)


def test_iota_vol_counts_insertions():
    s = build_sn(3).structure
    terms = iota_vol(s, (1, 1))
    acc = {}
    for w, c in terms:
        acc[w] = acc.get(w, Fraction(0)) + c
    assert acc == {(1, 1, 1): Fraction(2)}
    assert s.basis.degrees[1] == s.manifold_dim - 1  # |vol| = m - 1


def test_coproduct_value_matches_brute_force():
    # q120 against the brute-force oracle on every ordered pair of words of
    # each weight it can reach: dual words of weight 4..6 (4 on the random
    # algebra) and seeded general cochains truncated at that weight
    rng = random.Random(5)
    for s, top in ((build_sn(3).structure, 6), (build_cpn(2).structure, 6),
                   (random_cyclic_dga(6, seed=3), 4)):
        T = t_tensor(s)
        psis = [wdual(s, u) for w in range(4, top + 1)
                for u in canonical_words(s.basis, w)]
        psis += [_random_cochain(s, rng, top, 6, bound=top) for _ in range(4)]
        for psi in psis:
            out = q120(s, psi, T=T)
            weights = {len(u) - 2 for (u,) in psi.values if len(u) >= 4}
            assert set(out.weights()) <= weights
            for total in weights:
                for w1 in range(1, total):
                    for a in canonical_words(s.basis, w1):
                        for b in canonical_words(s.basis, total - w1):
                            want = oracle_coproduct(s, T, psi, a, b)
                            assert out.eval_tuple((a, b)) == want, (s.name, a, b)


def test_q110_zero_for_harmonic_models():
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        psi = wdual(s, (1, 1))
        assert q110(s, psi).is_zero()


def test_q110_two_line_complex():
    s = random_cyclic_dga(6, seed=1)
    # find an acyclic generator pair a -> b
    src = next(i for i in range(len(s.basis)) if s.mu_apply(1, (i,)))
    img = next(iter(s.mu_apply(1, (src,))))
    psi = wdual(s, (img,))
    out = q110(s, psi)
    coeff = s.mu_apply(1, (src,))[img]
    assert out.eval_word((src,)) == coeff
    # squares to zero on random cochains
    for u in canonical_words(s.basis, 3):
        p = wdual(s, u)
        assert q110(s, q110(s, p)).is_zero()


def test_shifted_symmetry_of_product():
    # in distributed-suspension form the product is symmetric: swapping the
    # arguments costs exactly the shifted Koszul sign
    from cycibl.dibl import collection_sign
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        words = [u for w in (1, 2, 3) for u in canonical_words(s.basis, w)]
        for u1 in words[:6]:
            for u2 in words[:6]:
                psi1, psi2 = wdual(s, u1), wdual(s, u2)
                a = q210(s, psi1, psi2).scaled(collection_sign(s, psi1))
                b = q210(s, psi2, psi1).scaled(collection_sign(s, psi2))
                d1 = (s.basis.word_degree(u1) + s.slot_shift) % 2
                d2 = (s.basis.word_degree(u2) + s.slot_shift) % 2
                sgn = -1 if (d1 * d2) % 2 else 1
                assert a.equal_values(b.scaled(sgn)), (u1, u2)


def test_coproduct_flip_consistency():
    # stored coproduct values agree with the direct formula in both orders
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        T = t_tensor(s)
        for w in range(2, 6):
            for u in canonical_words(s.basis, w):
                psi = wdual(s, u)
                out = q120(s, psi)
                for (a, b), v in list(out.values.items()):
                    assert v == oracle_coproduct(s, T, psi, a, b), (u, a, b)
                    direct = oracle_coproduct(s, T, psi, b, a)
                    assert out.eval_tuple((b, a)) == direct, (u, a, b)


def test_unit_relation_flip_sign():
    # q210(unit*, psi) = (-1)^((m-2)|Psi|) q210(psi, unit*) in shifted degree
    s = build_sn(3).structure
    one = unit_cochain(s, 1)
    for k in (2, 3, 4):
        psi = wdual(s, (1,) * k)
        a = q210(s, one, psi)
        b = q210(s, psi, one)
        shifted = (s.basis.word_degree((1,) * k) + s.slot_shift) % 2
        sgn = -1 if ((s.manifold_dim - 2) * shifted) % 2 else 1
        assert a.equal_values(b.scaled(sgn))


def test_circ1_routes_agree():
    # circ1 against the word-by-word oracle: on the canonical (1,0) entry,
    # where it also equals the distributed ordered product; on the circle's
    # (2,0) entries, whose equal slots need the slot-count factor; and on
    # seeded truncated entries of arity 2 and 3
    structures = (build_sn(3).structure, build_cpn(2).structure,
                  random_cyclic_dga(6, seed=3))
    for s in structures:
        T = t_tensor(s)
        e10 = canonical_mc(s).entry(1, 0)
        top = 4 if len(s.basis) < 6 else 2
        for w in range(1, top + 1):
            for u in canonical_words(s.basis, w):
                psi = wdual(s, u)
                via_q210 = q210(s, e10, psi).scaled(collection_sign(s, e10))
                via_circ1 = _assert_circ1_matches_oracle(s, T, e10, psi)
                assert via_q210.equal_values(via_circ1), u
    s1 = build_sn(1).structure
    T = t_tensor(s1)
    psis = [wdual(s1, u) for w in range(1, 4) for u in canonical_words(s1.basis, w)]
    for seed in (0, 1):
        cfg = S1TwistConfig.random(random.Random(seed), top=12)
        e20 = build_s1_pmc(cfg, weight_bound=6).entry(2, 0)
        for psi in psis + [unit_cochain(s1, 3)]:
            _assert_circ1_matches_oracle(s1, T, e20, psi)
    rng = random.Random(7)
    for s in structures:
        T = t_tensor(s)
        for arity in (2, 3):
            for _ in range(4):
                entry = _random_entry(s, rng, arity, rng.randint(arity + 1, 2 * arity), 5)
                psi = _random_cochain(s, rng, 3, 4, bound=rng.choice((None, 3, 4)))
                _assert_circ1_matches_oracle(s, T, entry, psi)


def test_twisted_boundary_matches_bar_dual():
    # the twisted boundary equals the dual bar differential of the induced
    # family, exactly, on every canonical word of weight <= 6
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        mc = canonical_mc(s)
        for w in range(1, 7):
            for u in canonical_words(s.basis, w):
                psi = wdual(s, u)
                left, right = twisted_boundary_vs_bar_dual(s, mc, psi)
                assert left.equal_values(right), (s.name, u)


def test_twisted_boundary_squares_to_zero():
    for bundle in (build_sn(2), build_cpn(2)):
        s = bundle.structure
        mc = canonical_mc(s)
        for w in range(1, 6):
            for u in canonical_words(s.basis, w):
                psi = wdual(s, u)
                assert twisted_q110(s, mc, twisted_q110(s, mc, psi)).is_zero()


def test_volume_duals_are_twisted_cycles():
    s = build_sn(3).structure
    mc = canonical_mc(s)
    for k in range(1, 7):
        assert twisted_q110(s, mc, wdual(s, (1,) * k)).is_zero()


def test_mu_from_mc_recovers_product():
    for bundle in (build_sn(3), build_sn(2), build_cpn(2)):
        s = bundle.structure
        mc = canonical_mc(s)
        twisted = mu_from_mc(s, mc.entry(1, 0), 5)
        assert twisted.mu.get(1, {}) == s.mu.get(1, {})
        for key, val in s.mu[2].items():
            assert twisted.mu_apply(2, key) == val, key
        for key, val in twisted.mu.get(2, {}).items():
            assert s.mu_apply(2, key) == val, key
        assert not twisted.mu.get(3)
        assert not twisted.mu.get(4)
        assert mc_reconstruction_check(s, mc.entry(1, 0), twisted, 5)
        assert check_ainfty(twisted, 5).passed


def test_twisted_q120_untwisted_when_entry_missing():
    s = build_sn(2).structure
    mc = canonical_mc(s)
    psi = wdual(s, (1, 1, 1))
    assert twisted_q120(s, mc, psi).equal_values(q120(s, psi))


def test_twisted_q1lg_on_unit_reproduces_relation():
    # route through the volume-insertion formula for l = 1
    s = build_sn(3).structure
    mc = canonical_mc(s)
    out = twisted_q1lg_on_unit(s, mc, 1, 0)
    # q110^mc(unit*) = q210(mc10, unit*); compare against -mc ∘ iota_vol
    lhs = q210(s, mc.entry(1, 0), unit_cochain(s, 1))
    assert lhs.equal_values(out)


def test_decompose_arity2_reconstructs_coproduct():
    # the coefficients rebuild the tensor from symmetric products of duals
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        for w in range(4, 7):
            for u in canonical_words(s.basis, w):
                phi = q120(s, wdual(s, u))
                rebuilt = CochainTensor(s.basis, 2, s.slot_shift)
                for c, a, b in decompose_arity2(phi):
                    rebuilt += product_cochain([wdual(s, a), wdual(s, b)]).scaled(c)
                assert rebuilt.equal_values(phi), u


def test_ibl_relations_pass_and_mutation_fails():
    s3 = build_sn(3).structure
    assert ibl_relations_check(s3, 5).passed
    cp2 = build_cpn(2).structure
    assert ibl_relations_check(cp2, 4).passed
    # flipping the sign of one T entry must break Jacobi or a sibling
    T = t_tensor(s3)
    T[(0, 1)] = -T[(0, 1)]
    rep = ibl_relations_check(s3, 5, T=T)
    assert not rep.passed
    counts = Counter(name for name, _ in rep.failures)
    assert counts == {"Jacobi": 12, "involutivity": 4}


def test_relation_report_counts_instances():
    s = build_sn(3).structure
    empty = ibl_relations_check(s, 0)
    assert empty.passed and not any(empty.checked.values())
    assert "all relations hold" not in empty.summary()
    rep = ibl_relations_check(s, 5)
    gens = [u for w in range(1, 6) for u in canonical_words(s.basis, w)]
    pairs = sum(1 for a in gens for b in gens if len(a) + len(b) <= 5)
    triples = sum(1 for a in gens for b in gens for c in gens
                  if len(a) + len(b) + len(c) <= 5)
    assert rep.checked == {
        "boundary squared": len(gens), "coproduct coderivation": len(gens),
        "involutivity": len(gens), "product derivation": pairs,
        "Jacobi": triples, "co-Jacobi": len(gens),
        "Drinfeld compatibility": pairs}
    assert rep.summary().startswith("all relations hold")
    assert f"Jacobi {triples}" in rep.summary()


def test_dual_word_product_matches_word_by_word_evaluation():
    # q210 against the word-by-word oracle: on pairs of dual words, on
    # seeded general cochains truncated at bounds 2..6 or not at all, and on
    # the criterion-9 pushforward (1,0) entry against every dual word
    rng = random.Random(11)
    for s in (build_sn(3).structure, build_cpn(2).structure,
              random_cyclic_dga(6, seed=3)):
        T = t_tensor(s)
        words = [u for w in (1, 2, 3) for u in canonical_words(s.basis, w)]
        for u1 in words[:12]:
            for u2 in words[::3]:
                _assert_product_matches_oracle(s, T, wdual(s, u1), wdual(s, u2))
        # the 6-letter algebra at low weight only, where the oracle is quick
        small = len(s.basis) >= 6
        top = 2 if small else 3
        for b1 in ((None, 2, 3) if small else (None, 2, 3, 4, 5, 6)):
            for b2 in (None, 2, 4, 6):
                psi1 = _random_cochain(s, rng, min(top, b1 or top), 4, b1)
                psi2 = _random_cochain(s, rng, min(top, b2 or top), 4, b2)
                out = _assert_product_matches_oracle(s, T, psi1, psi2)
                assert (out.weight_bound is None) == (b1 is None and b2 is None)
        # and a general cochain expands bilinearly over its dual words
        psi = wdual(s, words[1]) + wdual(s, words[4]).scaled(3)
        total = q210(s, psi, wdual(s, words[2]))
        parts = q210(s, wdual(s, words[1]), wdual(s, words[2])) + \
            q210(s, wdual(s, words[4]), wdual(s, words[2])).scaled(3)
        assert total.equal_values(parts)
    from cycibl.green import green_pipeline, harmonic_substructure, schwartz_kernel
    from cycibl.ribbon import pushforward_mc
    s = random_cyclic_dga(6, seed=3)
    g, _, _ = green_pipeline(s)
    harm = harmonic_substructure(s, [0, 1])
    e10 = pushforward_mc(s, harm, schwartz_kernel(s, g).entries, weight_bound=6,
                         l_bound=1).entry(1, 0)
    assert e10.weight_bound == 6
    T = t_tensor(harm)
    for w in range(1, 7):
        for u in canonical_words(harm.basis, w):
            psi = dual_word(harm.basis, u, slot_shift=harm.slot_shift)
            _assert_product_matches_oracle(harm, T, e10, psi)
