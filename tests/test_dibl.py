import inspect
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from cycibl import dibl
from cycibl.algebra import check_ainfty, dual_b, hochschild_b_cyclic, unit_cochain
from cycibl.dibl import (MaurerCartanFamily, _relation_report, canonical_mc, circ1,
                         distribution_sign, ibl_relations_check, mu_from_mc,
                         q110, q120, q210, t_tensor, twisted_boundary_vs_bar_dual,
                         twisted_q110, twisted_q120, twisted_q1lg_on_unit)
from cycibl.homology import cochain_homology
from cycibl.models import build_cpn, build_s1_pmc, build_sn, random_cyclic_dga
from cycibl.signs import GradedBasis
from cycibl.words import (CochainTensor, TruncationError, canonical_key,
                          canonical_tuples, canonical_words, canonicalize,
                          dual_word, product_cochain, rotations, slot_degree)
from helpers import (as_fractions, collection_sign, mu_plus, oracle_dual_basis, pair,
                     product_twisted_q110, random_s1_config, scaled)


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


def volume_vector(s):
    """The unique vector with P(unit, vol) = 1 and vol ⟂ the augmentation
    kernel: the dual of the unit letter."""
    return as_fractions(s.dual_basis())[s.unit]


def iota_vol(s, letters):
    """Signed insertion of the volume letter at every position of a word."""
    vol = volume_vector(s)
    deg = s.basis.degrees
    out = []
    for i in range(len(letters)):
        pre = sum(deg[x] for x in letters[:i])
        for v, c in vol.items():
            sg = -1 if (deg[v] % 2) and (pre % 2) else 1
            out.append((tuple(letters[:i]) + (v,) + tuple(letters[i:]), sg * c))
    return out


def iota_vol_pairing(s, psi, words):
    """psi ∘ (volume insertion) on a tuple of words: slot j enters with the
    sign (-1)^(|vol| (|W_1| + ... + |W_{j-1}| + |s|)) in shifted slot
    degrees."""
    (vdeg,) = {s.basis.degrees[i] % 2 for i in volume_vector(s)}
    total = Fraction(0)
    for j in range(len(words)):
        pre = sum(slot_degree(w, s.basis, psi.slot_shift) for w in words[:j])
        outer = -1 if vdeg and (pre + psi.slot_shift) % 2 else 1
        for ins, c in iota_vol(s, words[j]):
            total += outer * c * psi.eval_tuple(words[:j] + (ins,) + words[j + 1:])
    return total


def oracle_mu_from_mc(s, entry, max_arity):
    """The induced family by scanning every letter tuple v of arity 2..max:
    mu_k(v) = (-1)^(m-3) sum T^{ij} entry(e_i v) e_j, as nonzero tables."""
    T = t_tensor(s)
    sgn = -1 if (s.manifold_dim - 3) % 2 else 1
    mu = {}
    for k in range(2, max_arity + 1):
        for letters in iproduct(range(len(s.basis)), repeat=k):
            img = {}
            for (i, j), t in T.items():
                c = entry.eval_word((i,) + letters)
                if c:
                    img[j] = img.get(j, 0) + sgn * t * c
            img = {o: c for o, c in img.items() if c}
            if img:
                mu.setdefault(k, {})[letters] = img
    return mu


def mc_reconstruction_check(s, pmc10, twisted, max_weight):
    """The one-output entry equals (-1)^(m-2) * sum of the family's paired
    operations, on all words up to the given weight."""
    sgn = Fraction(-1) ** (s.manifold_dim - 2)
    for w in range(1, max_weight + 1):
        for u in canonical_words(s.basis, w):
            total = Fraction(0)
            for k in twisted.arities():
                if k >= 2 and k + 1 == w:
                    total += mu_plus(twisted, k, u)
            if pmc10.eval_word(u) != sgn * total:
                return False
    return True


def oracle_dual_b(s, psi):
    """psi ∘ b on one word through eval_word, which fails on a term beyond
    psi's bound; and the arities of the operations in b."""
    def value(u):
        return sum(c * psi.eval_word(v) for v, c in hochschild_b_cyclic(s, u).items())
    return value, s.arities()


def oracle_q110(s, psi):
    """The differential inserted letterwise with Koszul prefixes, on one word
    through eval_word; and its arity."""
    deg = s.basis.degrees

    def value(u):
        val = Fraction(0)
        for pos in range(len(u)):
            sgn = -1 if sum(deg[x] for x in u[:pos]) % 2 else 1
            for o, c in s.mu_apply(1, (u[pos],)).items():
                val += sgn * c * psi.eval_word(u[:pos] + (o,) + u[pos + 1:])
        return val
    return value, [1]


def _sweep(s, weights, value):
    """Nonzero ``value(u)`` on every canonical word u of the given weights."""
    out = {}
    for w in weights:
        for u in canonical_words(s.basis, w):
            val = value(u)
            if val:
                out[(u,)] = val
    return out


def _assert_matches_oracle(s, psi, op, oracle):
    """op(s, psi) against the oracle on every canonical word up to the top
    weight it can reach.  Under a truncation bound W that is W + (least
    arity) - 1, which must be op's bound, and tight: a word one weight above
    needs a value beyond W.  Otherwise it is the top stored weight plus the
    largest arity minus one."""
    value, arities = oracle(s, psi)
    out = op(s, psi)
    if psi.weight_bound is None:
        top = max(psi.weights(), default=0) + max(arities, default=1) - 1
        assert out.weight_bound is None
    else:
        top = psi.weight_bound + min(arities, default=1) - 1
        assert out.weight_bound == top, (s.name, psi.weight_bound)
        with pytest.raises(TruncationError):
            _sweep(s, [top + 1], value)
    assert out.values == _sweep(s, range(1, top + 1), value), (s.name, psi)


def _seeded_entry(s, rng, weights, terms=3):
    """The canonical (1,0) entry plus seeded values of its degree at the
    given weights."""
    entry = scaled(canonical_mc(s).entry(1, 0), 1)
    d = entry.degree()
    for w in weights:
        words = [u for u in canonical_words(s.basis, w)
                 if s.basis.word_degree(u) == d]
        for u in rng.sample(words, min(terms, len(words))):
            entry.add((u,), Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3)))
    return entry


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
    out = q210(s, psi1, psi2)
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
    out = circ1(s, entry, psi)
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


@pytest.fixture(scope="module")
def pushforward():
    """The criterion-9 transfer: the harmonic part of a random 6-letter
    algebra and the (1,0) entry pushed to it, truncated at weight 6."""
    from cycibl.green import green_pipeline, harmonic_substructure, schwartz_kernel
    from cycibl.ribbon import pushforward_mc
    s = random_cyclic_dga(6, seed=3)
    g, _, _ = green_pipeline(s)
    harm = harmonic_substructure(s, [0, 1])
    e10 = pushforward_mc(s, harm, schwartz_kernel(s, g).entries, weight_bound=6,
                         l_bound=1).entry(1, 0)
    assert e10.weight_bound == 6
    return harm, e10


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


def test_t_tensor_is_the_signed_pairing_of_dual_basis_vectors():
    # T^{ij} = (-1)^|e_i| P(e^i, e^j), evaluated through the pairing
    structures = [build_sn(n).structure for n in range(1, 6)]
    structures += [build_cpn(n).structure for n in range(1, 5)]
    structures += [random_cyclic_dga(d, seed=seed) for d in (6, 10) for seed in range(3)]
    for s in structures:
        dual = oracle_dual_basis(s)
        n = len(s.basis)
        want = {(i, j): (-1 if s.basis.degrees[i] % 2 else 1)
                * pair(s, dual[i], dual[j]) for i in range(n) for j in range(n)}
        assert t_tensor(s) == {k: v for k, v in want.items() if v}, s.name


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
    # multiply into a volume pairing; on every letter triple, not only the
    # canonical words, the entry is (-1)^(m-2) m2+, the pushforward vertex
    for n in (2, 3):
        s = build_sn(n).structure
        mc = canonical_mc(s).entry(1, 0)
        sgn = Fraction(-1) ** (n - 2)
        for u in iproduct(range(len(s.basis)), repeat=3):
            assert mc.eval_word(u) == sgn * mu_plus(s, 2, u)
        assert mc.eval_word((0, 0, 1)) != 0
        assert mc.eval_word((1, 1, 1)) == 0


def test_mc_entry_is_signed_mu_plus_on_every_triple():
    # the same on the structures whose pushforwards the tests and the
    # benchmark run, where m2+ is cyclic (check_cyclic_dga passes)
    structures = [build_cpn(n).structure for n in (1, 2, 3)]
    structures += [random_cyclic_dga(6, seed=seed) for seed in range(4)]
    for s in structures:
        mc = canonical_mc(s).entry(1, 0)
        sgn = Fraction(-1) ** (s.manifold_dim - 2)
        nonzero = 0
        for u in iproduct(range(len(s.basis)), repeat=3):
            assert mc.eval_word(u) == sgn * mu_plus(s, 2, u), (s.name, u)
            nonzero += bool(mu_plus(s, 2, u))
        assert nonzero, s.name


def test_unit_product_relation_odd_sphere():
    # the only nonzero product against the unit dual: -(k-1) on the next
    # volume power down, for odd spheres
    s = build_sn(3).structure
    one = unit_cochain(s, 1)
    for k in range(2, 9):
        out = q210(s, one, wdual(s, (1,) * k))
        expected = scaled(wdual(s, (1,) * (k - 1)), -(k - 1))
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
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        words = [u for w in (1, 2, 3) for u in canonical_words(s.basis, w)]
        for u1 in words[:6]:
            for u2 in words[:6]:
                psi1, psi2 = wdual(s, u1), wdual(s, u2)
                a = scaled(q210(s, psi1, psi2), collection_sign(s, psi1))
                b = scaled(q210(s, psi2, psi1), collection_sign(s, psi2))
                d1 = (s.basis.word_degree(u1) + s.slot_shift) % 2
                d2 = (s.basis.word_degree(u2) + s.slot_shift) % 2
                sgn = -1 if (d1 * d2) % 2 else 1
                assert a.equal_values(scaled(b, sgn)), (u1, u2)


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
        assert a.equal_values(scaled(b, sgn))


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
                via_q210 = scaled(q210(s, e10, psi), collection_sign(s, e10))
                via_circ1 = _assert_circ1_matches_oracle(s, T, e10, psi)
                assert via_q210.equal_values(via_circ1), u
    s1 = build_sn(1).structure
    T = t_tensor(s1)
    psis = [wdual(s1, u) for w in range(1, 4) for u in canonical_words(s1.basis, w)]
    for seed in (0, 1):
        cfg = random_s1_config(random.Random(seed), top=12)
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


def test_twisted_boundary_is_the_product_route(pushforward):
    # twisted_q110 composes the (1,0) entry by circ1; the oracle takes the
    # distributed ordered product with it: equal values and bounds on the
    # canonical entries, seeded entries with values at weights 4..6 cut
    # down to 3, 4 and 6, truncated cochains, and the transfer's harmonic
    # families at weight 6 (the criterion-9 one and two more seeds)
    from cycibl.green import green_pipeline, harmonic_substructure, schwartz_kernel
    from cycibl.ribbon import pushforward_mc
    rng = random.Random(31)
    cases = []
    for s in (build_sn(3).structure, build_cpn(2).structure,
              random_cyclic_dga(6, seed=3)):
        cases.append((s, canonical_mc(s).entry(1, 0)))
        seeded = _seeded_entry(s, rng, (4, 5, 6))
        cases += [(s, seeded)] + [(s, seeded.restricted(w)) for w in (3, 4, 6)]
    cases.append(pushforward)
    for seed in (0, 1):
        s = random_cyclic_dga(6, seed=seed)
        g, _, _ = green_pipeline(s)
        harm = harmonic_substructure(s, [0, 1])
        cases.append((harm, pushforward_mc(s, harm, schwartz_kernel(s, g).entries,
                                           weight_bound=6, l_bound=1).entry(1, 0)))
    reached = 0
    for s, e10 in cases:
        pmc = MaurerCartanFamily(s, {(1, 0): e10})
        top = 4 if len(s.basis) < 6 else 3
        psis = [wdual(s, u) for w in range(1, top + 1)
                for u in canonical_words(s.basis, w)]
        psis += [_random_cochain(s, rng, top, 4, bound=b) for b in (None, 3, 4)]
        for psi in psis:
            got, want = twisted_q110(s, pmc, psi), product_twisted_q110(s, pmc, psi)
            assert got.weight_bound == want.weight_bound
            assert got.values == want.values
            reached += not got.is_zero()
    assert reached > 50, reached


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


@pytest.mark.parametrize("heavy", [False, True])
def test_twisted_boundary_matches_bar_dual_beyond_arity_two(heavy):
    # entries with values above weight three induce mu_k with k >= 3, whose
    # terms reach weight |psi| + k - 1: three seeded weight-4 values (mu_3),
    # or one weight-8 value (mu_7)
    s = random_cyclic_dga(6, seed=0)
    rng = random.Random(0)
    if heavy:
        entry = scaled(canonical_mc(s).entry(1, 0), 1)
        while True:
            u = tuple(rng.randrange(len(s.basis)) for _ in range(8))
            if s.basis.word_degree(u) == entry.degree() and canonicalize(u, s.basis)[0]:
                break
        entry.add((u,), 2)
    else:
        entry = _seeded_entry(s, rng, (4,))
    fam = MaurerCartanFamily(s, {(1, 0): entry})
    reached = 0
    for w in (1, 2, 3):
        for u in canonical_words(s.basis, w):
            left, right = twisted_boundary_vs_bar_dual(s, fam, wdual(s, u))
            assert left.equal_values(right), u
            reached = max(reached, *right.weights(), 0)
    assert reached == (9 if heavy else 5)


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


def test_mu_from_mc_matches_letter_tuple_scan(pushforward):
    # the stored-word family against the scan of every letter tuple, on the
    # canonical entries, the criterion-9 pushforward entry, and seeded
    # entries with values at weights 4..6, for the arities the scan affords
    rng = random.Random(23)
    cases = [(b.structure, None) for b in (build_sn(2), build_sn(3), build_cpn(2),
                                           build_cpn(3))]
    cases += [(random_cyclic_dga(6, seed=0), None),
              (random_cyclic_dga(8, seed=1), None), pushforward]
    for s in (build_sn(3).structure, build_cpn(2).structure,
              random_cyclic_dga(6, seed=0)):
        entry = _seeded_entry(s, rng, (4, 5, 6))
        assert max(entry.weights()) > 3
        cases.append((s, entry))
    for s, entry in cases:
        entry = canonical_mc(s).entry(1, 0) if entry is None else entry
        for k in (2, 3, 5):
            if len(s.basis) ** k > 10 ** 4:
                continue
            twisted = mu_from_mc(s, entry, k)
            assert twisted.mu[1] == s.mu.get(1, {})
            got = {a: table for a, table in twisted.mu.items() if a > 1 and table}
            assert got == oracle_mu_from_mc(s, entry, k), (s.name, k)
    # mu_6 needs the truncated pushforward entry at weight 7
    with pytest.raises(TruncationError):
        mu_from_mc(*pushforward, 6)


def test_dual_b_and_q110_match_word_by_word_evaluation():
    # dual_b on structures whose least arity is 1 (a dg algebra and a family
    # with mu_3 over it) or 2 (spheres and projective planes, a family with
    # mu_5), and q110 on algebras with a differential, against word-by-word
    # evaluation on truncated and untruncated cochains
    rng = random.Random(29)
    r6 = random_cyclic_dga(6, seed=0)
    s3 = build_sn(3).structure
    for s in (r6, mu_from_mc(r6, _seeded_entry(r6, rng, (4,)), 3), s3,
              mu_from_mc(s3, _seeded_entry(s3, rng, (6,)), 5), build_cpn(2).structure):
        for bound in (None, 2, 3):
            psi = _random_cochain(s, rng, bound or 3, 4, bound)
            _assert_matches_oracle(s, psi, dual_b, oracle_dual_b)
    for s in (r6, random_cyclic_dga(6, seed=1), random_cyclic_dga(8, seed=1)):
        for bound in (None, 2, 3):
            psi = _random_cochain(s, rng, bound or 3, 4, bound)
            _assert_matches_oracle(s, psi, q110, oracle_q110)


def test_twisted_q120_untwisted_when_entry_missing():
    s = build_sn(2).structure
    mc = canonical_mc(s)
    psi = wdual(s, (1, 1, 1))
    assert twisted_q120(s, mc, psi).equal_values(q120(s, psi))


def _reduced_entry(s, rng, arity, bound, terms):
    """A seeded arity-l entry on canonical tuples of total weight up to 4
    (5 for arity 3) that avoid the unit letter, as a strictly reduced
    family needs."""
    keys = [key for total in range(arity + 1, 5 + (arity == 3))
            for key in canonical_tuples(s.basis, s.slot_shift, total, arity)
            if not any(s.unit in w for w in key)]
    entry = CochainTensor(s.basis, arity, s.slot_shift, bound)
    for key in rng.sample(keys, min(terms, len(keys))):
        entry.add(key, Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2)))
    return entry


def test_twisted_q1lg_on_unit_matches_volume_insertion():
    # -(entry ∘ iota_vol) on every tuple the output can reach, for random
    # strictly reduced (1,1), (2,0) and (3,0) entries, m = 1, 3, 4, 6 and
    # the random models with m = 3, 2, 4
    structures = [build_sn(1).structure, build_sn(3).structure,
                  build_cpn(2).structure, build_cpn(3).structure]
    structures += [random_cyclic_dga(6, seed=seed) for seed in (0, 1, 5)]
    assert sorted({s.manifold_dim for s in structures}) == [1, 2, 3, 4, 6]
    for s in structures:
        rng = random.Random(s.name)
        nonzero = 0
        for l, g in ((1, 1), (2, 0), (3, 0)):
            for bound in (None, 5):
                entry = _reduced_entry(s, rng, l, bound, 6)
                pmc = MaurerCartanFamily(s, {(l, g): entry})
                out = twisted_q1lg_on_unit(s, pmc, l, g)
                assert out.weight_bound == (None if bound is None else bound - 1)
                top = max(entry.weights()) - 1
                for total in range(l, top + 1):
                    for key in canonical_tuples(s.basis, s.slot_shift,
                                                   total, l):
                        want = -iota_vol_pairing(s, entry, key)
                        assert out.eval_tuple(key) == want, (s.name, l, key)
                assert set(out.weights()) <= set(range(l, top + 1))
                nonzero += len(out.values)
        assert nonzero, s.name
    s = build_sn(3).structure
    with pytest.raises(ValueError, match="no unit"):
        twisted_q1lg_on_unit(s.replace(unit=None), canonical_mc(s), 1, 0)


def decompose_arity2(phi):
    """Write an arity-2 tensor as a combination of products of dual words:
    (coefficient, first word, second word) per stored value.  The product
    of the duals of a and b has value 1/2 on (a, b) for distinct words and
    1 for a repeated one."""
    return [(v if a == b else 2 * v, a, b) for (a, b), v in phi.values.items()]


def test_decompose_arity2_reconstructs_coproduct():
    # the coefficients rebuild the tensor from symmetric products of duals
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        for w in range(4, 7):
            for u in canonical_words(s.basis, w):
                phi = q120(s, wdual(s, u))
                rebuilt = CochainTensor(s.basis, 2, s.slot_shift)
                for c, a, b in decompose_arity2(phi):
                    rebuilt += scaled(product_cochain([wdual(s, a), wdual(s, b)]), c)
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


def test_t_tensor_is_computed_once_and_returned_fresh():
    # callers mutate the returned T (mutation tests): the memo must not see it
    s = random_cyclic_dga(6, seed=1)
    first = t_tensor(s)
    want = dict(first)
    first[(0, 1)] = -first[(0, 1)]
    del first[(1, 0)]
    first[(2, 2)] = Fraction(7)
    assert t_tensor(s) == want
    assert t_tensor(s) is not t_tensor(s)
    assert t_tensor(mu_from_mc(s, canonical_mc(s).entry(1, 0), 2)) == want


# ---------------------------------------------------------------------------
# the relation suite against rational per-generator tables, and the
# mutants that each relation can catch
# ---------------------------------------------------------------------------

def oracle_relation_report(s, max_weight, T=None):
    """The relation suite on rational tables built one generator at a time:
    q110 and the decomposed q120 of every dual word, and T itself."""
    T = t_tensor(s) if T is None else T
    by_weight = {w: list(canonical_words(s.basis, w)) for w in range(1, max_weight + 1)}
    dual = {u: wdual(s, u) for words in by_weight.values() for u in words}
    bdry = {u: {w: c for (w,), c in q110(s, psi).items()} for u, psi in dual.items()}
    cop = {u: decompose_arity2(q120(s, psi, T=T)) for u, psi in dual.items()}
    return _relation_report(s, T, by_weight, bdry, cop)


def _t_mutants(s, weight, change):
    """(s, weight, T) with one entry of T changed; a new value 0 deletes it."""
    for key in sorted(t_tensor(s)):
        T = t_tensor(s)
        T[key] = change(T[key])
        yield s, weight, {k: t for k, t in T.items() if t}


def _mu1_mutant(s, letter, out, change):
    """s with the coefficient of e_out in mu_1(e_letter) changed."""
    mu1 = {key: dict(img) for key, img in s.mu.get(1, {}).items()}
    img = mu1.setdefault((letter,), {})
    img[out] = change(img.get(out, Fraction(0)))
    return s.replace(mu={**s.mu, 1: mu1})


# the data mutant families: one entry of T changed (to 0: deleted)
T_CHANGES = {"T flipped": lambda t: -t, "T doubled": lambda t: 2 * t,
             "T deleted": lambda t: 0, "T scaled by 1/3": lambda t: t / 3}

RELATIONS = ("boundary squared", "coproduct coderivation", "involutivity",
             "product derivation", "Jacobi", "co-Jacobi", "Drinfeld compatibility")


@pytest.fixture(scope="module")
def relation_cases():
    """Mutant family -> (structure, weight, T) cases, with the unmutated
    models as the family "none".  The 6-letter algebra r0 has mu_1 with
    e_2 -> e_3 and e_4 -> e_5; the added e_5 -> e_2 makes mu_1 square to
    e_4 -> e_2."""
    s3, cp2 = build_sn(3).structure, build_cpn(2).structure
    r0 = random_cyclic_dga(6, seed=0)
    plain = [(build_sn(2).structure, 5), (s3, 5), (cp2, 4), (build_cpn(3).structure, 4)]
    plain += [(random_cyclic_dga(6, seed=seed), 4) for seed in range(4)]

    def t_family(change, s3_weight):
        return [*_t_mutants(s3, s3_weight, change), *_t_mutants(cp2, 4, change),
                *_t_mutants(r0, 4, change)]

    return {
        "none": [(s, w, None) for s, w in plain],
        **{family: t_family(change, 6 if family == "T flipped" else 5)
           for family, change in T_CHANGES.items()},
        "mu_1 scaled": [(_mu1_mutant(r0, 2, 3, lambda c: 2 * c), 4, None),
                        (_mu1_mutant(r0, 4, 5, lambda c: c / 2), 4, None)],
        "mu_1 added": [(_mu1_mutant(r0, 5, 2, lambda c: Fraction(1)), 3, None)],
    }


@pytest.fixture(scope="module")
def relation_reports(relation_cases):
    """Mutant family -> the library's reports on its cases, and every value
    of the tables those reports were computed from."""
    seen = []

    def spy(s, T, by_weight, bdry, cop):
        seen.extend(T.values())
        seen.extend(c for vec in bdry.values() for c in vec.values())
        seen.extend(c for terms in cop.values() for c, _, _ in terms)
        return _relation_report(s, T, by_weight, bdry, cop)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dibl, "_relation_report", spy)
        reports = {family: [ibl_relations_check(s, w, T=T) for s, w, T in cases]
                   for family, cases in relation_cases.items()}
    return reports, seen


def test_integer_relation_suite_matches_rational_tables(relation_cases,
                                                        relation_reports):
    # every report (pass, failures in order, counts) equals the one on the
    # rational per-generator tables, and the library's tables are all ints
    reports, seen = relation_reports
    for family, cases in relation_cases.items():
        for (s, w, T), got in zip(cases, reports[family]):
            want = oracle_relation_report(s, w, T)
            assert got == want, (family, s.name, w, T)
    assert seen and {type(c) for c in seen} == {int}
    assert any(not r.passed for r in reports["T scaled by 1/3"])


def _crossing_sign_dropped():
    """``dual_word_coproduct`` without the sign of the cut letter e_{x_p}
    crossing the first half w1, rebuilt from the library's source."""
    source = inspect.getsource(dibl.dual_word_coproduct)
    crossing = ("            if deg[x[p]] % 2 and basis.word_degree(w1) % 2:\n"
                "                sign = -sign\n")
    assert source.count(crossing) == 1
    namespace = dict(vars(dibl))
    exec(source.replace(crossing, ""), namespace)
    return namespace["dual_word_coproduct"]


@pytest.fixture(scope="module")
def kill_matrix(relation_reports):
    """The mutation-adequacy matrix: mutant family -> the relations that
    some mutant of the family fails.  The code mutant of the coproduct's
    crossing sign and the eight T mutants of S3 run at weight 8, where a
    second cut exists, and stay out of the rational-table comparison."""
    reports, _ = relation_reports
    matrix = {family: {name for rep in reps for name, _ in rep.failures}
              for family, reps in reports.items()}
    s3 = build_sn(3).structure
    for family, change in T_CHANGES.items():
        for _, w, T in _t_mutants(s3, 8, change):
            matrix[family] |= {name for name, _ in ibl_relations_check(s3, w, T=T).failures}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dibl, "dual_word_coproduct", _crossing_sign_dropped())
        rep = ibl_relations_check(s3, 8)
    matrix["coproduct crossing sign dropped"] = {name for name, _ in rep.failures}
    return matrix


def test_mutant_families_kill_the_relations_they_reach(kill_matrix):
    assert kill_matrix["none"] == set()
    assert kill_matrix["mu_1 added"] >= {"boundary squared"}
    # S3 at weight 8 gives the T mutants a second cut: every family fails co-Jacobi
    assert kill_matrix["T flipped"] >= {"Drinfeld compatibility"}
    for family in T_CHANGES:
        assert kill_matrix[family] >= {"Jacobi", "involutivity", "product derivation",
                                       "coproduct coderivation", "co-Jacobi"}, family
    assert kill_matrix["coproduct crossing sign dropped"] >= {
        "co-Jacobi", "Drinfeld compatibility", "involutivity"}


@pytest.mark.parametrize("relation", RELATIONS)
def test_every_relation_is_killed_by_a_mutant(kill_matrix, relation):
    assert any(relation in killed for family, killed in kill_matrix.items()
               if family != "none"), kill_matrix


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
    # on S3 at weight 5 only Jacobi receives terms (on 24 triples); every
    # other relation holds because nothing reached it, and the summary
    # names them
    assert rep.with_terms == {**dict.fromkeys(RELATIONS, 0), "Jacobi": 24}
    assert rep.summary().splitlines()[-1] == (
        "no instance received a term: boundary squared, coproduct "
        "coderivation, involutivity, product derivation, co-Jacobi, "
        "Drinfeld compatibility")
    assert empty.with_terms == dict.fromkeys(RELATIONS, 0)
    # CP2 at weight 7: co-Jacobi gets terms on 108 of its 523 instances;
    # mu_1 = 0 leaves the three boundary relations without any
    rep = ibl_relations_check(build_cpn(2).structure, 7)
    assert rep.passed
    assert rep.checked["co-Jacobi"] == 523 and rep.with_terms["co-Jacobi"] == 108
    assert all(0 < rep.with_terms[name] <= rep.checked[name]
               for name in ("involutivity", "Jacobi", "Drinfeld compatibility"))
    assert rep.summary().splitlines()[-1] == (
        "no instance received a term: boundary squared, coproduct "
        "coderivation, product derivation")


def test_dual_word_product_matches_word_by_word_evaluation(pushforward):
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
        psi = wdual(s, words[1]) + scaled(wdual(s, words[4]), 3)
        total = q210(s, psi, wdual(s, words[2]))
        parts = q210(s, wdual(s, words[1]), wdual(s, words[2])) + \
            scaled(q210(s, wdual(s, words[4]), wdual(s, words[2])), 3)
        assert total.equal_values(parts)
    harm, e10 = pushforward
    T = t_tensor(harm)
    for w in range(1, 7):
        for u in canonical_words(harm.basis, w):
            psi = dual_word(harm.basis, u, slot_shift=harm.slot_shift)
            _assert_product_matches_oracle(harm, T, e10, psi)


def test_a_shared_memo_gives_the_results_of_fresh_calls():
    # one memo shared by every product and coproduct call on a structure
    # gives the dicts, values and key order, of calls that each make their
    # own; the calls run forward, then reversed with a new memo, so each
    # word meets the memo first in another role
    cases = [(build_sn(2).structure, 7), (build_sn(3).structure, 8),
             (build_cpn(2).structure, 6), (build_cpn(3).structure, 5),
             (random_cyclic_dga(6, seed=0), 4), (random_cyclic_dga(6, seed=5), 4)]
    for s, weight in cases:
        T = t_tensor(s)
        gens = [u for w in range(1, weight + 1) for u in canonical_words(s.basis, w)]
        calls = [(dibl.dual_word_product, (u, v)) for u in gens for v in gens
                 if len(u) + len(v) <= weight]
        calls += [(dibl.dual_word_coproduct, (u,)) for u in gens]
        fresh = [list(op(s, T, *words).items()) for op, words in calls]
        for order in (range(len(calls)), range(len(calls) - 1, -1, -1)):
            memo = {}
            for n in order:
                op, words = calls[n]
                assert list(op(s, T, *words, memo).items()) == fresh[n], (s.name, words)


def test_relation_reports_do_not_depend_on_the_memos():
    # reports interleaved over two structures, with T flipped so that the
    # failures in order fingerprint each one, equal those from calls that
    # each make their own memo
    s3, cp2 = build_sn(3).structure, build_cpn(2).structure
    runs = [(s, w, T) for (s, w) in ((s3, 8), (cp2, 6), (s3, 8))
            for T in (None, next(_t_mutants(s, w, T_CHANGES["T flipped"]))[2])]
    got = [ibl_relations_check(s, w, T=T) for s, w, T in runs]
    product, coproduct = dibl.dual_word_product, dibl.dual_word_coproduct
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dibl, "dual_word_product",
                   lambda s, T, u, v, memo: product(s, T, u, v))
        mp.setattr(dibl, "dual_word_coproduct",
                   lambda s, T, u, memo: coproduct(s, T, u))
        want = [ibl_relations_check(s, w, T=T) for s, w, T in runs]
    assert got == want
    assert got[0] == got[4] and got[1] == got[5]
    assert all(rep.failures for rep in got[1::2])


def test_labels_never_influence_a_computation():
    # the same structures with labels whose sort order reverses the index
    # order: words, relation reports, homology and the operations on dual
    # words agree index for index
    cases = [(random_cyclic_dga(6, seed=0), 4), (random_cyclic_dga(6, seed=3), 4),
             (build_cpn(2).structure, 6)]
    for s, top in cases:
        n = len(s.basis)
        labels = tuple(chr(ord("z") - i) for i in range(n))
        assert sorted(labels) == list(reversed(labels))
        r = s.replace(basis=GradedBasis(labels, s.basis.degrees))
        for w in range(1, 7):
            assert list(canonical_words(r.basis, w)) == \
                list(canonical_words(s.basis, w)), (s.name, w)
        for w in range(1, 6):
            for word in iproduct(range(n), repeat=w):
                assert canonicalize(word, r.basis) == \
                    canonicalize(word, s.basis), (s.name, word)
        assert ibl_relations_check(r, top + 1) == ibl_relations_check(s, top + 1)
        got, want = (cochain_homology(x, None, top) for x in (r, s))
        assert (got.dims, got.reps, got.stable) == \
            (want.dims, want.reps, want.stable), s.name
        duals = [u for w in range(1, top + 1) for u in canonical_words(s.basis, w)]
        mc_r, mc_s = canonical_mc(r), canonical_mc(s)
        for u in duals:
            pr, ps = wdual(r, u), wdual(s, u)
            assert q120(r, pr).values == q120(s, ps).values, (s.name, u)
            assert twisted_q110(r, mc_r, pr).values == \
                twisted_q110(s, mc_s, ps).values, (s.name, u)
        short = [u for u in duals if len(u) < top]
        for u in short:
            for v in short[::3]:
                assert q210(r, wdual(r, u), wdual(r, v)).values == \
                    q210(s, wdual(s, u), wdual(s, v)).values, (s.name, u, v)


# ---------------------------------------------------------------------------
# the Fraction route of the contractions, the oracle of their int route:
# q210, q120 and circ1 term by term over the rational T, each term a
# Fraction
# ---------------------------------------------------------------------------

def fraction_q210(s, psi1, psi2):
    T = t_tensor(s)
    bound = dibl._contraction_bound(psi1, psi2)
    out = CochainTensor(s.basis, 1, psi1.slot_shift, bound)
    acc = {}
    memo = {}
    for (u,), c1 in psi1.items():
        for (v,), c2 in psi2.items():
            if bound is not None and len(u) + len(v) - 2 > bound:
                continue
            for w, c in dibl.dual_word_product(s, T, u, v, memo).items():
                acc[w] = acc.get(w, Fraction(0)) + c1 * c2 * c
    out.values = {(w,): c for w, c in acc.items() if c}
    return out


def fraction_q120(s, psi):
    T = t_tensor(s)
    bound = None if psi.weight_bound is None else psi.weight_bound - 2
    out = CochainTensor(s.basis, 2, psi.slot_shift, bound)
    acc = {}
    memo = {}
    for (u,), c in psi.items():
        if bound is not None and len(u) - 2 > bound:
            continue
        for key, v in dibl.dual_word_coproduct(s, T, u, memo).items():
            acc[key] = acc.get(key, 0) + c * v
    out.values = {key: Fraction(c, 2) for key, c in acc.items() if c}
    return out


def fraction_circ1(s, pmc_lg, psi):
    T = t_tensor(s)
    basis, shift = s.basis, psi.slot_shift
    bound = dibl._contraction_bound(pmc_lg, psi)
    out = CochainTensor(basis, pmc_lg.arity, shift, bound)
    memo = {}
    for key, ce in pmc_lg.items():
        weight = sum(len(v) for v in key)
        before = shift
        for j, v in enumerate(key):
            dv = basis.word_degree(v)
            for (u,), cp in psi.items():
                if bound is not None and weight + len(u) - 2 > bound:
                    continue
                for w, c in dibl.dual_word_product(s, T, u, v, memo).items():
                    new = key[:j] + (w,) + key[j + 1:]
                    if (dv + basis.word_degree(w)) * before % 2:
                        c = -c
                    out.add(new, c * ce * cp * Fraction(new.count(w), key.count(v)))
            before += slot_degree(v, basis, shift)
    return out


def fraction_twisted_q110(s, pmc, psi):
    e10 = pmc.entry(1, 0)
    return q110(s, psi) + scaled(fraction_q210(s, e10, psi), collection_sign(s, e10))


def fraction_twisted_q120(s, pmc, psi):
    base = fraction_q120(s, psi)
    e20 = pmc.entry(2, 0)
    return base if e20.is_zero() else base + fraction_circ1(s, e20, psi)


def _pairing_scaled(s, c):
    """s with its pairing scaled by c: the relations are homogeneous in the
    pairing, and c = 2/3 gives a T with a denominator."""
    return s.replace(name=f"{s.name} P*{c}",
                     pairing=[[c * x for x in row] for row in s.pairing])


CONTRACTION_MODELS = [build_sn(3).structure, build_cpn(2).structure,
                      _pairing_scaled(build_cpn(2).structure, Fraction(2, 3)),
                      random_cyclic_dga(6, seed=0), random_cyclic_dga(6, seed=5),
                      random_cyclic_dga(10, seed=1)]
VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)


@st.composite
def contraction_cases(draw):
    """A model, two arity-1 cochains and an arity-2 or -3 entry, each on a
    few short words with small non-integral values and truncated at a
    drawn bound or not at all; entry keys often repeat a slot word."""
    s = draw(st.sampled_from(CONTRACTION_MODELS))
    top = 3 if len(s.basis) > 6 else 4
    words = {w: list(canonical_words(s.basis, w)) for w in range(1, top + 1)}

    def cochain():
        bound = draw(st.sampled_from([None, 2, 3, 4, 5, 6]))
        pool = [u for w, us in words.items() if bound is None or w <= bound
                for u in us]
        psi = CochainTensor(s.basis, 1, s.slot_shift, bound)
        for u in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)):
            psi.add((u,), draw(VALUES))
        return psi

    arity = draw(st.sampled_from([2, 3]))
    entry = CochainTensor(s.basis, arity, s.slot_shift,
                          draw(st.sampled_from([None, arity + 1, 2 * arity])))
    short = words[1] + words[2]
    for _ in range(draw(st.integers(1, 5))):
        key = [draw(st.sampled_from(short)) for _ in range(arity)]
        if draw(st.booleans()):
            key[1] = key[0]
        if entry.weight_bound is None or sum(map(len, key)) <= entry.weight_bound:
            entry.add(tuple(key), draw(VALUES))
    return s, cochain(), cochain(), entry, draw(VALUES)


def _cancelled(s, fraction_op, psi):
    """psi plus a multiple of one of its dual words that cancels the first
    output key two of its dual words reach, and that key; (psi, None) when
    no key is reached twice."""
    parts = {u: fraction_op(wdual(s, u, psi.weight_bound)) for (u,) in psi.values}
    reached = Counter(key for out in parts.values() for key in out.values)
    total = fraction_op(psi).values
    for key in total:
        if reached[key] >= 2:
            u = next(u for u, out in parts.items() if key in out.values)
            fix = scaled(wdual(s, u, psi.weight_bound), -total[key] / parts[u].values[key])
            return psi + fix, key
    return psi, None


def _assert_same(got, want):
    assert got.weight_bound == want.weight_bound
    assert set(got.values) == set(want.values)
    assert got.values == want.values
    assert all(type(c) is Fraction for c in got.values.values())


@settings(max_examples=60, deadline=None)
@given(contraction_cases())
def test_int_contractions_match_the_fraction_route(case):
    # values, key sets and weight bounds of the int route equal the Fraction
    # route's, also where a key's terms cancel exactly
    s, psi1, psi2, entry, scale = case
    _assert_same(q210(s, psi1, psi2), fraction_q210(s, psi1, psi2))
    _assert_same(q120(s, psi1), fraction_q120(s, psi1))
    _assert_same(circ1(s, entry, psi1), fraction_circ1(s, entry, psi1))
    cases = [(lambda psi: q210(s, psi, psi2), lambda psi: fraction_q210(s, psi, psi2)),
             (lambda psi: q120(s, psi), lambda psi: fraction_q120(s, psi)),
             (lambda psi: circ1(s, entry, psi), lambda psi: fraction_circ1(s, entry, psi))]
    for op, fraction_op in cases:
        psi, key = _cancelled(s, fraction_op, psi1)
        got = op(psi)
        _assert_same(got, fraction_op(psi))
        assert key not in got.values
    pmc = MaurerCartanFamily(s, {(1, 0): scaled(canonical_mc(s).entry(1, 0), scale),
                                 (2, 0): entry if entry.arity == 2 else
                                 CochainTensor(s.basis, 2, s.slot_shift)})
    for psi in (psi1, psi2):
        _assert_same(twisted_q110(s, pmc, psi), fraction_twisted_q110(s, pmc, psi))
        _assert_same(twisted_q120(s, pmc, psi), fraction_twisted_q120(s, pmc, psi))
