import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycibl.models import build_cpn, build_sn, random_cyclic_dga
from cycibl.signs import GradedBasis
from cycibl.words import (CochainTensor, TruncationError, Word, canonical_key,
                          canonical_words, canonicalize, dual_word,
                          product_cochain, rotation_sign, rotations)
from helpers import rotate

S2 = GradedBasis(("1", "w"), (-1, 1))   # volume letter of odd shifted degree
S3 = GradedBasis(("1", "w"), (-1, 2))
CP2 = GradedBasis(("e0", "e1", "e2"), (-1, 1, 3))


def section_iota(letters: Word, basis: GradedBasis) -> list[tuple[Word, Fraction]]:
    """The averaged cyclic-symmetric tensor (1/k) * sum of signed rotations.

    Defined for non-annihilated classes only; projecting the result back to
    the cyclic quotient returns the class itself.
    """
    canon, _ = canonicalize(letters, basis)
    if canon is None:
        raise ValueError("annihilated cyclic word has no section")
    k = Fraction(1, len(letters))
    terms: dict[Word, Fraction] = {}
    for w, s in rotations(tuple(letters), basis):
        terms[w] = terms.get(w, Fraction(0)) + k * s
    return [(w, c) for w, c in terms.items() if c]


def completion_needed(reduced_basis: GradedBasis) -> bool:
    """Whether infinite-weight cochains can exist over a reduced basis.

    They cannot when every degree is strictly positive (a word of weight k
    then has degree >= k, so fixed-degree components have bounded weight).
    """
    return any(d <= 0 for d in reduced_basis.degrees)


def test_rotate_single_letter():
    assert rotate((0,), S3) == ((0,), 1)


def test_rotate_odd_volume_pair():
    # two copies of the degree-1 letter anticommute around the circle
    word, sign = rotate((1, 1), S2)
    assert word == (1, 1)
    assert sign == -1


def test_full_rotation_is_identity():
    for basis in (S2, S3, CP2):
        for w in [(0, 1), (1, 1, 0), (0, 0, 1, 1), (1, 0, 1, 0, 1)]:
            if max(w) >= len(basis):
                continue
            cur, sign = tuple(w), 1
            for _ in range(len(w)):
                cur, s = rotate(cur, basis)
                sign *= s
            assert cur == tuple(w)
            assert sign == 1


def test_annihilated_even_volume_power_on_even_sphere():
    # w^2 on the 2-sphere equals minus itself
    canon, _ = canonicalize((1, 1), S2)
    assert canon is None
    canon, _ = canonicalize((1, 1, 1), S2)
    assert canon is not None


def test_odd_sphere_powers_survive():
    for k in range(1, 7):
        canon, sign = canonicalize((1,) * k, S3)
        assert canon == (1,) * k
        assert sign == 1


def test_canonical_is_lex_minimal_rotation():
    for w in [(1, 0), (1, 0, 1), (2, 1, 0), (1, 2, 1, 0)]:
        basis = CP2
        canon, sign = canonicalize(w, basis)
        ranked = [rot for rot, _ in rotations(tuple(w), basis)]
        best = min(ranked, key=lambda r: tuple(basis.labels[i] for i in r))
        assert canon == best
        # accumulated sign matches composing single rotations
        idx = ranked.index(canon)
        assert sign == rotations(tuple(w), basis)[idx][1]


def test_section_iota_projects_back():
    for w in [(0, 1), (1, 0, 1), (0, 1, 1, 0)]:
        terms = section_iota(w, CP2)
        # (1 - t) of the section vanishes
        acc = {}
        for tensor, c in terms:
            acc[tensor] = acc.get(tensor, Fraction(0)) + c
            rot, s = rotate(tensor, CP2)
            acc[rot] = acc.get(rot, Fraction(0)) - s * c
        assert all(v == 0 for v in acc.values())
        # projecting back gives the original class with coefficient one
        back = Fraction(0)
        canon, csign = canonicalize(w, CP2)
        for tensor, c in terms:
            c2, s2 = canonicalize(tensor, CP2)
            if c2 == canon:
                back += c * s2
        assert back == csign


def test_section_iota_annihilated_raises():
    with pytest.raises(ValueError):
        section_iota((1, 1), S2)


def test_canonical_words_enumeration():
    words3 = list(canonical_words(S3, 3))
    # over two letters there are 4 cyclic words of length 3; none annihilated here
    assert len(words3) == 4
    assert all(canonicalize(w, S3)[0] == w for w in words3)
    # on the even sphere the pure volume words of even length die
    words2 = list(canonical_words(S2, 2))
    assert (1, 1) not in words2


def test_dual_word_and_pair():
    psi = dual_word(S3, (1, 1, 1))
    assert psi.eval_word((1, 1, 1)) == 1
    assert psi.eval_word((1, 1)) == 0
    assert psi.filtration_degree() == 3
    zero = CochainTensor(S3, 1)
    assert zero.filtration_degree() == math.inf


def test_truncation_guard():
    psi = dual_word(S3, (1, 1), weight_bound=4)
    assert psi.eval_word((1, 1, 1, 1)) == 0
    with pytest.raises(TruncationError):
        psi.eval_word((1, 1, 1, 1, 1))


def test_product_cochain_symmetrization():
    # distinct weights: value is the half-sum over the two matchings
    psi1 = dual_word(S3, (0,), slot_shift=0)
    psi2 = dual_word(S3, (1, 1), slot_shift=0)
    prod = product_cochain([psi1, psi2])
    assert prod.eval_tuple(((0,), (1, 1))) == Fraction(1, 2)
    assert prod.eval_tuple(((1, 1), (0,))) != 0
    assert prod.eval_tuple(((0,), (1, 1, 1))) == 0
    # distinct words: the product of their duals, evaluated in factor
    # order, is 1/k! (one matching survives, with sign +1)
    for basis in (S3, CP2):
        words = [u for w in (1, 2, 3) for u in canonical_words(basis, w)]
        for shift in (0, 1):
            for k in (2, 3):
                for combo in itertools.permutations(words, k):
                    duals = [dual_word(basis, u, slot_shift=shift) for u in combo]
                    assert product_cochain(duals).eval_tuple(combo) == \
                        Fraction(1, math.factorial(k)), (basis, shift, combo)
    # three duals, repeated words included: sign * |Stab| / 3! on the
    # canonical key of the triple, |Stab| the product of the factorials of
    # the multiplicities (the co-Jacobi relation accumulates on these keys)
    for basis in (S2, S3, CP2):
        words = [u for w in (1, 2) for u in canonical_words(basis, w)]
        for shift in (0, 1):
            for combo in itertools.product(words, repeat=3):
                duals = [dual_word(basis, u, slot_shift=shift) for u in combo]
                keyed = canonical_key(combo, basis, shift)
                stab = math.prod(math.factorial(combo.count(u)) for u in set(combo))
                want = {} if keyed is None else {keyed[0]: keyed[1] * Fraction(stab, 6)}
                assert product_cochain(duals).values == want, (basis, shift, combo)


def test_cochain_flip_symmetry():
    # storing (a, b) determines (b, a) through the shifted Koszul sign
    shift = 0  # make slots degrees odd for (0,): deg -1 + 0 odd
    t = CochainTensor(S3, 2, shift)
    t.add(((0,), (1, 1)), Fraction(5))
    a = t.eval_tuple(((0,), (1, 1)))
    b = t.eval_tuple(((1, 1), (0,)))
    d1 = (-1 + shift) % 2
    d2 = (4 + shift) % 2
    expected = -1 if (d1 * d2) % 2 else 1
    assert a == 5 and b == expected * 5


def test_equal_odd_slots_vanish():
    t = CochainTensor(S3, 2, 1)  # shift 1 makes the weight-2 word odd: 2+1
    t.add(((1, 1), (1, 1)), Fraction(3))
    assert t.is_zero()
    keyed = canonical_key(((1, 1), (1, 1)), S3, 1)
    assert keyed is None


def test_completion_flags():
    assert completion_needed(GradedBasis(("w",), (0,))) is True     # circle
    assert completion_needed(GradedBasis(("w",), (2,))) is False    # 3-sphere
    assert completion_needed(GradedBasis(("e1", "e2"), (1, 3))) is False


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6))
def test_canonicalize_rotation_invariant(letters):
    w = tuple(letters)
    canon, sign = canonicalize(w, CP2)
    for rot, rsign in rotations(w, CP2):
        c2, s2 = canonicalize(rot, CP2)
        assert c2 == canon
        if canon is not None:
            # [w] = sign [canon] and [rot] = s2 [canon], with [w] = rsign [rot]
            assert sign == rsign * s2


# -- the necklace word layer against brute force -----------------------------

def _step(word, basis):
    """One rotation t from its definition: the last letter crosses the rest."""
    deg = basis.degrees
    crossed = deg[word[-1]] * sum(deg[i] for i in word[:-1])
    return (word[-1],) + word[:-1], -1 if crossed % 2 else 1


def _stepped_rotations(word, basis):
    out, cur, sign = [], word, 1
    for _ in range(len(word)):
        out.append((cur, sign))
        cur, s = _step(cur, basis)
        sign *= s
    return out


def _oracle_canonicalize(word, basis):
    """The index-minimal rotation (least rotation count on ties) and its
    sign; annihilated when an equal rotation carries the other sign."""
    rots = _stepped_rotations(word, basis)
    _, best_r = min((w, r) for r, (w, _) in enumerate(rots))
    canon, sign = rots[best_r]
    if any(w == canon and s != sign for w, s in rots):
        return None, 1
    return canon, sign


def _oracle_words(basis, weight):
    """Every letter tuple of the weight, kept when it is its own canonical
    form, in ascending index order: the m^w scan."""
    return [w for w in itertools.product(range(len(basis)), repeat=weight)
            if _oracle_canonicalize(w, basis)[0] == w]


NECKLACE_BASES = [
    (S2, 6), (S3, 6), (CP2, 6), (build_cpn(3).structure.basis, 6),
    (random_cyclic_dga(6, seed=1).basis, 6),
    (random_cyclic_dga(10, seed=0).basis, 4),
    # shuffled labels with odd and negative degrees
    (GradedBasis(("c", "a", "d", "b"), (1, -1, 0, 3)), 6),
]


@pytest.mark.parametrize("basis,top", NECKLACE_BASES)
def test_necklaces_match_brute_force_enumeration(basis, top):
    for weight in range(1, top + 1):
        expected = _oracle_words(basis, weight)
        assert list(canonical_words(basis, weight)) == expected, weight


@pytest.mark.parametrize("basis,top", NECKLACE_BASES)
def test_canonicalize_and_rotations_match_single_steps(basis, top):
    for weight in range(1, min(top, 5) + 1):
        for w in itertools.product(range(len(basis)), repeat=weight):
            assert canonicalize(w, basis) == _oracle_canonicalize(w, basis), w
            stepped = _stepped_rotations(w, basis)
            assert rotations(w, basis) == stepped, w
            assert rotate(w, basis) == (stepped + stepped)[1], w


def test_periodic_words_with_odd_block_and_even_copies_vanish():
    basis = GradedBasis(("x", "y", "z"), (1, 2, 0))
    # odd block repeated an even number of times: annihilated
    for word in [(0, 0), (0, 0, 0, 0), (0, 1, 0, 1), (0, 2, 0, 2, 0, 2, 0, 2)]:
        assert canonicalize(word, basis) == (None, 1), word
        assert word not in canonical_words(basis, len(word))
    # odd copies, or an even block, survive
    for word in [(0,), (0, 0, 0), (1, 1), (0, 0, 1, 0, 0, 1), (0, 1, 0, 1, 0, 1)]:
        canon, _ = canonicalize(word, basis)
        assert canon == word and word in canonical_words(basis, len(word)), word


def test_rotation_sign_is_prefix_parity_rule():
    # t^r moves the last r letters (degree tail) to the front with sign
    # (-1)^(tail * (total - 1)); repeated single steps agree
    basis = GradedBasis(("x", "y", "z", "u"), (1, 2, -1, -2))
    for weight in range(1, 6):
        for w in itertools.product(range(4), repeat=weight):
            total = basis.word_degree(w)
            for r, (rot, sign) in enumerate(_stepped_rotations(w, basis)):
                tail = basis.word_degree(w[len(w) - r:]) if r else 0
                assert rot == w[len(w) - r:] + w[:len(w) - r]
                assert rotation_sign(total, tail) == sign, (w, r)
                if total % 2:
                    assert sign == 1


def test_canonicalize_matches_single_steps_on_long_words():
    # sampled words of weight 6 to 9 over the 10-letter random basis:
    # a unique least letter, a repeated one, and periodic words (annihilated
    # when an odd block repeats an even number of times), each rotated
    basis = random_cyclic_dga(10, seed=0).basis
    n = len(basis)
    rng = random.Random(9)
    kinds = {"unique": 0, "repeated": 0, "annihilated": 0, "periodic": 0}
    for weight in range(6, 10):
        words = []
        for _ in range(40):
            least = rng.randrange(n)
            above = [x for x in range(n) if x > least] or [least]
            rest = [rng.choice(above) for _ in range(weight - 1)]
            words.append([least] + rest)
            rest[rng.randrange(weight - 1)] = least
            words.append([least] + rest)
        for period in (d for d in range(1, weight) if weight % d == 0):
            for _ in range(10):
                block = [rng.randrange(n) for _ in range(period)]
                words.append(block * (weight // period))
        for w in words:
            r = rng.randrange(weight)
            w = tuple(w[r:] + w[:r])
            want = _oracle_canonicalize(w, basis)
            assert canonicalize(w, basis) == want, w
            kinds["unique" if w.count(min(w)) == 1 else "repeated"] += 1
            if any(w == w[d:] + w[:d] for d in range(1, weight)):
                kinds["periodic" if want[0] else "annihilated"] += 1
    assert min(kinds.values()) >= 10, kinds
