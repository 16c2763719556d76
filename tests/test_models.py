import random
from fractions import Fraction

import pytest

from cycibl import fileio
from cycibl.algebra import CyclicStructure, check_cyclic_dga, unit_cochain
from cycibl.dibl import (canonical_mc, q110, q120, q210, twisted_q110,
                         twisted_q120)
from cycibl.models import (S1TwistConfig, build_cpn, build_s1_pmc, build_sn,
                           random_cyclic_dga, truncated_polynomial)
from cycibl.signs import GradedBasis
from cycibl.words import canonical_words, dual_word, CochainTensor
from helpers import random_s1_config


def wdual(s, letters, bound=None):
    return dual_word(s.basis, letters, slot_shift=s.slot_shift, weight_bound=bound)


def test_sphere_bundle_metadata():
    b = build_sn(3)
    assert b.structure.basis.degrees == (-1, 2)
    assert b.structure.manifold_dim == 3
    assert build_sn(2).structure.basis.degrees == (-1, 1)
    with pytest.raises(ValueError):
        build_sn(0)


def test_cpn_bundle_metadata():
    b = build_cpn(2)
    assert b.structure.basis.degrees == (-1, 1, 3)
    assert b.structure.manifold_dim == 4
    with pytest.raises(ValueError):
        build_cpn(0)


def oracle_cpn(n):
    """CP^n from its table: e_i * e_j = e_{i+j} up to the top class, the
    antidiagonal pairing, unit e_0."""
    one, zero = Fraction(1), Fraction(0)
    mu2 = {(i, j): {i + j: one} if i + j <= n else {}
           for i in range(n + 1) for j in range(n + 1)}
    return CyclicStructure(
        f"CP{n}", GradedBasis(tuple(f"e{i}" for i in range(n + 1)),
                              tuple(2 * i - 1 for i in range(n + 1))),
        2 * n, [[one if i + j == n else zero for j in range(n + 1)]
                for i in range(n + 1)],
        {1: {}, 2: mu2}, unit=0, augmentation={0: one})


def test_cpn_is_the_paired_truncated_polynomial():
    for n in range(1, 12):
        got, want = build_cpn(n).structure, oracle_cpn(n)
        assert got == want, n
        # in key order too, not only as JSON with sorted keys
        assert repr(fileio.structure_to_dict(got)) == \
            repr(fileio.structure_to_dict(want)), n


def test_truncated_polynomial_validation():
    with pytest.raises(ValueError):
        truncated_polynomial(2, 3)   # odd generator degree
    s = truncated_polynomial(1, 2)
    assert s.basis.labels == ("x0", "x1")
    assert s.mu_apply(2, (1, 1)) == {}


def test_s1_config_validation():
    with pytest.raises(ValueError):
        S1TwistConfig({3: Fraction(1)})
    cfg = S1TwistConfig({2: Fraction(1, 2), 4: Fraction(-3)})
    assert cfg.value(2) == Fraction(1, 2)
    assert cfg.value(5) == 0


def test_s1_zero_config_gives_untwisted_coproduct():
    cfg = S1TwistConfig({})
    fam = build_s1_pmc(cfg, weight_bound=8)
    s = fam.structure
    assert fam.entry(2, 0).is_zero()
    for k in range(1, 6):
        psi = wdual(s, (1,) * k)
        assert twisted_q120(s, fam, psi).equal_values(q120(s, psi))


def test_s1_pmc20_symmetric_and_reduced():
    rng = random.Random(5)
    cfg = random_s1_config(rng, top=10)
    fam = build_s1_pmc(cfg, weight_bound=9)
    s = fam.structure
    assert fam.is_strictly_reduced()
    e20 = fam.entry(2, 0)
    # stored values agree in both slot orders (degrees are all even here)
    for (a, b), v in list(e20.values.items()):
        assert e20.eval_tuple((b, a)) == v


def test_s1_long_cochain_product_relation():
    # product of the unit dual against a truncated long cochain of volume
    # powers: sum c_k w^{k*} maps to -sum k c_{k+1} w^{k*}
    s = build_sn(1).structure
    rng = random.Random(17)
    W = 10
    coeffs = {k: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for k in range(1, W + 1)}
    long = CochainTensor(s.basis, 1, s.slot_shift, weight_bound=W)
    for k, c in coeffs.items():
        long.add(((1,) * k,), c)
    one = unit_cochain(s, 1)
    out = q210(s, one, long)
    assert out.weight_bound == W - 1
    for k in range(1, W):
        assert out.eval_word((1,) * k) == -k * coeffs[k + 1], k
    # nothing else is hit
    for key in out.values:
        assert set(key[0]) == {1}


def test_s1_twisted_coproduct_on_homology_representatives():
    # on volume-power duals the twisted and untwisted coproducts agree for
    # every admissible moment configuration
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        cfg = random_s1_config(rng, top=12)
        fam = build_s1_pmc(cfg, weight_bound=9)
        s = fam.structure
        for k in range(1, 7):
            psi = wdual(s, (1,) * k)
            tw = twisted_q120(s, fam, psi)
            assert tw.equal_values(q120(s, psi)), (seed, k)


def test_s1_twisted_coproduct_chain_level_difference_second_moment():
    # a nonzero second moment is visible at chain level on a mixed-word
    # dual, evaluated on a pair of volume words
    cfg = S1TwistConfig({2: Fraction(1)})
    fam = build_s1_pmc(cfg, weight_bound=8)
    s = fam.structure
    psi = wdual(s, (0, 1))   # dual of (unit, volume)
    tw = twisted_q120(s, fam, psi)
    base = q120(s, psi)
    assert not tw.equal_values(base)
    assert base.eval_tuple(((1,), (1,))) == 0
    assert tw.eval_tuple(((1,), (1,))) != 0


def test_s1_twisted_coproduct_chain_level_difference_unit_dual():
    # on the cube of the unit dual the difference needs the fourth moment
    # and appears on (unit unit volume, volume) pairs
    cfg = S1TwistConfig({4: Fraction(1)})
    fam = build_s1_pmc(cfg, weight_bound=8)
    s = fam.structure
    psi = unit_cochain(s, 3)
    tw = twisted_q120(s, fam, psi)
    base = q120(s, psi)
    assert not tw.equal_values(base)
    val = tw.eval_tuple(((0, 0, 1), (1, 1)))
    assert val != 0 and base.eval_tuple(((0, 0, 1), (1, 1))) == 0
    # consistent with minus the moment entry on the joined volume powers
    assert val == -fam.entry(2, 0).eval_tuple(((1, 1), (1, 1)))


def test_s1_unit_dual_twist_vanishes_where_claimed():
    # feeding the unit into volume-power duals kills the twist term
    cfg = S1TwistConfig({2: Fraction(2), 4: Fraction(1, 3)})
    fam = build_s1_pmc(cfg, weight_bound=8)
    s = fam.structure
    from cycibl.dibl import circ1
    for k in (1, 2, 3, 4):
        psi = wdual(s, (1,) * k)
        assert circ1(s, fam.entry(2, 0), psi).is_zero()


def test_random_dga_mc_squares_to_zero():
    for seed in (0, 1, 2, 3):
        s = random_cyclic_dga(8, seed=seed)
        mc = canonical_mc(s)
        for w in range(1, 5):
            for u in canonical_words(s.basis, w):
                psi = wdual(s, u)
                assert twisted_q110(s, mc, twisted_q110(s, mc, psi)).is_zero()
