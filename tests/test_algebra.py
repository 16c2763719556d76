import copy
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

import pytest

from cycibl.algebra import (CyclicStructure, check_ainfty, check_cyclic_dga,
                            check_mu_plus_cyclic, dual_b, hochschild_b_cyclic,
                            hochschild_b_tensor, reduced_membership, unit_cochain)
from cycibl.models import build_cpn, build_sn, random_cyclic_dga, truncated_polynomial
from cycibl.signs import GradedBasis
from cycibl.words import (CochainTensor, TruncationError, canonical_words, canonicalize,
                          dual_word)
from helpers import (classical_b_tensor, classical_rotation, classical_shift_U,
                     conjugated_b_tensor, rotate)


def test_sphere_models_pass_axioms():
    for n in (1, 2, 3, 4, 5):
        assert check_cyclic_dga(build_sn(n).structure).passed


def test_projective_models_pass_axioms():
    for n in (1, 2, 3):
        assert check_cyclic_dga(build_cpn(n).structure).passed


def test_sphere_dual_basis():
    s = build_sn(3).structure
    dual = s.dual_basis()
    # e^0 = w and e^1 = (-1)^n 1 for the sphere
    assert dual[0] == {1: Fraction(1)}
    assert dual[1] == {0: Fraction(-1)}
    s4 = build_sn(4).structure
    assert s4.dual_basis()[1] == {0: Fraction(1)}


def test_projective_dual_basis_is_reversal():
    s = build_cpn(2).structure
    dual = s.dual_basis()
    for i in range(3):
        assert dual[i] == {2 - i: Fraction(1)}


def test_perturbed_product_detected():
    bundle = build_sn(3)
    s = bundle.structure
    s.mu[2][(0, 1)] = {1: Fraction(2)}   # break 1 * w = w
    rep = check_cyclic_dga(s)
    assert not rep.passed
    names = {f[0] for f in rep.failures}
    assert names & {"Leibniz", "associativity", "left unit", "m2+ cyclicity"}


def test_mu_plus_values():
    s3 = build_sn(3).structure
    # m2(w, w) = 0 kills every triple with two volume letters adjacent
    assert s3.mu_plus(2, (1, 1, 0)) == 0
    cp2 = build_cpn(2).structure
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = Fraction(1 if i + j + k == 2 else 0)
                assert cp2.mu_plus(2, (i, j, k)) == expected


def test_mu_plus_cyclic_exhaustive():
    for bundle in (build_sn(2), build_sn(3), build_cpn(2)):
        assert check_mu_plus_cyclic(bundle.structure, 2).passed
        assert check_mu_plus_cyclic(bundle.structure, 1).passed


def test_dga_reduces_to_ainfty():
    for bundle in (build_sn(3), build_cpn(2)):
        assert check_ainfty(bundle.structure, 5).passed


def test_broken_mu3_detected_at_arity_four():
    s = build_cpn(1).structure
    s.mu[3] = {(1, 1, 1): {1: Fraction(1)}}
    rep = check_ainfty(s, 4)
    assert not rep.passed
    assert any("arity 4" in f[0] for f in rep.failures)


def test_higher_operation_detected():
    # mu_3(e1, e1, e1) = e1 on CP^1 breaks the degree law, the cyclicity of
    # mu_3+ and the A-infinity relations at arities 4 and 5
    s = build_cpn(1).structure
    s.mu[3] = {(1, 1, 1): {1: Fraction(1)}}
    rep = check_cyclic_dga(s)
    assert not rep.passed
    names = {f[0] for f in rep.failures}
    assert {"mu_3 degree", "mu_3+ cyclicity", "A-infinity relation arity 4",
            "A-infinity relation arity 5"} <= names, names
    assert rep.checked["A-infinity relation arity 5"] == 2 ** 5
    assert rep.checked["mu_3+ cyclicity"] == 2 ** 4


def oracle_ainfty(s, max_arity):
    """check_ainfty's (failures, checked) from a walk over all n^k basis
    tuples of each arity, every composition looked up in the tables."""
    fails, checked = [], {}
    deg, arities, n = s.basis.degrees, s.arities(), len(s.basis)
    for k in range(1, max_arity + 1):
        pairs = [(k + 1 - k2, k2) for k2 in arities if k + 1 - k2 in arities]
        if not pairs:
            continue
        name = f"A-infinity relation arity {k}"
        checked[name] = n ** k
        for letters in iproduct(range(n), repeat=k):
            acc = Counter()
            for k1, k2 in pairs:
                for p in range(k1):
                    inner = s.mu_apply(k2, letters[p:p + k2])
                    sgn = -1 if sum(deg[i] for i in letters[:p]) % 2 else 1
                    for mid, c in inner.items():
                        outer = letters[:p] + (mid,) + letters[p + k2:]
                        for o, c2 in s.mu_apply(k1, outer).items():
                            acc[o] += sgn * c * c2
            acc = tuple(sorted((o, c) for o, c in acc.items() if c))
            if acc:
                fails.append((name, letters, acc, ()))
    return fails, checked


def test_ainfty_check_matches_tuple_walk():
    # random 6-letter algebras with added mu_3 / mu_4 entries, and an
    # unmodified one; the mu_4 case walks 6^7 tuples in the oracle
    third = Fraction(1, 3)
    cases = []
    for seed, extra in ((0, {(1, 2, 0): {5: third}}),
                        (1, {(3, 1, 0): {0: third}, (3, 4, 2): {0: -2 * third}}),
                        (2, {(0, 4, 2, 2): {1: third}}), (3, {})):
        s = random_cyclic_dga(6, seed=seed)
        for t, img in extra.items():
            s.mu.setdefault(len(t), {})[t] = img
        cases.append((s, 2 * max(s.arities()) - 1))
    cases.append((build_cpn(2).structure, 5))
    failing = 0
    for s, top in cases:
        rep = check_ainfty(s, top)
        want_fails, want_checked = oracle_ainfty(s, top)
        assert rep.failures == want_fails, s.name
        assert rep.checked == want_checked, s.name
        failing += bool(want_fails)
    assert failing == 3


def test_check_report_counts_instances():
    s = build_sn(3).structure
    rep = check_cyclic_dga(s)
    assert rep.summary() == "all relations hold"
    assert rep.checked["A-infinity relation arity 3"] == 8
    assert rep.checked["mu_2+ cyclicity"] == 8
    assert rep.checked["pairing antisymmetry"] == 4
    # no pairing, no operation, no unit: nothing to check
    bare = CyclicStructure("bare", GradedBasis(("x",), (0,)), 3, None, {})
    rep = check_cyclic_dga(bare)
    assert rep.passed and not any(rep.checked.values())
    assert rep.summary() == "no relation instance checked"
    s.mu[2][(1, 1)] = {1: Fraction(1)}
    text = check_cyclic_dga(s).summary()
    assert "instances checked: " in text and "mu_2+ cyclicity 8" in text


def _apply(s, k, vectors):
    """mu_k on vectors, by multilinearity."""
    out = Counter()
    for combo in iproduct(*(v.items() for v in vectors)):
        coeff = math.prod(c for _, c in combo)
        for o, c in s.mu.get(k, {}).get(tuple(i for i, _ in combo), {}).items():
            out[o] += coeff * c
    return {o: c for o, c in out.items() if c}


def _comb(*terms):
    out = Counter()
    for c, vec in terms:
        for o, x in vec.items():
            out[o] += c * x
    return {o: x for o, x in out.items() if x}


def oracle_relation_failures(s):
    """Failing instances of m1^2 = 0, Leibniz, associativity, m1+ symmetry
    and m2+ cyclicity, from the formulas of the algebra module docstring,
    under the family names of check_ainfty and check_mu_plus_cyclic."""
    n, deg = len(s.basis), s.basis.degrees
    e = [{i: Fraction(1)} for i in range(n)]

    def m1(v):
        return _apply(s, 1, [v])

    def m2(v, w):
        return _apply(s, 2, [v, w])

    def plus(k, letters):
        return s.pair(_apply(s, k, [e[i] for i in letters[:-1]]), e[letters[-1]])

    def sign(x):
        return -1 if x % 2 else 1

    fails = set()
    for i in range(n):
        if m1(m1(e[i])):
            fails.add(("A-infinity relation arity 1", (i,)))
    for i, j in iproduct(range(n), repeat=2):
        if m1(m2(e[i], e[j])) != _comb((-1, m2(m1(e[i]), e[j])),
                                       (-sign(deg[i]), m2(e[i], m1(e[j])))):
            fails.add(("A-infinity relation arity 2", (i, j)))
        if s.pairing is not None and plus(1, (i, j)) != \
                sign(deg[i] * deg[j]) * plus(1, (j, i)):
            fails.add(("mu_1+ cyclicity", (i, j)))
    for i, j, k in iproduct(range(n), repeat=3):
        if m2(m2(e[i], e[j]), e[k]) != _comb((sign(deg[i] + 1),
                                               m2(e[i], m2(e[j], e[k])))):
            fails.add(("A-infinity relation arity 3", (i, j, k)))
        if s.pairing is not None and plus(2, (i, j, k)) != \
                sign(deg[k] * (deg[i] + deg[j])) * plus(2, (k, i, j)):
            fails.add(("mu_2+ cyclicity", (i, j, k)))
    return fails


def test_relation_checks_match_docstring_oracle():
    # seeded single-entry sign flips, scalings and deletions of mu_1 and mu_2
    structures = ([build_sn(n).structure for n in (1, 2, 3, 4)]
                  + [build_cpn(n).structure for n in (1, 2, 3)]
                  + [random_cyclic_dga(d, seed=seed)
                     for d, seed in ((6, 0), (6, 1), (6, 2), (8, 0), (10, 0))])
    mutants = [(s, k, t, o, kind) for s in structures for k in (1, 2)
               for t, img in sorted(s.mu.get(k, {}).items()) for o in img
               for kind in ("flip", "scale", "delete")]
    rng = random.Random(5)
    outcomes = Counter()
    for s in structures + rng.sample(mutants, 120):
        if not isinstance(s, CyclicStructure):
            s, k, t, o, kind = s
            s = copy.deepcopy(s)
            img = s.mu[k][t]
            if kind == "delete":
                del img[o]
            else:
                img[o] *= -1 if kind == "flip" else rng.choice((2, Fraction(1, 3), -3))
        rep = check_cyclic_dga(s)
        got = {(name, w) for name, w, _, _ in rep.failures
               if name.startswith("A-infinity") or name.endswith("+ cyclicity")}
        assert got == oracle_relation_failures(s), s.name
        outcomes[bool(got)] += 1
    assert outcomes[True] > 100 and outcomes[False] >= len(structures), outcomes


def test_bar_differential_squares_to_zero():
    for bundle in (build_sn(3), build_cpn(2)):
        s = bundle.structure
        for w in range(1, 6):
            for u in canonical_words(s.basis, w):
                acc = {}
                for v, c in hochschild_b_cyclic(s, u).items():
                    for v2, c2 in hochschild_b_cyclic(s, v).items():
                        acc[v2] = acc.get(v2, Fraction(0)) + c * c2
                assert all(x == 0 for x in acc.values()), u


def test_bar_differential_squares_to_zero_with_differential():
    s = random_cyclic_dga(6, seed=11)
    for w in range(1, 5):
        for u in canonical_words(s.basis, w):
            acc = {}
            for v, c in hochschild_b_cyclic(s, u).items():
                for v2, c2 in hochschild_b_cyclic(s, v).items():
                    acc[v2] = acc.get(v2, Fraction(0)) + c * c2
            assert all(x == 0 for x in acc.values()), u


def hochschild_b_dga_tensor(s, letters):
    """Closed-form bar differential of a dg algebra on a cyclic generating
    word: the independent route :func:`hochschild_b_tensor` is checked
    against on the cyclic quotient."""
    letters = tuple(letters)
    k = len(letters)
    deg = s.basis.degrees
    acc = Counter()
    for i in range(k):
        sgn = -1 if sum(deg[x] for x in letters[:i]) % 2 else 1
        for mid, c in s.mu_apply(1, (letters[i],)).items():
            acc[letters[:i] + (mid,) + letters[i + 1:]] += sgn * c
    for i in range(k - 1):
        sgn = -1 if sum(deg[x] for x in letters[:i]) % 2 else 1
        for mid, c in s.mu_apply(2, (letters[i], letters[i + 1])).items():
            acc[letters[:i] + (mid,) + letters[i + 2:]] += sgn * c
    if k >= 2:
        sgn = -1 if (deg[letters[-1]] % 2) and sum(deg[x] for x in letters[:-1]) % 2 else 1
        for mid, c in s.mu_apply(2, (letters[-1], letters[0])).items():
            acc[(mid,) + letters[1:-1]] += sgn * c
    return acc


def test_general_formula_matches_dga_formula():
    # the arity-wise bar differential agrees with the closed dg algebra form
    for s in (build_sn(3).structure, build_cpn(2).structure,
              random_cyclic_dga(6, seed=3)):
        for w in range(1, 5):
            for u in canonical_words(s.basis, w):
                via_general = hochschild_b_cyclic(s, u)
                acc = {}
                for v, c in hochschild_b_dga_tensor(s, u).items():
                    canon, sign = canonicalize(v, s.basis)
                    if canon is not None:
                        acc[canon] = acc.get(canon, Fraction(0)) + sign * c
                acc = {k: v for k, v in acc.items() if v}
                assert acc == via_general, u


def _stepped_rotation(word, r, basis):
    """t^r by r single steps, each moving the last letter across the rest."""
    deg = basis.degrees
    sign = 1
    for _ in range(r % len(word)):
        if deg[word[-1]] * sum(deg[i] for i in word[:-1]) % 2:
            sign = -sign
        word = (word[-1],) + word[:-1]
    return word, sign


def _stepped_b_tensor(s, letters):
    """b' + R from the definition, every rotation taken one step at a time."""
    k = len(letters)
    acc = {}

    def add(w, c):
        acc[w] = acc.get(w, Fraction(0)) + c
        if not acc[w]:
            del acc[w]

    for j in s.arities():
        if j > k:
            continue
        for i in range(k - j + 1):
            base, sgn0 = _stepped_rotation(letters, k - i, s.basis)
            for mid, c in s.mu[j].get(base[:j], {}).items():
                out, sgn1 = _stepped_rotation((mid,) + base[j:], i, s.basis)
                add(out, sgn0 * sgn1 * c)
        for i in range(1, j):
            base, sgn0 = _stepped_rotation(letters, i, s.basis)
            for mid, c in s.mu[j].get(base[:j], {}).items():
                add((mid,) + base[j:], sgn0 * c)
    return acc


def test_shared_canonical_memo_changes_nothing():
    # one memo over a whole sweep gives the per-word values, items and
    # order, and reaches no module-level state
    from cycibl import algebra
    from cycibl.dibl import canonical_mc, mu_from_mc
    s3, r6 = build_sn(3).structure, random_cyclic_dga(6, seed=3)
    cases = [(s3, 7), (build_cpn(2).structure, 5), (build_cpn(3).structure, 4),
             (r6, 4), (random_cyclic_dga(10, seed=1), 3)]
    # twisted families: the canonical entry plus seeded words of weight 6
    # (S3, giving mu_5) and 4 (r6, giving mu_3)
    rng = random.Random(5)
    for s, w in ((s3, 6), (r6, 4)):
        entry = canonical_mc(s).entry(1, 0).scaled(1)
        words = [u for u in canonical_words(s.basis, w)
                 if s.basis.word_degree(u) == entry.degree()]
        for u in rng.sample(words, 3):
            entry.add((u,), Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 3)))
        twisted = mu_from_mc(s, entry, w - 1)
        assert twisted.arities()[-1] == w - 1
        cases.append((twisted, 5))
    module_dicts = {n: len(v) for n, v in vars(algebra).items() if isinstance(v, dict)}
    for s, top in cases:
        arities, memo, calls = s.arities(), {}, 0
        for w in range(1, top + 1):
            for v in canonical_words(s.basis, w):
                shared = hochschild_b_cyclic(s, v, arities, memo)
                assert list(shared.items()) == \
                    list(hochschild_b_cyclic(s, v).items()), (s.name, v)
                calls += len(hochschild_b_tensor(s, v))
        assert 0 < len(memo) < calls, s.name  # the sweep hit its memo
    assert module_dicts == {n: len(v) for n, v in vars(algebra).items()
                            if isinstance(v, dict)}


def test_bar_differential_matches_single_step_rotations():
    # random tables up to arity 4, degrees not respected, so every rotation
    # sign of b' and of the remainder R is exercised on its own
    import random
    from itertools import product as iproduct
    from cycibl.algebra import CyclicStructure
    from cycibl.signs import GradedBasis

    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        basis = GradedBasis(tuple("zyxw"[:n]),
                            tuple(rng.randint(-2, 3) for _ in range(n)))
        mu = {k: {t: {rng.randrange(n): Fraction(rng.randint(1, 3), rng.randint(1, 3))}
                  for t in iproduct(range(n), repeat=k) if rng.random() < 0.3}
              for k in range(1, 5)}
        s = CyclicStructure("random tables", basis, 3, None, mu)
        for w in range(1, 6):
            for letters in iproduct(range(n), repeat=w):
                got = hochschild_b_tensor(s, letters)
                want = _stepped_b_tensor(s, letters)
                assert list(got.items()) == list(want.items()), (seed, letters)
                assert all(type(c) is Fraction for c in got.values())
                cyclic = {}
                for v, c in want.items():
                    canon, sign = canonicalize(v, basis)
                    if canon is not None:
                        cyclic[canon] = cyclic.get(canon, Fraction(0)) + sign * c
                assert hochschild_b_cyclic(s, letters) == \
                    {v: c for v, c in cyclic.items() if c}, (seed, letters)


def test_unit_triple_word_expansion():
    # b(1 1 1) for the 3-sphere: three interior contractions and the wrap
    s = build_sn(3).structure
    out = hochschild_b_cyclic(s, (0, 0, 0))
    # each contraction gives 1*1 = 1 with prefix signs (+,-,+) and wrap +:
    # prefixes (-1)^0, (-1)^|1|, wrap (-1)^(|1||11|); |1| = -1 odd
    # total = (1 - 1) (1 1) + wrap... verified against hand expansion:
    hand = {}
    deg = s.basis.degrees
    letters = (0, 0, 0)
    for i in range(2):
        sgn = -1 if sum(deg[x] for x in letters[:i]) % 2 else 1
        hand[(0, 0)] = hand.get((0, 0), Fraction(0)) + sgn
    sgn = -1 if (deg[0] * (deg[0] + deg[0])) % 2 else 1
    hand[(0, 0)] = hand.get((0, 0), Fraction(0)) + sgn
    hand = {k: v for k, v in hand.items() if v}
    canon00 = canonicalize((0, 0), s.basis)[0]
    expected = {} if canon00 is None else {canon00: hand.get((0, 0), Fraction(0))}
    expected = {k: v for k, v in expected.items() if v}
    assert out == expected


def test_dual_b_squares_to_zero_truncated():
    s = random_cyclic_dga(6, seed=5)
    psi = dual_word(s.basis, (2, 3), slot_shift=s.slot_shift, weight_bound=6)
    once = dual_b(s, psi)
    twice = dual_b(s, once)
    for key, v in twice.values.items():
        if twice.weight_bound is None or len(key[0]) <= twice.weight_bound:
            assert v == 0 or len(key[0]) > 6


def test_classical_comparison_on_words():
    # U^{-1} b U equals the classical differential, tensor by tensor
    for s in (build_sn(3).structure, truncated_polynomial(2, 2),
              random_cyclic_dga(6, seed=7)):
        from itertools import product as iproduct
        for w in range(1, 5):
            for letters in iproduct(range(len(s.basis)), repeat=w):
                lhs = conjugated_b_tensor(s, letters)
                rhs = classical_b_tensor(s, letters)
                assert lhs == rhs, (s.name, letters)


def test_classical_rotation_conjugation():
    # U^{-1} t U = (-1)^(k-1) (classical Koszul rotation)
    s = build_sn(3).structure
    for letters in [(0, 1), (1, 1, 0), (0, 0, 1, 1)]:
        _, sgn_in = classical_shift_U(s, letters)
        rot, s_shift = rotate(tuple(letters), s.basis)
        _, sgn_out = classical_shift_U(s, rot)
        lhs_sign = sgn_in * s_shift * sgn_out
        rot2, s_classical = classical_rotation(s, letters)
        assert rot2 == rot
        assert lhs_sign == s_classical, letters


def test_reduced_membership():
    s = build_sn(3).structure
    for k in (1, 3, 5):
        psi = dual_word(s.basis, (1,) * k, slot_shift=s.slot_shift)
        assert reduced_membership(s, psi, max_weight=7)
    unit_dual = unit_cochain(s, 1)
    assert not reduced_membership(s, unit_dual, max_weight=5)


def oracle_reduced_membership(s, psi, top):
    """psi on the unit letter and on (unit,) + u for every canonical word u
    of weight below the top, word by word."""
    return not psi.eval_word((s.unit,)) and not any(
        psi.eval_word((s.unit,) + u)
        for w in range(1, top) for u in canonical_words(s.basis, w))


def test_reduced_membership_matches_enumeration():
    # seeded cochains with at least one word through the unit letter
    rng = random.Random(31)
    outcomes = Counter()
    for s in (build_sn(3).structure, build_cpn(2).structure,
              random_cyclic_dga(6, seed=2)):
        words = [u for w in range(1, 5) for u in canonical_words(s.basis, w)]
        with_unit = [u for u in words if s.unit in u]
        for _ in range(30):
            psi = CochainTensor(s.basis, 1, s.slot_shift)
            for u in rng.sample(with_unit, 1) + rng.sample(words, 2):
                psi.add((u,), rng.choice((-1, 2)))
            for top in (None, 2, 3, 4):
                got = reduced_membership(s, psi, max_weight=top)
                want = oracle_reduced_membership(s, psi, top or max(psi.weights()))
                assert got == want, (s.name, psi, top)
                outcomes[got] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50, outcomes
    with pytest.raises(TruncationError):
        reduced_membership(s, psi.restricted(3), max_weight=4)


def test_unit_cochain_parity():
    s = build_sn(3).structure
    assert unit_cochain(s, 1).eval_word((0,)) == 1
    assert unit_cochain(s, 2).is_zero()        # even powers are annihilated
    assert not unit_cochain(s, 3).is_zero()


def test_reduced_preserved_by_dual_b():
    s = random_cyclic_dga(6, seed=2)
    psi = dual_word(s.basis, (2, 3), slot_shift=s.slot_shift, weight_bound=6)
    assert reduced_membership(s, psi, max_weight=5)
    image = dual_b(s, psi)
    assert reduced_membership(s, image, max_weight=5)


def test_random_structures_seed_stable():
    a = random_cyclic_dga(8, seed=42)
    b = random_cyclic_dga(8, seed=42)
    assert a.basis == b.basis
    assert a.pairing == b.pairing
    assert a.mu == b.mu
    c = random_cyclic_dga(8, seed=43)
    assert c.pairing != a.pairing or c.basis != a.basis


def test_random_structures_pass_checks():
    for seed in range(8):
        s = random_cyclic_dga(8, seed=seed)
        assert check_cyclic_dga(s).passed
