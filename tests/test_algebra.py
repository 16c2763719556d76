import copy
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

import pytest

from cycibl.algebra import (CyclicStructure, bar_sweep, check_ainfty, check_cyclic_dga,
                            check_mu_plus_cyclic, dual_b, hochschild_b_cyclic,
                            integral_multiple, reduced_membership, transposed_b,
                            unit_cochain)
from cycibl.dibl import _integral_t
from cycibl.models import build_cpn, build_sn, random_cyclic_dga, truncated_polynomial
from cycibl.signs import GradedBasis
from cycibl.words import (CochainTensor, TruncationError, canonical_words, canonicalize,
                          dual_word, rotations)
from helpers import (as_fractions, classical_b_tensor, classical_rotation,
                     classical_shift_U, bar_terms, conjugated_b_tensor, cyclic_image,
                     fraction_check_ainfty, fraction_check_cyclic_dga,
                     fraction_check_mu_plus_cyclic, hochschild_b_tensor, mu_plus, pair,
                     rotate, scaled)


def test_sphere_models_pass_axioms():
    for n in (1, 2, 3, 4, 5):
        assert check_cyclic_dga(build_sn(n).structure).passed


def test_projective_models_pass_axioms():
    for n in (1, 2, 3):
        assert check_cyclic_dga(build_cpn(n).structure).passed


def test_sphere_dual_basis():
    s = build_sn(3).structure
    d, *dual = s.dual_basis()
    # e^0 = w and e^1 = (-1)^n 1 for the sphere, ints over d = 1
    assert d == 1
    assert dual[0] == {1: Fraction(1)}
    assert dual[1] == {0: Fraction(-1)}
    s4 = build_sn(4).structure
    assert s4.dual_basis()[2] == {0: Fraction(1)}
    assert all(type(v) is int for vec in dual for v in vec.values())


def test_projective_dual_basis_is_reversal():
    s = build_cpn(2).structure
    d, *dual = s.dual_basis()
    assert d == 1
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
    assert mu_plus(s3, 2, (1, 1, 0)) == 0
    cp2 = build_cpn(2).structure
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = Fraction(1 if i + j + k == 2 else 0)
                assert mu_plus(cp2, 2, (i, j, k)) == expected


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


def test_replace_validates_and_equality_ignores_the_caches():
    s = build_sn(3).structure
    same = s.replace()
    assert same == s and same is not s
    # a new structure: zero outputs dropped, scalars and shape checked
    mu2 = {key: dict(img) for key, img in s.mu[2].items()}
    mu2[(1, 1)] = {1: Fraction(0)}
    assert s.replace(mu={2: mu2}).mu == {2: s.mu[2]}
    assert s.replace(pairing=[[0, 1], [-1, 0]]).pairing[0][1] == Fraction(1)
    with pytest.raises(ValueError, match="wrong shape"):
        s.replace(pairing=[[Fraction(0)]])
    with pytest.raises(TypeError, match="dual"):
        s.replace(dual=None)
    renamed = s.replace(name="other", unit=None)
    assert (renamed.name, renamed.unit, renamed.mu) == ("other", None, s.mu)
    assert renamed != s
    # the dual basis and T are caches: computed or not, equal structures
    # stay equal, and a replaced basis or pairing drops them
    fresh = build_sn(3).structure
    s.dual_basis()
    s._t_tensor = {(0, 1): Fraction(5)}
    assert s == fresh
    assert s.replace(name="x")._t_tensor is s._t_tensor
    assert s.replace(pairing=s.pairing)._t_tensor is None
    assert s.replace(basis=s.basis)._dual is None
    # a replaced pairing solves its own dual basis and T: doubling P halves
    # both; a replaced mu or name reuses the cached tuples themselves
    dual, t = fresh.dual_basis(), _integral_t(fresh)
    doubled = fresh.replace(pairing=[[2 * x for x in row] for row in fresh.pairing])
    assert doubled.dual_basis() == (2, {1: 1}, {0: -1})
    assert as_fractions(doubled.dual_basis()) == [
        {c: v / 2 for c, v in vec.items()} for vec in as_fractions(dual)]
    d_t, T = _integral_t(doubled)
    assert {k: Fraction(v, d_t) for k, v in T.items()} == \
        {k: Fraction(v, 2 * t[0]) for k, v in t[1].items()}
    for other in (fresh.replace(mu={2: fresh.mu[2]}), fresh.replace(name="y")):
        assert other.dual_basis() is dual and _integral_t(other) is t
    with pytest.raises(TypeError):
        hash(s)


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
        return pair(s, _apply(s, k, [e[i] for i in letters[:-1]]), e[letters[-1]])

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


def _check_mutants(s, rng):
    """Seeded single changes of a structure, one per kind: the pairing made
    asymmetric (at a nonzero entry or a zero one), of wrong degree or
    degenerate; a mu_1 or mu_2 entry
    flipped, scaled by 1/3, deleted or added; a non-integral mu_3 entry;
    a broken unit; the augmentation off the unit."""
    n, deg = len(s.basis), s.basis.degrees
    out = []

    def mutant(change):
        m = copy.deepcopy(s)
        change(m)
        out.append(m)

    def bump(nonzero):
        def change(m):
            i, j = rng.choice([(i, j) for i in range(n) for j in range(n)
                               if bool(m.pairing[i][j]) == nonzero])
            m.pairing[i][j] += Fraction(1, 2)
        return change

    def off_degree(m):
        i, j = rng.choice([(i, j) for i in range(n) for j in range(n)
                           if deg[i] + deg[j] != m.manifold_dim - 2])
        m.pairing[i][j] = Fraction(2)
        m.pairing[j][i] = Fraction(2 if (deg[i] * deg[j]) % 2 else -2)

    def degenerate(m):
        i = rng.randrange(n)
        for j in range(n):
            m.pairing[i][j] = m.pairing[j][i] = Fraction(0)

    def entry(kind):
        def change(m):
            k = rng.choice([k for k in (1, 2) if m.mu.get(k)])
            t = rng.choice(sorted(m.mu[k]))
            img = m.mu[k][t]
            o = rng.choice(sorted(img))
            if kind == "delete":
                del img[o]
            else:
                img[o] *= -1 if kind == "flip" else Fraction(1, 3)
        return change

    def add(m):
        k = rng.choice((1, 2))
        t = tuple(rng.randrange(n) for _ in range(k))
        m.mu.setdefault(k, {})[t] = {rng.randrange(n): Fraction(rng.choice((1, -2)))}

    def mu3(m):
        t = tuple(rng.randrange(n) for _ in range(3))
        m.mu[3] = {t: {rng.randrange(n): Fraction(1, rng.choice((3, 5)))}}

    def unit(m):
        i = rng.randrange(n)
        m.mu[2][(m.unit, i)] = {i: Fraction(2)}

    def augmentation(m):
        # a letter and its mu_1 image: the chain map and multiplicativity
        # fail at the same first letter
        i = rng.choice(sorted(t for t, in m.mu.get(1, {})) or range(1, n))
        m.augmentation = {m.unit: Fraction(1), i: Fraction(rng.choice((1, -3)), 2)}
        m.augmentation.update((o, Fraction(1, 3)) for o in m.mu_apply(1, (i,)))

    for change in (bump(True), bump(False), off_degree, degenerate, entry("flip"),
                   entry("scale"), entry("delete"), add, mu3, unit, augmentation):
        mutant(change)
    mutant(lambda m: setattr(m, "unit", rng.randrange(1, n)))
    mutant(lambda m: setattr(m, "augmentation", {m.unit: Fraction(1, 2)}))
    return out


def test_check_reports_match_fraction_oracle():
    """Every report of the support-only int checks equals that of the
    exhaustive Fraction checks: pass, failures in order with the reprs (so
    the types) of their values, and the checked counts in order."""
    models = ([build_sn(n).structure for n in range(1, 6)]
              + [build_cpn(n).structure for n in range(1, 8)]
              + [random_cyclic_dga(d, seed=seed)
                 for d, seed in ((6, 0), (6, 1), (6, 2), (6, 3), (10, 0), (10, 1))])
    rng = random.Random(3)
    structures = models + [m for s in models for m in _check_mutants(s, rng)]

    def fields(rep):
        return rep.passed, repr(rep.failures), list(rep.checked.items())

    assert all(check_cyclic_dga(s).passed for s in models)
    names = Counter()
    fractional = False
    for s in structures:
        rep = check_cyclic_dga(s)
        assert fields(rep) == fields(fraction_check_cyclic_dga(s)), s.name
        fractional |= any(c.denominator > 1 for name, _, lhs, _ in rep.failures
                          if name.startswith("A-infinity") for _, c in lhs)
        top = 2 * max(s.arities(), default=0) - 1
        assert fields(check_ainfty(s, top)) == fields(fraction_check_ainfty(s, top))
        for k in s.arities():
            assert fields(check_mu_plus_cyclic(s, k)) == \
                fields(fraction_check_mu_plus_cyclic(s, k)), (s.name, k)
        names.update({f[0] for f in rep.failures})
    # every relation fails on some mutant, and some A-infinity sum has a
    # denominator
    assert {"pairing antisymmetry", "pairing degree", "pairing nondegenerate",
            "mu_1 degree", "mu_2 degree", "mu_3 degree", "mu_1+ cyclicity",
            "mu_2+ cyclicity", "mu_3+ cyclicity", "A-infinity relation arity 2",
            "A-infinity relation arity 3", "A-infinity relation arity 4",
            "A-infinity relation arity 5", "unit degree", "left unit",
            "right unit", "unit kills mu_3", "augmentation of unit",
            "augmentation chain map", "augmentation multiplicative"} <= set(names), names
    assert fractional


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


def _twisted_families(cases):
    """``mu_from_mc`` families: the canonical entry of each (structure,
    weight) plus three seeded words of that weight, so mu_(weight - 1)."""
    from cycibl.dibl import canonical_mc, mu_from_mc
    rng = random.Random(5)
    out = []
    for s, w in cases:
        entry = scaled(canonical_mc(s).entry(1, 0), 1)
        words = [u for u in canonical_words(s.basis, w)
                 if s.basis.word_degree(u) == entry.degree()]
        for u in rng.sample(words, 3):
            entry.add((u,), Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 3)))
        twisted = mu_from_mc(s, entry, w - 1)
        assert twisted.arities()[-1] == w - 1
        out.append(twisted)
    return out


def _sweep_words(s, top):
    return [u for w in range(1, top + 1) for u in canonical_words(s.basis, w)]


def test_shared_canonical_memo_changes_nothing(monkeypatch):
    # a seeded sweep gives the per-word values, items and order, reaches no
    # module-level state, and canonicalizes each word at most once and never
    # a rotation of a swept word below the top weight: only annihilated
    # words and words of the top weight
    from cycibl import algebra
    s3, r6 = build_sn(3).structure, random_cyclic_dga(6, seed=3)
    cases = [(s3, 7), (build_cpn(2).structure, 5), (build_cpn(3).structure, 4),
             (r6, 4), (random_cyclic_dga(10, seed=1), 3)]
    cases += [(t, 5) for t in _twisted_families([(s3, 6), (r6, 4)])]
    module_dicts = {n: len(v) for n, v in vars(algebra).items() if isinstance(v, dict)}
    seen = []
    monkeypatch.setattr(algebra, "canonicalize",
                        lambda w, basis: seen.append(w) or canonicalize(w, basis))
    for s, top in cases:
        words = _sweep_words(s, top)
        seeded = {x for v in words if len(v) < top for x, _ in rotations(v, s.basis)}
        seen.clear()
        swept = list(bar_sweep(s, words))
        calls = list(seen)
        assert [v for v, _ in swept] == words
        for v, col in swept:
            assert list(col.items()) == list(hochschild_b_cyclic(s, v).items()), \
                (s.name, v)
        assert len(calls) == len(set(calls)), s.name
        assert not seeded.intersection(calls), s.name
        assert all(len(w) == top or canonicalize(w, s.basis)[0] is None
                   for w in calls), s.name
        # the per-word route canonicalizes every term it meets
        seen.clear()
        for v in words:
            hochschild_b_cyclic(s, v)
        assert 0 < len(calls) < len(seen), s.name
    assert module_dicts == {n: len(v) for n, v in vars(algebra).items()
                            if isinstance(v, dict)}


def _oracle(s, v):
    return cyclic_image(s, bar_terms(s, v))


def _oracle_table(s, words, skip):
    table = {}
    for v in words:
        for u, c in _oracle(s, v).items():
            if skip is None or skip not in u:
                table.setdefault(u, {})[v] = c
    return table


def _ordered(table):
    return [(u, list(row.items())) for u, row in table.items()]


def test_one_pass_kernel_matches_the_tensor_oracle(monkeypatch):
    # hochschild_b_cyclic, transposed_b with and without a skipped letter
    # and chain_homology's columns against the window terms canonicalized
    # one by one, values and order; the values are those of the summed
    # tensor canonicalized, and so is the order when no tensor word recurs
    # among the terms (a recurring word is added up before the tensor
    # route canonicalizes it, so a class can take another place there)
    from cycibl import homology
    s3, cp2, r6 = (build_sn(3).structure, build_cpn(2).structure,
                   random_cyclic_dga(6, seed=3))
    cases = [(s3, 7), (cp2, 5), (build_cpn(3).structure, 4), (r6, 4),
             (random_cyclic_dga(10, seed=1), 3)]
    cases += zip(_twisted_families([(r6, 4), (cp2, 5), (r6, 5)]), (5, 5, 4))
    columns = {}

    def capture(basis_fn, diff_fn, degrees, *args, **kwargs):
        columns.update((key, list(diff_fn(key).items()))
                       for d in degrees for key in basis_fn(d))

    monkeypatch.setattr(homology, "graded_homology", capture)
    recurring = 0
    for s, top in cases:
        words = _sweep_words(s, top)
        for v in words:
            got = list(hochschild_b_cyclic(s, v).items())
            terms = list(bar_terms(s, v))
            assert got == list(cyclic_image(s, terms).items()), (s.name, v)
            tensor = cyclic_image(s, hochschild_b_tensor(s, v).items())
            assert dict(got) == tensor, (s.name, v)
            if len({w for w, _ in terms}) == len(terms):
                assert got == list(tensor.items()), (s.name, v)
            else:
                recurring += 1
        for skip in (None, s.unit, 1):
            assert _ordered(transposed_b(s, words, skip)) == \
                _ordered(_oracle_table(s, words, skip)), (s.name, skip)
        integral = integral_multiple(s)[1]
        for reduced in (False, True):
            columns.clear()
            homology.chain_homology(s, top, reduced)
            unit = s.unit if reduced else None
            want = {(len(u), u): [((len(v), v), c) for v, c in _oracle(integral, u).items()
                                  if unit is None or unit not in v]
                    for u in words if unit is None or unit not in u}
            assert columns == want, (s.name, reduced)
    assert recurring > 100


def test_seeded_memo_entries_are_canonical_forms(monkeypatch):
    # exhaustive over every word below the top weight on small random
    # graded bases (labels shuffled, so letter order is not rank order):
    # the sweep's memo holds each non-annihilated word, and every entry it
    # holds, periodic and annihilated words included, is canonicalize's
    from cycibl import algebra
    memos = []

    def capture(s, v, arities, canon):
        memos.append(canon)
        return hochschild_b_cyclic(s, v, arities, canon)

    monkeypatch.setattr(algebra, "hochschild_b_cyclic", capture)
    outcomes = Counter()
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(2, 3)
        labels = rng.sample("abcd", n)
        basis = GradedBasis(tuple(labels), tuple(rng.randint(-2, 3) for _ in range(n)))
        mu = {k: {t: {rng.randrange(n): Fraction(rng.choice((-2, -1, 1, 3)))}
                  for t in iproduct(range(n), repeat=k) if rng.random() < 0.3}
              for k in range(1, 4)}
        s = CyclicStructure("random tables", basis, 3, None, mu)
        top = 7
        memos.clear()
        swept = dict(bar_sweep(s, _sweep_words(s, top)))
        assert all(m is memos[0] for m in memos)
        memo = memos[0]
        for w in range(1, top):
            for x in iproduct(range(n), repeat=w):
                assert x in memo or canonicalize(x, basis)[0] is None, (seed, x)
        for x, hit in memo.items():
            assert hit == canonicalize(x, basis), (seed, x)
            periodic = any(x == x[p:] + x[:p] for p in range(1, len(x)))
            outcomes["annihilated" if hit[0] is None else
                     "periodic" if periodic else "aperiodic"] += 1
        for v, col in swept.items():
            assert list(col.items()) == list(_oracle(s, v).items()), (seed, v)
    assert min(outcomes.values()) > 50, outcomes


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
