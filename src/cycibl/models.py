"""Built-in cyclic structures with known homology tables, plus random generators.

The sphere model S^n has basis {1, w} in shifted degrees (-1, n-1), pairing
[[0,1],[(-1)^n,0]] and products 1*1 = 1, 1*w = w, w*1 = (-1)^n w, w*w = 0.
The projective model CP^n (complex dimension n, manifold dimension 2n) is
the truncated polynomial algebra on a generator of degree 2 with a pairing:
basis e_0..e_n in shifted degrees 2i-1, products e_i * e_j = e_{i+j} (zero
above the top class) and the antidiagonal pairing.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from .algebra import CyclicStructure, check_cyclic_dga
from .signs import GradedBasis
from .words import CochainTensor


class ModelBundle:
    """A built-in model: its structure, checked on construction."""

    def __init__(self, structure: CyclicStructure):
        self.structure = structure


def build_sn(n: int) -> ModelBundle:
    """The sphere model: basis {1, w}, |1| = -1, |w| = n - 1 (shifted)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    one = Fraction(1)
    sgn = -one if n % 2 else one
    basis = GradedBasis(("1", "w"), (-1, n - 1))
    mu2 = {
        (0, 0): {0: one},
        (0, 1): {1: one},
        (1, 0): {1: sgn},
        (1, 1): {},
    }
    s = CyclicStructure(
        name=f"S{n}",
        basis=basis,
        manifold_dim=n,
        pairing=[[Fraction(0), one], [sgn, Fraction(0)]],
        mu={1: {}, 2: mu2},
        unit=0,
        augmentation={0: one},
    )
    return _checked(s)


def build_cpn(n: int) -> ModelBundle:
    """The projective model: :func:`truncated_polynomial` of degree 2 with
    the letters e_0..e_n (|e_i| = 2i - 1, e_i * e_j = e_{i+j}) and the
    antidiagonal pairing, manifold dimension 2n.

    Volume normalization is absorbed into the basis; all structure
    constants are rational.
    """
    poly = truncated_polynomial(n, 2)
    labels = tuple(f"e{i}" for i in range(n + 1))
    pairing = [[Fraction(int(i + j == n)) for j in range(n + 1)] for i in range(n + 1)]
    return _checked(poly.replace(name=f"CP{n}", pairing=pairing,
                                 basis=GradedBasis(labels, poly.basis.degrees)))


def truncated_polynomial(n: int, d: int = 2) -> CyclicStructure:
    """The algebra of polynomials in one generator of even degree d, truncated
    above the n-th power, without a pairing (:func:`build_cpn` gives it one)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d <= 0 or d % 2:
        raise ValueError("the generator degree must be even and positive")
    one = Fraction(1)
    labels = tuple(f"x{i}" for i in range(n + 1))
    basis = GradedBasis(labels, tuple(d * i - 1 for i in range(n + 1)))
    mu2 = {}
    for i in range(n + 1):
        for j in range(n + 1):
            mu2[(i, j)] = {i + j: one} if i + j <= n else {}
    return CyclicStructure(
        name=f"k[x]/(x^{n + 1})",
        basis=basis,
        manifold_dim=d * n,  # only parity-relevant; matches the paired sibling
        pairing=None,
        mu={1: {}, 2: mu2},
        unit=0,
        augmentation={0: one},
    )


def _checked(s: CyclicStructure) -> ModelBundle:
    """The bundle of a built-in model that passes :func:`check_cyclic_dga`."""
    rep = check_cyclic_dga(s)
    if not rep.passed:
        raise AssertionError(f"{s.name} model is inconsistent: {rep.summary()}")
    return ModelBundle(s)


# ---------------------------------------------------------------------------
# circle twist configuration
# ---------------------------------------------------------------------------

class S1TwistConfig:
    """Moment data for the circle's genus-zero two-output twist entry.

    ``moments[k]`` is the value attached to total length k; only even
    k >= 2 may be nonzero.
    """

    def __init__(self, moments: dict[int, Fraction]):
        self.moments = moments
        for k, v in moments.items():
            if k % 2 and v:
                raise ValueError("odd moments must vanish")
            if k < 2 and v:
                raise ValueError("moments start at 2")

    def value(self, k: int) -> Fraction:
        if k % 2:
            return Fraction(0)
        return Fraction(self.moments.get(k, Fraction(0)))


def build_s1_pmc(config: S1TwistConfig, weight_bound: int):
    """The circle's twist family: the canonical weight-three entry plus the
    two-output entry supported on pairs of w-power words,

        pmc20(s w^a ⊗ s w^b) = 1/2 (a+b)! I(a+b) (-1)^(a+1) a C(a+b-1, a),

    which is symmetric because a C(a+b-1, a) is symmetric in (a, b) and
    I kills odd total length.  Entries beyond (1,0) vanish on any word
    containing the unit letter.
    """
    from .dibl import MaurerCartanFamily, canonical_mc

    bundle = build_sn(1)
    s = bundle.structure
    mc = canonical_mc(s)
    pmc20 = CochainTensor(s.basis, 2, s.slot_shift)
    w = 1  # index of the volume letter
    for a in range(1, weight_bound + 1):
        for b in range(a, weight_bound + 1 - a):
            # a <= b only: the symmetric storage supplies the mirror slot,
            # and a C(a+b-1, a) is symmetric in (a, b)
            val = Fraction(1, 2) * factorial(a + b) * config.value(a + b) \
                * (1 if a % 2 else -1) * a * comb(a + b - 1, a)
            if val:
                pmc20.add(((w,) * a, (w,) * b), val)
    fam = MaurerCartanFamily(s, {(1, 0): mc.entry(1, 0), (2, 0): pmc20})
    return fam


# ---------------------------------------------------------------------------
# randomized cyclic dg algebras
# ---------------------------------------------------------------------------

def random_cyclic_dga(dim: int, seed: int = 0,
                      check: bool = True) -> CyclicStructure:
    """A seeded random cyclic dg algebra passing all axiom checks.

    Construction: a sphere-like harmonic core {1, w} plus acyclic blocks
    (a -> b, p -> q) paired across the middle degree, with products fixed by
    the unit, Leibniz and the cyclic symmetry of the triple product.  Random
    choices: the manifold dimension (2 to 4), the block degrees (alpha
    from 0 to 2), and the pairing normalizations of each block.
    """
    if dim > 10:
        raise ValueError("random structures are kept small (dim <= 10)")
    rng = random.Random(seed)
    m = 2 + rng.randrange(3)  # manifold dimension 2, 3 or 4
    blocks = max(0, (dim - 2) // 4)

    labels = ["1", "w"]
    degrees = [-1, m - 1]
    one = Fraction(1)
    sgn_m = -one if m % 2 else one
    pairing_entries = {(0, 1): one, (1, 0): sgn_m}
    mu1 = {}
    mu2 = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: sgn_m}, (1, 1): {}}

    def nonzero_scalar():
        return Fraction(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 3))

    for _ in range(blocks):
        alpha = rng.randint(0, 2)
        base = len(labels)
        ia, ib, ip, iq = base, base + 1, base + 2, base + 3
        labels += [f"a{base}", f"b{base}", f"p{base}", f"q{base}"]
        degrees += [alpha, alpha + 1, m - 3 - alpha, m - 2 - alpha]
        sval = nonzero_scalar()
        # P(a, q) = sval forces P(b, p) = (-1)^(alpha+1) sval via m1+ symmetry
        beta = sval if alpha % 2 else -sval
        pairing_entries[(ia, iq)] = sval
        pairing_entries[(ib, ip)] = beta
        mu1[(ia,)] = {ib: one}
        mu1[(ip,)] = {iq: one}
        # products with the unit
        for idx in (ia, ib, ip, iq):
            mu2[(0, idx)] = {idx: one}
            mu2[(idx, 0)] = {idx: one if degrees[idx] % 2 else -one}

    n = len(labels)
    basis = GradedBasis(tuple(labels), tuple(degrees))
    pairing = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in pairing_entries.items():
        pairing[i][j] = v
        pairing[j][i] = v if degrees[i] * degrees[j] % 2 else -v

    # products of non-unit letters land on the volume class with coefficient
    # equal to their pairing; cyclicity of the triple product against the
    # unit pins exactly this value, and Leibniz follows from the symmetry
    # of the paired differential
    for i in range(1, n):
        for j in range(1, n):
            if (i, j) in mu2:
                continue
            c = pairing[i][j]
            mu2[(i, j)] = {1: c} if c else {}

    s = CyclicStructure(
        name=f"random-{seed}",
        basis=basis,
        manifold_dim=m,
        pairing=pairing,
        mu={1: mu1, 2: mu2},
        unit=0,
        augmentation={0: one},
    )
    if check:
        rep = check_cyclic_dga(s)
        if not rep.passed:
            raise AssertionError(
                f"random structure (seed {seed}) inconsistent: {rep.summary()}")
    return s
