"""Algebraic Schwartz kernels and the homotopy ("Green") operator pipeline.

Operators are degree-homogeneous linear maps on the shifted space, stored
as int columns over one positive denominator in the primitive form of
:mod:`cycibl.linalg`, so equal operators have equal fields; ``compose``,
``add``, ``scaled`` and ``is_zero`` work on ints only.  For an operator L
of degree |L| the kernel tensor K_L in the two-fold tensor square
satisfies

    P(L(w1), w2) = P(K_L, w1 ⊗ w2)

for the Koszul-extended pairing, which in coordinates reads

    K_L^{ij} = (-1)^((|L| + 1)(|P| + |e_i|)) P(L(e^i), e^j),

with |P| = m - 2 the degree of the pairing.  The homotopy conditions are

    (G2)  m1 G + G m1 = proj_H - id         (harmonic projection proj_H)
    (G3)  P(G x, y) = (-1)^|x| P(x, G y)
    (G4)  G proj_H = proj_H G = 0
    (G5)  G G = 0

(the smoothness condition (G1) has no finite-dimensional content and is
reported as vacuous).  The pipeline build -> symmetrize -> project -> gdg
produces an operator with (G2)-(G5); the last step uses G' = -G m1 G, the
sign being forced by (G2) as written, and satisfies the exact rewriting
G' = G - m1 G G G m1.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import CyclicStructure
from .linalg import (SparseMatrix, add_into, add_scaled, integral, kernel_basis,
                     primitive, solve)

Vector = dict[int, Fraction]
IntVector = dict[int, int]


class LinearOperator:
    """A degree-homogeneous operator on the shifted space: column j is
    ``cols[j] / den`` in primitive form.  The constructor takes one column
    of ints or ``Fraction``s per basis vector.  No method changes an
    operator's own columns: :func:`m1_operator` shares them with its
    structure."""

    __slots__ = ("basis", "degree", "cols", "den")

    def __init__(self, basis, degree: int, columns: list[Vector]):
        den, *cols = integral(*columns)
        self._set(basis, degree, cols, den)

    def _set(self, basis, degree: int, cols: list[IntVector], den: int) -> None:
        """Check shape and degree homogeneity, then store ``cols``, divided
        in place, over ``den`` in primitive form."""
        degs = basis.degrees
        n = len(degs)
        if len(cols) != n:
            raise ValueError(f"{len(cols)} columns for a basis of {n} vectors")
        for j, col in enumerate(cols):
            want = degs[j] + degree
            for i in col:
                if not 0 <= i < n:
                    raise ValueError(f"row {i} of column {j} is outside range({n})")
                if degs[i] != want:
                    raise ValueError(f"entry ({i},{j}) violates degree homogeneity")
        den = primitive(cols, den)
        self.basis, self.degree, self.cols, self.den = basis, degree, cols, den

    def _image(self, vec: dict) -> dict:
        """``den`` times the image of ``vec``: sum over j of vec[j] * cols[j]."""
        out: dict = {}
        for j, c in vec.items():
            add_scaled(out, self.cols[j], c)
        return out

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self ∘ other."""
        return _int_operator(self.basis, self.degree + other.degree,
                             [self._image(col) for col in other.cols],
                             self.den * other.den)

    def add(self, other: "LinearOperator", scale=1) -> "LinearOperator":
        """self + scale·other, for an int or ``Fraction`` scale."""
        if other.degree != self.degree:
            raise ValueError("cannot add operators of different degrees")
        q, num = integral({0: scale})
        a, b = q * other.den, num.get(0, 0) * self.den
        cols = [{i: a * c for i, c in col.items()} for col in self.cols]
        for col, other_col in zip(cols, other.cols):
            add_scaled(col, other_col, b)
        return _int_operator(self.basis, self.degree, cols, a * self.den)

    def scaled(self, scale) -> "LinearOperator":
        q, num = integral({0: scale})
        p = num.get(0, 0)
        cols = [{i: p * c for i, c in col.items() if p} for col in self.cols]
        return _int_operator(self.basis, self.degree, cols, self.den * q)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __eq__(self, other):
        return (isinstance(other, LinearOperator) and self.basis == other.basis
                and self.degree == other.degree and self.den == other.den
                and self.cols == other.cols)

    @property
    def columns(self) -> list[Vector]:
        return [{i: Fraction(c, self.den) for i, c in col.items()}
                for col in self.cols]

    def entries(self):
        for j, col in enumerate(self.cols):
            for i, c in col.items():
                yield (i, j), Fraction(c, self.den)


def _int_operator(basis, degree: int, cols: list[IntVector],
                  den: int = 1) -> LinearOperator:
    """The operator with int columns ``cols / den`` (no zero entries)."""
    op = LinearOperator.__new__(LinearOperator)
    op._set(basis, degree, cols, den)
    return op


def identity_operator(basis) -> LinearOperator:
    return _int_operator(basis, 0, [{j: 1} for j in range(len(basis))])


def m1_operator(s: CyclicStructure) -> LinearOperator:
    """mu_1 as an operator on the structure's int columns
    (:meth:`~cycibl.algebra.CyclicStructure.m1_columns`), which it shares:
    no operator method changes its own columns."""
    den, *cols = s.m1_columns()
    return _int_operator(s.basis, 1, cols, den)


def adjoint(s: CyclicStructure, L: LinearOperator) -> LinearOperator:
    """The pairing adjoint L* with P(x, L*(y)) = (-1)^|x| P(L(x), y).

    With x = e^i, the dual basis vector, the left side picks the
    e_i-coefficient of L*(e_j) times :func:`_dual_sign`, so each L(e^i),
    contracted with the int rows of the pairing matrix, fills row i of
    every column.
    """
    dual_den, *dual = s.dual_basis()
    pden, *prows = s.pairing_rows()
    pdeg = pairing_degree(s)
    cols: list[IntVector] = [dict() for _ in dual]
    for i, vec in enumerate(dual):
        img = L._image(vec)
        sgn = _dual_sign(s, i) * (-1 if (pdeg - s.basis.degrees[i]) % 2 else 1)
        for k, a in img.items():
            a *= sgn
            for j, p in prows[k].items():
                add_into(cols[j], i, a * p)
    return _int_operator(s.basis, L.degree, cols, L.den * dual_den * pden)


def _dual_sign(s: CyclicStructure, c: int) -> int:
    """(-1)^(1 + |e^c| |e_c|), the value of P(e^c, e_c) for the dual basis
    vector e^c (P(e_c, e^c) = 1, and |e^c| = |P| - |e_c|)."""
    d = s.basis.degrees[c]
    return -1 if (1 + (pairing_degree(s) - d) * d) % 2 else 1


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class KernelTensor:
    """Element of the two-fold tensor square as sparse coefficients."""

    def __init__(self, basis, degree: int,
                 entries: dict[tuple[int, int], Fraction]):
        self.basis = basis
        self.degree = degree
        self.entries = {k: Fraction(v) for k, v in entries.items() if v}
        for (i, j) in self.entries:
            if basis.degrees[i] + basis.degrees[j] != degree:
                raise ValueError(f"kernel entry ({i},{j}) off-degree")

    def is_symmetric_propagator(self) -> bool:
        """Twist symmetry tau(K) = (-1)^|K| K."""
        sgn = -1 if self.degree % 2 else 1
        for (i, j), v in self.entries.items():
            tw = -1 if (self.basis.degrees[i] * self.basis.degrees[j]) % 2 else 1
            if self.entries.get((j, i), Fraction(0)) != sgn * tw * v:
                return False
        return True


def check_propagator(basis, entries: dict[tuple[int, int], Fraction]) -> None:
    """Raise ``ValueError`` unless the nonzero entries form a
    degree-homogeneous twist-symmetric propagator (the zero kernel is one)."""
    degs = {basis.degrees[i] + basis.degrees[j] for (i, j), v in entries.items() if v}
    if len(degs) > 1:
        raise ValueError("propagator kernel is not degree homogeneous")
    if degs and not KernelTensor(basis, degs.pop(), entries).is_symmetric_propagator():
        raise ValueError("propagator kernel fails the twist symmetry")


def pairing_degree(s: CyclicStructure) -> int:
    return s.manifold_dim - 2


def schwartz_kernel(s: CyclicStructure, L: LinearOperator) -> KernelTensor:
    """K_L^{ij} = (-1)^((|L|+1)(|P|+|e_i|)) P(L(e^i), e^j), where P(v, e^j)
    is the e_j-coefficient of v: row i of the kernel is L(e^i) up to sign,
    read off the int image of the int dual vector over both denominators."""
    pdeg = pairing_degree(s)
    d, *dual = s.dual_basis()
    den = L.den * d
    entries = {}
    for i, vec in enumerate(dual):
        img = L._image(vec)
        sgn = -1 if (L.degree + 1) * (pdeg + s.basis.degrees[i]) % 2 else 1
        for j in sorted(img):
            entries[(i, j)] = Fraction(sgn * img[j], den)
    return KernelTensor(s.basis, pdeg + L.degree, entries)


# ---------------------------------------------------------------------------
# harmonic splitting and the pipeline
# ---------------------------------------------------------------------------

class HarmonicSplitting:
    """V[1] = H ⊕ im(m1) ⊕ C with m1 : C -> im(m1) an isomorphism.

    H is chosen inside ker(m1) and C inside the pairing-orthogonal
    complement of H, which makes the projection onto H self-adjoint for
    the pairing; both choices are deterministic (dot-product complements
    within each degree) and depend on subspaces only, so the spanning
    vectors are primitive int vectors.  ``coordinates[j] / den`` expands
    e_j in the basis harmonic + image + complement, with image the int
    columns of ``m1`` applied to ``complement``: the inverse change of
    basis, shared by the harmonic projection and the Green operator.
    """

    def __init__(self, m1: LinearOperator, harmonic: list[IntVector],
                 complement: list[IntVector], coordinates: list[IntVector], den: int):
        self.m1 = m1
        self.harmonic = harmonic
        self.complement = complement
        self.coordinates = coordinates
        self.den = den


def _orth_complement_inside(universe: list[IntVector],
                            subspace: list[IntVector]) -> list[IntVector]:
    """Dot-product orthogonal complement of span(subspace) inside
    span(universe), one primitive int vector per spanning ray."""
    if subspace:
        # universe-combinations annihilating every dot product with the subspace
        rows = [{c: dot for c, u in enumerate(universe)
                 if (dot := sum(a * u.get(i, 0) for i, a in w.items()))}
                for w in subspace]
        mat = SparseMatrix(len(subspace), len(universe), rows)
        universe = [_expand(combo, universe, 0) for combo in kernel_basis(mat)]
    for vec in universe:
        primitive((vec,))
    return universe


def harmonic_splitting(s: CyclicStructure) -> HarmonicSplitting:
    """Deterministic splitting adapted to the differential and the pairing."""
    n = len(s.basis)
    degs = s.basis.degrees
    m1 = m1_operator(s)
    by_deg: dict[int, list[int]] = {}
    for i, d in enumerate(degs):
        by_deg.setdefault(d, []).append(i)
    # kernel and image, degree by degree, from one elimination each: a
    # kernel vector ends at its free column, and the other (pivot) columns
    # are independent and span the image.  The image in degree d comes
    # from degree d - 1, so H is ready in degree order.
    harmonic: list[IntVector] = []
    image_by_deg: dict[int, list[IntVector]] = {}
    for d, idx in sorted(by_deg.items()):
        kb = kernel_basis(SparseMatrix.from_columns(n, [m1.cols[i] for i in idx]))
        free = {max(vec) for vec in kb}
        image_by_deg[d + 1] = [m1.cols[i] for c, i in enumerate(idx) if c not in free]
        harmonic.extend(_orth_complement_inside(
            [{idx[c]: v for c, v in vec.items()} for vec in kb],
            image_by_deg.get(d, [])))

    # C: inside the pairing-orthogonal complement of H, a complement of im(m1)
    perp = [{j: 1} for j in range(n)]
    if harmonic:
        _, *prows = s.pairing_rows()
        perp = kernel_basis(SparseMatrix(
            len(harmonic), n, [_expand(h, prows, 0) for h in harmonic]))
    # split perp by degree and take the dot-orthogonal complement of image
    complement: list[IntVector] = []
    for d in sorted(by_deg):
        uni = [v for v in perp if {degs[i] for i in v} == {d}]
        complement.extend(_orth_complement_inside(uni, image_by_deg.get(d, [])))

    basis_vecs = harmonic + [m1._image(c) for c in complement] + complement
    if len(basis_vecs) != n:
        raise ValueError("splitting does not span")
    # m1 fails to be injective on C exactly when these are dependent
    den, *coordinates = solve(basis_vecs, [{j: 1} for j in range(n)])
    if None in coordinates:
        raise ValueError("splitting vectors are dependent")
    return HarmonicSplitting(m1, harmonic, complement, coordinates, den)


def _expand(coord: dict, vectors: list[dict], offset: int) -> dict:
    """sum over r of coord[offset + r] * vectors[r]."""
    out: dict = {}
    for r, vec in enumerate(vectors):
        if a := coord.get(offset + r):
            add_scaled(out, vec, a)
    return out


def harmonic_projection(split: HarmonicSplitting) -> LinearOperator:
    """Projection onto H along im(m1) ⊕ C."""
    return _int_operator(split.m1.basis, 0,
                         [_expand(coord, split.harmonic, 0)
                          for coord in split.coordinates], split.den)


def green_build(s: CyclicStructure, split: HarmonicSplitting) -> LinearOperator:
    """Degree -1 solution of m1 G + G m1 = proj_H - id:
    G = -(m1|_C)^{-1} on im(m1), zero on H and C.

    The image part of e_j is expanded in image = m1.den * m1(C), so
    (m1|_C)^{-1} maps it to m1.den times the same coefficients on C.
    """
    return _int_operator(s.basis, -1,
                         [_expand(coord, split.complement, len(split.harmonic))
                          for coord in split.coordinates],
                         split.den).scaled(-split.m1.den)


def green_symmetrize(s: CyclicStructure, G: LinearOperator) -> LinearOperator:
    """G' = (G + G*)/2 with the (G3)-signed adjoint; preserves (G2) because
    the harmonic projection of the splitting is pairing-self-adjoint."""
    return G.add(adjoint(s, G)).scaled(Fraction(1, 2))


def green_project(s: CyclicStructure, G: LinearOperator,
                  proj: LinearOperator) -> LinearOperator:
    """(id - proj) G (id - proj): arranges (G4), keeps (G2) and (G3)."""
    q = identity_operator(s.basis).add(proj, scale=-1)
    return q.compose(G).compose(q)


def green_gdg(G: LinearOperator, m1: LinearOperator) -> LinearOperator:
    """The square-zero correction G' = -G m1 G.

    With the homotopy convention (G2) as stated, this is the variant of the
    classical trick that again satisfies (G2); it obeys the exact rewriting
    G' = G - m1 G G G m1 and squares to zero.
    """
    return G.compose(m1).compose(G).scaled(-1)


class GreenReport:
    """Pass/fail of (G2)-(G5) by name, with a witness entry per failure."""

    note = "(G1) is vacuous for finite-dimensional coefficients"

    def __init__(self, results: dict[str, bool], witnesses: dict[str, tuple]):
        self.results = results
        self.witnesses = witnesses

    @property
    def passed(self) -> bool:
        return all(self.results.values())

    def summary(self) -> str:
        parts = [f"{name}: {'pass' if ok else 'FAIL'}"
                 for name, ok in sorted(self.results.items())]
        return ", ".join(parts) + f"  [{self.note}]"


def check_g_properties(s: CyclicStructure, G: LinearOperator,
                       proj: LinearOperator) -> GreenReport:
    """Exact pass/fail for (G2)-(G5) with witnesses.  (G2) needs degree -1:
    an operator of degree d != -1 fails it with the witness ``("degree", d)``."""
    m1 = m1_operator(s)
    results, witnesses = {}, {}

    def record(name, lhs, rhs=None):
        """lhs = rhs (rhs = 0 when None); an entry of lhs - rhs witnesses a failure."""
        diff = lhs if rhs is None else lhs.add(rhs, scale=-1)
        results[name] = diff.is_zero()
        if not results[name]:
            witnesses[name] = next(diff.entries())

    if G.degree == -1:
        record("G2", m1.compose(G).add(G.compose(m1)),
               proj.add(identity_operator(s.basis), scale=-1))
    else:  # m1 G + G m1 has degree G.degree + 1, the right side degree 0
        results["G2"], witnesses["G2"] = False, ("degree", G.degree)
    record("G3", G, adjoint(s, G))
    gp = G.compose(proj)
    record("G4", gp if not gp.is_zero() else proj.compose(G))
    record("G5", G.compose(G))
    return GreenReport(results, witnesses)


def green_pipeline(s: CyclicStructure):
    """build -> symmetrize -> project -> square-zero correction.

    Returns (final operator, harmonic projection, list of stage operators).
    """
    split = harmonic_splitting(s)
    proj = harmonic_projection(split)
    g0 = green_build(s, split)
    g1 = green_symmetrize(s, g0)
    g2 = green_project(s, g1, proj)
    g3 = green_gdg(g2, split.m1)
    return g3, proj, [g0, g1, g2, g3]


def gdg_rewriting_holds(s: CyclicStructure, G: LinearOperator) -> bool:
    """G' = G - m1 G G G m1 for the square-zero correction G' = -G m1 G."""
    m1 = m1_operator(s)
    right = G.add(m1.compose(G).compose(G).compose(G).compose(m1), scale=-1)
    return green_gdg(G, m1) == right


def harmonic_substructure(s: CyclicStructure, letters: list[int]) -> CyclicStructure:
    """The cyclic structure on a letter-spanned subspace closed under the product.

    Requires the given letters to span a subalgebra containing the unit,
    with the restricted pairing nondegenerate; used for the fixed-point
    side of the transfer.
    """
    from .signs import GradedBasis

    letters = list(letters)
    pos = {old: new for new, old in enumerate(letters)}
    labels = tuple(s.basis.labels[i] for i in letters)
    degrees = tuple(s.basis.degrees[i] for i in letters)
    pairing = (None if s.pairing is None
               else [[s.pairing[a][b] for b in letters] for a in letters])
    mu = {}
    for k, table in s.mu.items():
        tbl = {}
        for ins, out in table.items():
            if not all(i in pos for i in ins):
                continue
            if any(o not in pos for o in out):
                raise ValueError("letters do not span a subalgebra")
            tbl[tuple(pos[i] for i in ins)] = {pos[o]: c for o, c in out.items()}
        mu[k] = tbl
    aug = (None if s.augmentation is None
           else {pos[i]: c for i, c in s.augmentation.items() if i in pos})
    return CyclicStructure(f"{s.name}|harmonic", GradedBasis(labels, degrees),
                           s.manifold_dim, pairing, mu, pos.get(s.unit), aug)
