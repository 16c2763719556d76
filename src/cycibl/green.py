"""Algebraic Schwartz kernels and the homotopy ("Green") operator pipeline.

Operators are degree-homogeneous linear maps on the shifted space, stored
as sparse column maps.  For an operator L of degree |L| the kernel tensor
K_L in the two-fold tensor square satisfies

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
from .linalg import SparseMatrix, add_scaled, kernel_basis, solve

Vector = dict[int, Fraction]


class LinearOperator:
    """A degree-homogeneous operator on the shifted space; column-sparse."""

    __slots__ = ("basis", "degree", "columns")

    def __init__(self, basis, degree: int, columns: list[Vector] | None = None):
        self.basis = basis
        self.degree = degree
        n = len(basis)
        self.columns = [dict() for _ in range(n)] if columns is None else \
            [{i: Fraction(c) for i, c in col.items() if c} for col in columns]
        for j, col in enumerate(self.columns):
            for i in col:
                if basis.degrees[i] != basis.degrees[j] + degree:
                    raise ValueError(
                        f"entry ({i},{j}) violates degree homogeneity")

    def apply(self, vec: Vector) -> Vector:
        out: Vector = {}
        for j, c in vec.items():
            add_scaled(out, self.columns[j], c)
        return out

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self ∘ other."""
        cols = [self.apply(other.columns[j]) for j in range(len(self.basis))]
        return LinearOperator(self.basis, self.degree + other.degree, cols)

    def add(self, other: "LinearOperator", scale=1) -> "LinearOperator":
        if other.degree != self.degree:
            raise ValueError("cannot add operators of different degrees")
        cols = [dict(col) for col in self.columns]
        for col, other_col in zip(cols, other.columns):
            add_scaled(col, other_col, scale)
        return LinearOperator(self.basis, self.degree, cols)

    def scaled(self, scale) -> "LinearOperator":
        scale = Fraction(scale)
        return LinearOperator(self.basis, self.degree,
                              [{i: scale * c for i, c in col.items()}
                               for col in self.columns])

    def is_zero(self) -> bool:
        return all(not col for col in self.columns)

    def __eq__(self, other):
        return (isinstance(other, LinearOperator) and self.basis == other.basis
                and self.degree == other.degree and self.columns == other.columns)

    def entries(self):
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                yield (i, j), c


def identity_operator(basis) -> LinearOperator:
    return LinearOperator(basis, 0, [{j: Fraction(1)} for j in range(len(basis))])


def m1_operator(s: CyclicStructure) -> LinearOperator:
    return LinearOperator(s.basis, 1, s.m1_matrix())


def adjoint(s: CyclicStructure, L: LinearOperator) -> LinearOperator:
    """The pairing adjoint L* with P(x, L*(y)) = (-1)^|x| P(L(x), y).

    With x = e^i, the dual basis vector, the left side picks the
    e_i-coefficient of L*(e_j) times :func:`_dual_sign`, so each L(e^i)
    is computed once and fills row i of every column.
    """
    dual = s.dual_basis()
    n = len(s.basis)
    pdeg = pairing_degree(s)
    cols: list[Vector] = [dict() for _ in range(n)]
    for i in range(n):
        img = L.apply(dual[i])
        if not img:
            continue
        sgn = _dual_sign(s, i) * (-1 if (pdeg - s.basis.degrees[i]) % 2 else 1)
        for j in range(n):
            c = s.pair(img, {j: Fraction(1)})
            if c:
                cols[j][i] = sgn * c
    return LinearOperator(s.basis, L.degree, cols)


def _dual_sign(s: CyclicStructure, c: int) -> int:
    """(-1)^(1 + |e^c| |e_c|), the value of P(e^c, e_c) for the dual basis
    vector e^c (P(e_c, e^c) = 1, and |e^c| = |P| - |e_c|)."""
    d = s.basis.degrees[c]
    return -1 if (1 + (pairing_degree(s) - d) * d) % 2 else 1


def _vector_degree(s: CyclicStructure, vec: Vector) -> int:
    degs = {s.basis.degrees[i] for i, c in vec.items() if c}
    if len(degs) != 1:
        raise ValueError("vector is not homogeneous")
    return degs.pop()


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
    """K_L^{ij} = (-1)^((|L|+1)(|P|+|e_i|)) P(L(e^i), e^j)."""
    dual = s.dual_basis()
    pdeg = pairing_degree(s)
    entries = {}
    for i in range(len(s.basis)):
        img = L.apply(dual[i])
        if not img:
            continue
        for j in range(len(s.basis)):
            val = s.pair(img, dual[j])
            if val:
                e = (L.degree + 1) * (pdeg + s.basis.degrees[i])
                entries[(i, j)] = -val if e % 2 else val
    return KernelTensor(s.basis, pdeg + L.degree, entries)


# ---------------------------------------------------------------------------
# harmonic splitting and the pipeline
# ---------------------------------------------------------------------------

class HarmonicSplitting:
    """V[1] = H ⊕ im(m1) ⊕ C with m1 : C -> im(m1) an isomorphism.

    H is chosen inside ker(m1) and C inside the pairing-orthogonal
    complement of H, which makes the projection onto H self-adjoint for
    the pairing; both choices are deterministic (dot-product complements
    within each degree).  ``image`` is m1 applied to ``complement``, and
    ``coordinates[j]`` expands e_j in the basis harmonic + image +
    complement: the inverse change of basis, shared by the harmonic
    projection and the Green operator.
    """

    def __init__(self, structure: CyclicStructure, harmonic: list[Vector],
                 image: list[Vector], complement: list[Vector],
                 coordinates: list[Vector]):
        self.structure = structure
        self.harmonic = harmonic
        self.image = image
        self.complement = complement
        self.coordinates = coordinates


def _degree_indices(s: CyclicStructure):
    by_deg: dict[int, list[int]] = {}
    for i, d in enumerate(s.basis.degrees):
        by_deg.setdefault(d, []).append(i)
    return by_deg


def _orth_complement_inside(universe: list[Vector], subspace: list[Vector]) -> list[Vector]:
    """Dot-product orthogonal complement of span(subspace) inside span(universe)."""
    if not subspace:
        return [dict(v) for v in universe]
    # universe-combinations annihilating every dot product with the subspace
    rows = []
    for w in subspace:
        rows.append({c: sum((w.get(i, Fraction(0)) * u.get(i, Fraction(0))
                             for i in set(w) | set(u)), Fraction(0))
                     for c, u in enumerate(universe)})
        rows[-1] = {c: v for c, v in rows[-1].items() if v}
    mat = SparseMatrix(len(subspace), len(universe), rows)
    out = []
    for combo in kernel_basis(mat):
        vec: Vector = {}
        for c, a in combo.items():
            add_scaled(vec, universe[c], a)
        out.append(vec)
    return out


def harmonic_splitting(s: CyclicStructure) -> HarmonicSplitting:
    """Deterministic splitting adapted to the differential and the pairing."""
    n = len(s.basis)
    m1 = s.m1_matrix()
    by_deg = _degree_indices(s)
    harmonic: list[Vector] = []
    # kernel and image, degree by degree, from one elimination each
    kernel_by_deg: dict[int, list[Vector]] = {}
    image_by_deg: dict[int, list[Vector]] = {}
    for d, idx in sorted(by_deg.items()):
        kb = kernel_basis(SparseMatrix.from_columns(n, [m1[i] for i in idx]))
        kernel_by_deg[d] = [{idx[c]: v for c, v in vec.items()} for vec in kb]
        # a kernel vector ends at its free column; the other (pivot)
        # columns are independent and span the image
        free = {max(vec) for vec in kb}
        image_by_deg[d + 1] = [m1[i] for c, i in enumerate(idx) if c not in free]
    for d in sorted(by_deg):
        harmonic.extend(_orth_complement_inside(kernel_by_deg[d],
                                                image_by_deg.get(d, [])))

    # C: inside the pairing-orthogonal complement of H, a complement of im(m1)
    if harmonic:
        rows = []
        for h in harmonic:
            row = {}
            for j in range(n):
                val = s.pair(h, {j: Fraction(1)})
                if val:
                    row[j] = val
            rows.append(row)
        perp = kernel_basis(SparseMatrix(len(harmonic), n, rows))
    else:
        perp = [{j: Fraction(1)} for j in range(n)]
    # split perp by degree and take the dot-orthogonal complement of image
    complement: list[Vector] = []
    for d in sorted(by_deg):
        uni = [v for v in perp if v and _vector_degree(s, v) == d]
        complement.extend(_orth_complement_inside(uni, image_by_deg.get(d, [])))

    mop = m1_operator(s)
    image = [mop.apply(c) for c in complement]
    basis_vecs = harmonic + image + complement
    if len(basis_vecs) != n:
        raise ValueError("splitting does not span")
    # m1 fails to be injective on C exactly when these are dependent
    coordinates = solve(basis_vecs, [{j: Fraction(1)} for j in range(n)])
    if None in coordinates:
        raise ValueError("splitting vectors are dependent")
    return HarmonicSplitting(s, harmonic, image, complement, coordinates)


def _expand(coord: Vector, vectors: list[Vector], offset: int) -> Vector:
    """sum over r of coord[offset + r] * vectors[r]."""
    out: Vector = {}
    for r, vec in enumerate(vectors):
        if a := coord.get(offset + r):
            add_scaled(out, vec, a)
    return out


def harmonic_projection(split: HarmonicSplitting) -> LinearOperator:
    """Projection onto H along im(m1) ⊕ C."""
    return LinearOperator(split.structure.basis, 0,
                          [_expand(coord, split.harmonic, 0)
                           for coord in split.coordinates])


def green_build(s: CyclicStructure, split: HarmonicSplitting) -> LinearOperator:
    """Degree -1 solution of m1 G + G m1 = proj_H - id:
    G = -(m1|_C)^{-1} on im(m1), zero on H and C.

    The image part of e_j is expanded in image = m1(C), so (m1|_C)^{-1}
    maps it to the same coefficients on C.
    """
    return LinearOperator(s.basis, -1,
                          [_expand(coord, split.complement, len(split.harmonic))
                           for coord in split.coordinates]).scaled(-1)


def green_symmetrize(s: CyclicStructure, G: LinearOperator) -> LinearOperator:
    """G' = (G + G*)/2 with the (G3)-signed adjoint; preserves (G2) because
    the harmonic projection of the splitting is pairing-self-adjoint."""
    return G.add(adjoint(s, G)).scaled(Fraction(1, 2))


def green_project(s: CyclicStructure, G: LinearOperator,
                  proj: LinearOperator) -> LinearOperator:
    """(id - proj) G (id - proj): arranges (G4), keeps (G2) and (G3)."""
    one = identity_operator(s.basis)
    q = one.add(proj, scale=-1)
    return q.compose(G).compose(q)


def green_gdg(s: CyclicStructure, G: LinearOperator) -> LinearOperator:
    """The square-zero correction G' = -G m1 G.

    With the homotopy convention (G2) as stated, this is the variant of the
    classical trick that again satisfies (G2); it obeys the exact rewriting
    G' = G - m1 G G G m1 and squares to zero.
    """
    m1 = m1_operator(s)
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
    """Exact pass/fail for (G2)-(G5) with witnesses."""
    m1 = m1_operator(s)
    one = identity_operator(s.basis)
    results = {}
    witnesses = {}

    lhs = m1.compose(G).add(G.compose(m1))
    rhs = proj.add(one, scale=-1)
    diff = lhs.add(rhs, scale=-1)
    results["G2"] = diff.is_zero()
    if not results["G2"]:
        witnesses["G2"] = next(iter(diff.entries()))

    diff = G.add(adjoint(s, G), scale=-1)
    results["G3"] = diff.is_zero()
    if not results["G3"]:
        witnesses["G3"] = next(iter(diff.entries()))

    gp = G.compose(proj)
    pg = proj.compose(G)
    results["G4"] = gp.is_zero() and pg.is_zero()
    if not results["G4"]:
        bad = gp if not gp.is_zero() else pg
        witnesses["G4"] = next(iter(bad.entries()))

    gg = G.compose(G)
    results["G5"] = gg.is_zero()
    if not results["G5"]:
        witnesses["G5"] = next(iter(gg.entries()))
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
    g3 = green_gdg(s, g2)
    return g3, proj, [g0, g1, g2, g3]


def gdg_rewriting_holds(s: CyclicStructure, G: LinearOperator) -> bool:
    """G' = G - m1 G G G m1 for the square-zero correction G' = -G m1 G."""
    m1 = m1_operator(s)
    left = green_gdg(s, G)
    right = G.add(m1.compose(G).compose(G).compose(G).compose(m1), scale=-1)
    return left.add(right, scale=-1).is_zero()


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
    pairing = None
    if s.pairing is not None:
        pairing = [[s.pairing[a][b] for b in letters] for a in letters]
    mu = {}
    for k, table in s.mu.items():
        tbl = {}
        for ins, out in table.items():
            if not all(i in pos for i in ins):
                continue
            if any(o not in pos for o in out):
                if out:
                    raise ValueError("letters do not span a subalgebra")
                continue
            tbl[tuple(pos[i] for i in ins)] = {pos[o]: c for o, c in out.items()}
        mu[k] = tbl
    unit = pos.get(s.unit) if s.unit is not None else None
    aug = None
    if s.augmentation is not None:
        aug = {pos[i]: c for i, c in s.augmentation.items() if i in pos}
    return CyclicStructure(
        name=f"{s.name}|harmonic",
        basis=GradedBasis(labels, degrees),
        manifold_dim=s.manifold_dim,
        pairing=pairing,
        mu=mu,
        unit=unit,
        augmentation=aug,
    )
