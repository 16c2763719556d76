"""Helpers shared by several test modules (pytest does not collect this file).

* ``bar_terms`` (the terms of the bar differential on a plain tensor word,
  in order), ``hochschild_b_tensor`` (their sum) and ``cyclic_image`` (plain
  terms canonicalized one by one): the oracle of the one-pass cyclic
  kernel ``algebra.hochschild_b_cyclic``.
* The classical (unshifted) Hochschild complex and the degree shift that
  conjugates it to the bar differential: a second route to b, the oracle
  of acceptance criterion 12.
* ``rotate``: one signed rotation, the oracle of ``words.rotations``.
* ``sparse_from_entries``: an int ``SparseMatrix`` from ``(row, col) ->
  value``.
* ``oracle_rref``, ``oracle_kernel``, ``oracle_solve`` and
  ``oracle_dual_basis``: the reduced row echelon form, kernel, solutions
  and dual basis on ``Fraction``s, rescanning every remaining row for the
  least lead column; the rational route that ``linalg``'s int solvers and
  ``CyclicStructure.dual_basis`` equal once normalized.  ``as_fractions``
  reads the ``(d, d·x_0, ...)`` int form as rationals.
* ``scaled`` and ``difference`` (cochain tensors) and ``apply`` (an int
  operator on a rational vector): arithmetic that only tests use.
* ``random_s1_config``: seeded moments for the circle's two-output twist
  entry.
* ``collection_sign`` and ``product_twisted_q110``: the twisted boundary
  through the product with the (1,0) entry, the oracle of its route
  through ``dibl.circ1``.
* ``pair`` (the pairing on two vectors) and ``mu_plus`` (one value of
  P(mu_k ⊗ id)), evaluated entry by entry.
* ``fraction_check_cyclic_dga``, ``fraction_check_ainfty`` and
  ``fraction_check_mu_plus_cyclic``: the axiom checks on ``Fraction``s,
  walking every letter and pair of letters; the oracle of the checks of
  ``cycibl.algebra``, which visit only the stored support on ints.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cycibl.algebra import CheckReport, CyclicStructure, Tensor, Vector, _freeze
from cycibl.dibl import MaurerCartanFamily, q110, q210
from cycibl.green import LinearOperator
from cycibl.linalg import SparseMatrix, add_into, add_scaled, integral, rank
from cycibl.models import S1TwistConfig
from cycibl.signs import GradedBasis
from cycibl.words import CochainTensor, Word, canonicalize, rotation_sign


def bar_terms(s: CyclicStructure, letters: Word):
    """The terms ``(word, coefficient)`` of the full bar differential
    b = b' + R on a plain tensor word, one per image letter, in order.

    b'^k sums t^i ∘ (mu_j ⊗ id) ∘ t^{-i} over j = 1..k, i = 0..k-j; the
    remainder R^k sums (mu_j ⊗ id) ∘ t^i over j and i = 1..j-1.  Rotation
    signs come from the prefix degree sums of the word.
    """
    letters = tuple(letters)
    k = len(letters)
    deg = s.basis.degrees
    prefix = [0]
    for x in letters:
        prefix.append(prefix[-1] + deg[x])
    total = prefix[k]
    for j in s.arities():
        if j > k:
            break
        table = s.mu[j]
        # b' part: t^{-i} = t^{k-i} brings letters[i:] to the front, mu_j
        # acts on letters[i:i+j], and t^i moves letters[:i] back in front
        for i in range(0, k - j + 1):
            img = table.get(letters[i:i + j])
            if not img:
                continue
            sgn0 = rotation_sign(total, total - prefix[i])
            rest = total - prefix[i + j] + prefix[i]
            for mid, c in img.items():
                sign = sgn0 * rotation_sign(rest + deg[mid], prefix[i])
                yield letters[:i] + (mid,) + letters[i + j:], c if sign > 0 else -c
        # R part: t^i brings the last i letters to the front
        for i in range(1, j):
            base = letters[k - i:] + letters[:k - i]
            img = table.get(base[:j])
            if not img:
                continue
            negate = rotation_sign(total, total - prefix[k - i]) < 0
            for mid, c in img.items():
                yield (mid,) + base[j:], -c if negate else c


def hochschild_b_tensor(s: CyclicStructure, letters: Word) -> Tensor:
    """b = b' + R on a plain tensor word, as a dict of tensor words."""
    acc: Tensor = {}
    for w, c in bar_terms(s, letters):
        add_into(acc, w, c)
    return acc


def cyclic_image(s: CyclicStructure, terms) -> Tensor:
    """The class of a sum of plain tensor words, on canonical words: each
    term canonicalized on its own and added in the order given."""
    acc: Tensor = {}
    for w, c in terms:
        canon, sign = canonicalize(w, s.basis)
        if canon is not None:
            add_into(acc, canon, sign * c)
    return acc


def rotate(letters: Word, basis: GradedBasis) -> tuple[Word, int]:
    """Apply the rotation once: last letter to the front, with Koszul sign."""
    if not letters:
        raise ValueError("words are nonempty")
    if len(letters) == 1:
        return letters, 1
    last = basis.degrees[letters[-1]]
    return (letters[-1],) + letters[:-1], rotation_sign(
        basis.word_degree(letters), last)


def sparse_from_entries(nrows, ncols, entries) -> SparseMatrix:
    """The matrix of rational ``(row, col) -> value`` entries with each row
    scaled to ints (``linalg.integral``): the same rank and kernel."""
    rows: list[dict] = [{} for _ in range(nrows)]
    for (r, c), v in entries.items():
        rows[r][c] = Fraction(v)
    return SparseMatrix(nrows, ncols, [integral(row)[1] for row in rows])


# ---------------------------------------------------------------------------
# the rational solvers, the oracles of linalg's int ones
# ---------------------------------------------------------------------------

def oracle_rref(mat):
    """Reduced row echelon form that rescans every remaining row for the
    least lead column at each pivot."""
    rows = [dict(r) for r in mat.rows if r]
    pivots, out = [], []
    while rows:
        lead = min(min(r) for r in rows)
        pivot = min([r for r in rows if lead in r], key=len)
        rows.remove(pivot)
        inv = 1 / Fraction(pivot[lead])
        pivot = {c: v * inv for c, v in pivot.items()}
        for r in out + rows:
            if lead in r:
                f = r[lead]
                for c, v in pivot.items():
                    new = r.get(c, Fraction(0)) - f * v
                    if new:
                        r[c] = new
                    else:
                        r.pop(c, None)
        rows = [r for r in rows if r]
        out.append(pivot)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [out[i] for i in order], [pivots[i] for i in order]


def oracle_kernel(mat, echelon=oracle_rref):
    """The reduced-echelon kernel vectors, one per free column: 1 there."""
    rows, pivots = echelon(mat)
    basis = []
    for f in range(mat.ncols):
        if f not in pivots:
            vec = {f: Fraction(1)}
            for row, p in zip(rows, pivots):
                if f in row:
                    vec[p] = -row[f]
            basis.append(vec)
    return basis


def oracle_solve(columns, rhs_list, echelon=oracle_rref):
    """Per right-hand side its coefficients in the span of the columns, or
    None outside it, from one echelon form of ``[A | B]``."""
    n = len(columns)
    cols = list(columns) + list(rhs_list)
    nrows = 1 + max((r for col in cols for r in col), default=-1)
    rows, pivots = echelon(SparseMatrix.from_columns(nrows, cols))
    out = []
    for j in range(n, len(cols)):
        sol = {p: row[j] for row, p in zip(rows, pivots) if j in row}
        out.append(None if any(p >= n for p in sol) else sol)
    return out


def pairing_columns(pairing) -> list[Vector]:
    n = len(pairing)
    return [{i: pairing[i][j] for i in range(n) if pairing[i][j]}
            for j in range(n)]


def oracle_dual_basis(s: CyclicStructure) -> list[Vector]:
    """The vectors e^j with P(e_i, e^j) = delta_ij, on Fractions."""
    n = len(s.basis)
    return oracle_solve(pairing_columns(s.pairing),
                        [{j: Fraction(1)} for j in range(n)])


def as_fractions(form: tuple) -> list:
    """The vectors of an int form ``(d, d·x_0, d·x_1, ...)`` as rationals,
    key order and ``None`` kept."""
    d, *vecs = form
    return [None if vec is None else {c: Fraction(v, d) for c, v in vec.items()}
            for vec in vecs]


# ---------------------------------------------------------------------------
# arithmetic that only tests use
# ---------------------------------------------------------------------------

def scaled(psi: CochainTensor, c) -> CochainTensor:
    """c·psi, with psi's truncation bound."""
    c = Fraction(c)
    out = CochainTensor(psi.basis, psi.arity, psi.slot_shift, psi.weight_bound)
    if c:
        out.values = {k: c * v for k, v in psi.values.items()}
    return out


def difference(a: CochainTensor, b: CochainTensor) -> CochainTensor:
    return a + scaled(b, -1)


def apply(L: LinearOperator, vec: Vector) -> Vector:
    """L(vec) for a rational vector, as Fractions."""
    d, ints = integral(vec)
    return {i: Fraction(c, L.den * d) for i, c in L._image(ints).items()}


def random_s1_config(rng: random.Random, top: int = 12) -> S1TwistConfig:
    moments = {}
    for k in range(2, top + 1, 2):
        moments[k] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return S1TwistConfig(moments)


def collection_sign(s: CyclicStructure, psi: CochainTensor) -> int:
    """Sign relating the collected two-argument product formula, whose first
    argument carries both suspensions, to the distributed pair: the first
    cochain's suspension crosses the other one."""
    if psi.is_zero():
        return 1
    d = psi.degree()
    if d is None:
        raise ValueError("need a homogeneous cochain")
    return -1 if ((s.manifold_dim - 3) * d) % 2 else 1


def product_twisted_q110(s: CyclicStructure, pmc: MaurerCartanFamily,
                         psi: CochainTensor) -> CochainTensor:
    """The twisted boundary as q110 plus the distributed ordered product
    against the (1,0) entry."""
    e10 = pmc.entry(1, 0)
    return q110(s, psi) + scaled(q210(s, e10, psi), collection_sign(s, e10))


# ---------------------------------------------------------------------------
# the pairing and the axiom checks, entry by entry on Fractions
# ---------------------------------------------------------------------------

def pair(s: CyclicStructure, v: Vector, w: Vector) -> Fraction:
    if s.pairing is None:
        raise ValueError(f"{s.name}: no pairing")
    total = Fraction(0)
    for i, a in v.items():
        row = s.pairing[i]
        for j, b in w.items():
            total += a * row[j] * b
    return total


def mu_plus(s: CyclicStructure, k: int, letters) -> Fraction:
    """The (k+1)-linear functional P(mu_k(v_1..v_k), v_{k+1})."""
    letters = tuple(letters)
    if len(letters) != k + 1:
        raise ValueError(f"mu_plus({k}) takes {k + 1} letters")
    img = s.mu_apply(k, letters[:-1])
    if not img:
        return Fraction(0)
    return pair(s, img, {letters[-1]: Fraction(1)})


def fraction_check_cyclic_dga(s: CyclicStructure) -> CheckReport:
    """``algebra.check_cyclic_dga`` with every pairing entry, every letter
    and every pair of letters visited, on Fractions."""
    fails = []
    checked: dict[str, int] = {}
    n = len(s.basis)
    deg = s.basis.degrees
    one = Fraction(1)

    def record(name, witness, lhs, rhs):
        if lhs != rhs:
            fails.append((name, witness, lhs, rhs))

    def merge(rep):
        fails.extend(rep.failures)
        checked.update(rep.checked)

    if s.pairing is not None:
        for i in range(n):
            for j in range(n):
                lhs = s.pairing[i][j]
                sign = -1 if (deg[i] * deg[j]) % 2 == 0 else 1
                record("pairing antisymmetry", (i, j), lhs, sign * s.pairing[j][i])
                if s.pairing[i][j] and deg[i] + deg[j] != s.manifold_dim - 2:
                    record("pairing degree", (i, j), Fraction(deg[i] + deg[j]),
                           Fraction(s.manifold_dim - 2))
        _, *cols = integral(*pairing_columns(s.pairing))
        if rank(SparseMatrix.from_columns(n, cols)) < n:
            fails.append(("pairing nondegenerate", (), Fraction(0), one))
        checked.update({"pairing antisymmetry": n * n, "pairing degree": n * n,
                        "pairing nondegenerate": 1})

    for k in sorted(s.mu):
        for t, img in sorted(s.mu[k].items()):
            d = sum(deg[i] for i in t) + 1
            for o in img:
                record(f"mu_{k} degree", t, Fraction(deg[o]), Fraction(d))
        checked[f"mu_{k} degree"] = len(s.mu[k])
    merge(fraction_check_ainfty(s, 2 * max(s.arities(), default=0) - 1))
    if s.pairing is not None:
        for k in s.arities():
            merge(fraction_check_mu_plus_cyclic(s, k))

    if s.unit is not None:
        u = s.unit
        if deg[u] != -1:
            fails.append(("unit degree", (u,), Fraction(deg[u]), Fraction(-1)))
        for i in range(n):
            record("left unit", (i,), _freeze(s.mu_apply(2, (u, i))),
                   _freeze({i: one}))
            sgn = -1 if (deg[i] + 1) % 2 else 1
            record("right unit", (i,), _freeze(s.mu_apply(2, (i, u))),
                   _freeze({i: sgn * one}))
        record("unit in m1 kernel", (u,), _freeze(s.mu_apply(1, (u,))), _freeze({}))
        checked.update({"unit degree": 1, "left unit": n, "right unit": n,
                        "unit in m1 kernel": 1})
        for k in s.arities():
            if k in (1, 2):
                continue
            for t, out in s.mu[k].items():
                if u in t and out:
                    fails.append((f"unit kills mu_{k}", t, one, Fraction(0)))
            checked[f"unit kills mu_{k}"] = len(s.mu[k])
    if s.augmentation is not None:
        eps = s.augmentation
        if s.unit is None or eps.get(s.unit, Fraction(0)) != 1:
            fails.append(("augmentation of unit", (), eps.get(s.unit, Fraction(0)), one))

        def eps_of(vec):
            return sum((c * eps.get(o, Fraction(0)) for o, c in vec.items()),
                       Fraction(0))

        for i in range(n):
            record("augmentation chain map", (i,), eps_of(s.mu_apply(1, (i,))),
                   Fraction(0))
            for j in range(n):
                record("augmentation multiplicative", (i, j),
                       eps_of(s.mu_apply(2, (i, j))),
                       eps.get(i, Fraction(0)) * eps.get(j, Fraction(0)))
        checked.update({"augmentation of unit": 1, "augmentation chain map": n,
                        "augmentation multiplicative": n * n})
    return CheckReport(not fails, fails, checked)


def fraction_check_ainfty(s: CyclicStructure, max_arity: int) -> CheckReport:
    """``algebra.check_ainfty`` composing the Fraction tables."""
    fails = []
    checked = {}
    deg = s.basis.degrees
    arities = s.arities()
    n = len(s.basis)
    slots: dict[tuple[int, int, int], list] = {}  # (k1, p, letter) -> (t1, mu(t1))
    for k1 in arities:
        for t1, img in s.mu[k1].items():
            for p, x in enumerate(t1):
                slots.setdefault((k1, p, x), []).append((t1, img))
    for k in range(1, max_arity + 1):
        pairs = [(k + 1 - k2, k2) for k2 in arities if k + 1 - k2 in arities]
        if not pairs:
            continue
        name = f"A-infinity relation arity {k}"
        checked[name] = n ** k
        accs: dict[Word, Vector] = {}
        for k1, k2 in pairs:
            for t2, inner in s.mu[k2].items():
                for p in range(k1):
                    for mid, c in inner.items():
                        for t1, img in slots.get((k1, p, mid), ()):
                            sc = -c if sum(deg[i] for i in t1[:p]) % 2 else c
                            add_scaled(accs.setdefault(t1[:p] + t2 + t1[p + 1:], {}),
                                       img, sc)
        fails.extend((name, letters, _freeze(acc), ())
                     for letters, acc in sorted(accs.items()) if acc)
    return CheckReport(not fails, fails, checked)


def fraction_check_mu_plus_cyclic(s: CyclicStructure, k: int) -> CheckReport:
    """``algebra.check_mu_plus_cyclic`` pairing each stored image with every
    letter."""
    deg = s.basis.degrees
    n = len(s.basis)
    name = f"mu_{k}+ cyclicity"
    plus = {}
    for t, img in s.mu.get(k, {}).items():
        for x in range(n):
            if v := pair(s, img, {x: Fraction(1)}):
                plus[t + (x,)] = v
    fails = []
    for letters in sorted(set(plus) | {w[1:] + w[:1] for w in plus}):
        lhs = plus.get(letters, Fraction(0))
        rot = (letters[-1],) + letters[:-1]
        sign = rotation_sign(s.basis.word_degree(letters), deg[letters[-1]])
        rhs = sign * plus.get(rot, Fraction(0))
        if lhs != rhs:
            fails.append((name, letters, lhs, rhs))
    return CheckReport(not fails, fails, {name: n ** (k + 1)})


# ---------------------------------------------------------------------------
# comparison with the classical (unshifted) complex
# ---------------------------------------------------------------------------

def suspension_sign(s: CyclicStructure, letters: Word) -> int:
    """Koszul sign distributing one degree -1 symbol per letter of a word.

    Uses the unshifted letter degrees ``|v| + 1``.
    """
    deg = s.basis.degrees
    total = 0
    running = 0
    for x in letters[:-1]:
        running += deg[x] + 1
        total += running
    return -1 if total % 2 else 1


def classical_shift_U(s: CyclicStructure, letters: Word) -> tuple[Word, int]:
    """The degree shift sending an unshifted word to its shifted image."""
    return tuple(letters), suspension_sign(s, letters)


def classical_b_tensor(s: CyclicStructure, letters: Word) -> Tensor:
    """The classical Hochschild differential on the unshifted word complex.

    Built from the unshifted operations ``mu~_1``, ``mu~_2`` (obtained from
    the shifted ones by suspension signs); the mu_1 half enters with the
    global sign (-1)^(k+1).
    """
    if s.arities() not in ([], [1], [2], [1, 2]):
        raise ValueError("classical comparison is for dg algebras only")
    letters = tuple(letters)
    k = len(letters)
    udeg = [d + 1 for d in s.basis.degrees]
    acc: Tensor = {}

    def mu1_t(i):
        return s.mu_apply(1, (i,))

    def mu2_t(i, j):
        sgn = -1 if udeg[i] % 2 else 1
        return {o: sgn * c for o, c in s.mu_apply(2, (i, j)).items()}

    for i in range(k - 1):
        sgn = -1 if i % 2 else 1
        for mid, c in mu2_t(letters[i], letters[i + 1]).items():
            add_into(acc, letters[:i] + (mid,) + letters[i + 2:], sgn * c)
    if k >= 2:
        e = (k - 1) + udeg[letters[-1]] * sum(udeg[x] for x in letters[:-1])
        sgn = -1 if e % 2 else 1
        for mid, c in mu2_t(letters[-1], letters[0]).items():
            add_into(acc, (mid,) + letters[1:-1], sgn * c)
    for i in range(k):
        sgn_i = -1 if sum(udeg[x] for x in letters[:i]) % 2 else 1
        sgn_k = -1 if (k + 1) % 2 else 1
        for mid, c in mu1_t(letters[i]).items():
            add_into(acc, letters[:i] + (mid,) + letters[i + 1:], sgn_i * sgn_k * c)
    return acc


def classical_rotation(s: CyclicStructure, letters: Word) -> tuple[Word, int]:
    """Signed rotation on the classical complex: (-1)^(k-1) times the Koszul rotation."""
    letters = tuple(letters)
    k = len(letters)
    udeg = [d + 1 for d in s.basis.degrees]
    e = (k - 1) + udeg[letters[-1]] * sum(udeg[x] for x in letters[:-1])
    return (letters[-1],) + letters[:-1], (-1 if e % 2 else 1)


def conjugated_b_tensor(s: CyclicStructure, letters: Word) -> Tensor:
    """U^{-1} ∘ b ∘ U on an unshifted word; must equal classical_b_tensor."""
    _, sgn_in = classical_shift_U(s, letters)
    acc: Tensor = {}
    for w, c in hochschild_b_tensor(s, letters).items():
        _, sgn_out = classical_shift_U(s, w)
        add_into(acc, w, sgn_in * sgn_out * c)
    return acc
