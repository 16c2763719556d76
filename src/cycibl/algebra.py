"""Cyclic A-infinity / dg algebra structures and their (cyclic) bar differentials.

A structure holds a shifted basis, a pairing matrix of degree ``2 - m``
(``m`` the manifold dimension of the model), structure-constant tables for
the operations ``mu_k`` (all of degree 1 on the shifted space), and an
optional strict unit / augmentation.  The relations of a cyclic
A-infinity structure (the A-infinity relations, sum over k1 + k2 = k + 1
and p of ``(-1)^(|v1|+...+|v_(p-1)|) mu_k1(v1, .., mu_k2(v_p, ..), .., vk)
= 0``, and the cyclicity of ``mu_k+ = P(mu_k ⊗ id)``) have terms up to
arity 2K - 1 for operations up to arity K.  For a dg algebra (K = 2) they
are, with the graded antisymmetry of the pairing::

    P(v1,v2) = (-1)^(1+|v1||v2|) P(v2,v1)
    m1(m1(v)) = 0
    m1+(v1,v2) = (-1)^(|v1||v2|) m1+(v2,v1)
    m1(m2(v1,v2)) = -m2(m1 v1, v2) - (-1)^|v1| m2(v1, m1 v2)
    m2(m2(v1,v2),v3) = (-1)^(|v1|+1) m2(v1, m2(v2,v3))
    m2+(v1,v2,v3) = (-1)^(|v3|(|v1|+|v2|)) m2+(v3,v1,v2)

All checks are exhaustive over basis tuples, count the instances they
check and report failures with explicit witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import SparseMatrix, rank, solve
from .signs import GradedBasis, koszul_sign
from .words import (CochainTensor, TruncationError, Word, canonical_words,
                    canonicalize, rotation_sign, rotations)

Vector = dict[int, Fraction]
MuTable = dict[tuple[int, ...], Vector]


def _clean(vec: Vector) -> Vector:
    return {i: c for i, c in vec.items() if c}


@dataclass
class CyclicStructure:
    """A finite cyclic structure (V[1], pairing, mu_1, mu_2, ..., unit, augmentation).

    ``pairing[i][j]`` is the value on ``(e_i, e_j)``; ``mu[k]`` maps input
    index tuples to sparse output vectors.  ``manifold_dim`` fixes the
    pairing degree ``2 - m`` and every sign of the canonical operations.
    """

    name: str
    basis: GradedBasis
    manifold_dim: int
    pairing: list[list[Fraction]] | None
    mu: dict[int, MuTable]
    unit: int | None = None
    augmentation: Vector | None = None
    _dual: list[Vector] | None = field(default=None, repr=False)
    _t_tensor: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.mu = {k: {t: c for t, v in table.items() if (c := _clean(v))}
                   for k, table in self.mu.items()}
        if self.pairing is not None:
            n = len(self.basis)
            if len(self.pairing) != n or any(len(r) != n for r in self.pairing):
                raise ValueError("pairing matrix has wrong shape")
            self.pairing = [[x if isinstance(x, Fraction) else Fraction(x)
                             for x in row] for row in self.pairing]

    # -- pairing ------------------------------------------------------

    @property
    def slot_shift(self) -> int:
        """Degree shift per tensor slot under which the operations are symmetric."""
        return self.manifold_dim - 3

    def pair(self, v: Vector, w: Vector) -> Fraction:
        if self.pairing is None:
            raise ValueError(f"{self.name}: no pairing")
        s = Fraction(0)
        for i, a in v.items():
            row = self.pairing[i]
            for j, b in w.items():
                s += a * row[j] * b
        return s

    def dual_basis(self) -> list[Vector]:
        """Vectors e^j with P(e_i, e^j) = delta_ij, from the inverse pairing matrix."""
        if self._dual is None:
            if self.pairing is None:
                raise ValueError(f"{self.name}: no pairing")
            n = len(self.basis)
            dual = solve(_pairing_columns(self.pairing),
                         [{j: Fraction(1)} for j in range(n)])
            if None in dual:
                raise ValueError(f"{self.name}: degenerate pairing")
            self._dual = dual
        return self._dual

    # -- operations ---------------------------------------------------

    def mu_apply(self, k: int, letters) -> Vector:
        table = self.mu.get(k)
        if table is None:
            return {}
        return dict(table.get(tuple(letters), {}))

    def m1_matrix(self) -> list[Vector]:
        """Columns of mu_1: column i is mu_1(e_i)."""
        return [self.mu_apply(1, (i,)) for i in range(len(self.basis))]

    def mu_plus(self, k: int, letters) -> Fraction:
        """The (k+1)-linear functional P(mu_k(v_1..v_k), v_{k+1})."""
        letters = tuple(letters)
        if len(letters) != k + 1:
            raise ValueError(f"mu_plus({k}) takes {k + 1} letters")
        img = self.mu_apply(k, letters[:-1])
        if not img:
            return Fraction(0)
        return self.pair(img, {letters[-1]: Fraction(1)})

    def arities(self) -> list[int]:
        return sorted(k for k, t in self.mu.items() if t)


def integral_multiple(s: CyclicStructure) -> tuple[int, CyclicStructure]:
    """The least D >= 1 with D * mu integral, and a structure (no pairing)
    on the same basis and unit whose tables are D * mu as ints.

    Its bar differential is D times that of ``s``: same kernels and images.
    """
    D = math.lcm(*(c.denominator for table in s.mu.values()
                   for img in table.values() for c in img.values()))
    mu = {k: {t: {o: c.numerator * (D // c.denominator) for o, c in img.items()}
              for t, img in table.items()} for k, table in s.mu.items()}
    return D, CyclicStructure(s.name, s.basis, s.manifold_dim, None, mu, s.unit)


def _pairing_columns(pairing: list[list[Fraction]]) -> list[Vector]:
    n = len(pairing)
    return [{i: pairing[i][j] for i in range(n) if pairing[i][j]}
            for j in range(n)]


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    passed: bool
    failures: list[tuple[str, tuple, Fraction, Fraction]]
    # relation name -> number of instances checked
    checked: dict[str, int]

    def summary(self) -> str:
        if not any(self.checked.values()):
            return "no relation instance checked"
        if self.passed:
            return "all relations hold"
        counts = ", ".join(f"{name} {n}" for name, n in self.checked.items())
        lines = [f"{len(self.failures)} failing relation(s), instances checked: {counts}"]
        for name, witness, lhs, rhs in self.failures[:20]:
            lines.append(f"  {name} at {witness}: {lhs} != {rhs}")
        return "\n".join(lines)


def check_cyclic_dga(s: CyclicStructure) -> CheckReport:
    """Exhaustively verify the cyclic A-infinity relations; failures carry witnesses.

    Besides the pairing, unit and augmentation checks: every mu_k has
    degree 1, :func:`check_ainfty` up to arity 2K - 1 (K the top arity)
    and, with a pairing, :func:`check_mu_plus_cyclic` for every arity.
    """
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
        if rank(SparseMatrix.from_columns(n, _pairing_columns(s.pairing))) < n:
            fails.append(("pairing nondegenerate", (), Fraction(0), one))
        checked.update({"pairing antisymmetry": n * n, "pairing degree": n * n,
                        "pairing nondegenerate": 1})

    for k in sorted(s.mu):
        for t, img in sorted(s.mu[k].items()):
            d = sum(deg[i] for i in t) + 1
            for o in img:
                record(f"mu_{k} degree", t, Fraction(deg[o]), Fraction(d))
        checked[f"mu_{k} degree"] = len(s.mu[k])
    merge(check_ainfty(s, 2 * max(s.arities(), default=0) - 1))
    if s.pairing is not None:
        for k in s.arities():
            merge(check_mu_plus_cyclic(s, k))

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


def _freeze(vec: Vector):
    return tuple(sorted(_clean(vec).items()))


def check_ainfty(s: CyclicStructure, max_arity: int) -> CheckReport:
    """Verify sum over k1+k2=k+1, p of mu_{k1} ∘_1^p mu_{k2} = 0 up to max_arity.

    Arities at which no two operations compose are skipped: they have no
    terms.  Every basis tuple of each arity counts as checked, but only the
    tuples with a term are visited: a term of ``letters`` puts a stored
    input tuple t2 of mu_{k2} in slot p of a stored input tuple t1 of
    mu_{k1} whose letter there lies in the image of t2.
    """
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
                            acc = accs.setdefault(t1[:p] + t2 + t1[p + 1:], {})
                            for o, c2 in img.items():
                                _add_into(acc, o, sc * c2)
        fails.extend((name, letters, _freeze(acc), ())
                     for letters, acc in sorted(accs.items()) if acc)
    return CheckReport(not fails, fails, checked)


def check_mu_plus_cyclic(s: CyclicStructure, k: int) -> CheckReport:
    """mu_k+ composed with the cyclic rotation equals mu_k+ (all basis tuples).

    Both sides vanish unless the tuple or its rotation is in the support of
    mu_k+, so only those tuples are compared.
    """
    deg = s.basis.degrees
    n = len(s.basis)
    name = f"mu_{k}+ cyclicity"
    plus = {}
    for t, img in s.mu.get(k, {}).items():
        for x in range(n):
            if v := s.pair(img, {x: Fraction(1)}):
                plus[t + (x,)] = v
    cycle = tuple((i + 1) % (k + 1) for i in range(k + 1))
    fails = []
    for letters in sorted(set(plus) | {w[1:] + w[:1] for w in plus}):
        lhs = plus.get(letters, Fraction(0))
        rot = (letters[-1],) + letters[:-1]
        rhs = koszul_sign(cycle, [deg[i] for i in letters]) * plus.get(rot, Fraction(0))
        if lhs != rhs:
            fails.append((name, letters, lhs, rhs))
    return CheckReport(not fails, fails, {name: n ** (k + 1)})


# ---------------------------------------------------------------------------
# bar differentials
# ---------------------------------------------------------------------------

Tensor = dict[Word, Fraction]


def _add_into(acc: Tensor, w: Word, c: Fraction) -> None:
    old = acc.get(w)
    if old is None:
        if c:
            acc[w] = c
    else:
        new = old + c
        if new:
            acc[w] = new
        else:
            del acc[w]


def hochschild_b_tensor(s: CyclicStructure, letters: Word,
                        arities: list[int] | None = None) -> Tensor:
    """The full bar differential b = b' + R on a plain tensor word.

    b'^k sums t^i ∘ (mu_j ⊗ id) ∘ t^{-i} over j = 1..k, i = 0..k-j; the
    remainder R^k sums (mu_j ⊗ id) ∘ t^i over j and i = 1..j-1.  Rotation
    signs come from the prefix degree sums of the word.  ``arities`` is
    ``s.arities()``, passed in by callers that sweep many words.
    """
    letters = tuple(letters)
    k = len(letters)
    deg = s.basis.degrees
    prefix = [0]
    for x in letters:
        prefix.append(prefix[-1] + deg[x])
    total = prefix[k]
    acc: Tensor = {}
    for j in s.arities() if arities is None else arities:
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
                _add_into(acc, letters[:i] + (mid,) + letters[i + j:],
                          c if sign > 0 else -c)
        # R part: t^i brings the last i letters to the front
        for i in range(1, j):
            base = letters[k - i:] + letters[:k - i]
            img = table.get(base[:j])
            if not img:
                continue
            negate = rotation_sign(total, total - prefix[k - i]) < 0
            for mid, c in img.items():
                _add_into(acc, (mid,) + base[j:], -c if negate else c)
    return acc


def hochschild_b_cyclic(s: CyclicStructure, letters: Word,
                        arities: list[int] | None = None,
                        canon: dict | None = None) -> Tensor:
    """The bar differential on the cyclic quotient, on canonical
    representatives.  A sweep passes one ``canon`` dict, word ->
    :func:`canonicalize` result, so that each word is canonicalized once."""
    canon = {} if canon is None else canon
    acc: Tensor = {}
    for w, c in hochschild_b_tensor(s, letters, arities).items():
        if (hit := canon.get(w)) is None:
            hit = canon[w] = canonicalize(w, s.basis)
        if hit[0] is not None:
            _add_into(acc, hit[0], c if hit[1] > 0 else -c)
    return acc


def transposed_b(s: CyclicStructure, words, skip: int | None = None
                 ) -> dict[Word, Tensor]:
    """One sweep of the cyclic bar differential over canonical ``words``,
    transposed: u -> {v: the coefficient of u in b(v)}, v in the order of
    ``words``, leaving out every u that holds the letter ``skip``."""
    arities = s.arities()
    canon: dict = {}
    table: dict[Word, Tensor] = {}
    for v in words:
        for u, c in hochschild_b_cyclic(s, v, arities, canon).items():
            if skip is None or skip not in u:
                table.setdefault(u, {})[v] = c
    return table


def dual_b(s: CyclicStructure, psi: CochainTensor) -> CochainTensor:
    """Precomposition of an arity-1 cochain with the cyclic bar differential.

    A word u can only be nonzero when a term of b(u) is a stored word v,
    that is when some mu_k sends k consecutive letters of u to a letter of
    v.  The candidates are read off the stored words through the transposed
    tables: each position p of v and each input tuple t whose image holds
    v[p] give u = canon(v[:p] + t + v[p+1:]).  The value on u is b(u)
    contracted with the stored values.

    The value on u needs psi up to weight |u| - (least arity) + 1, so with a
    truncation bound W on psi the result is honest up to W + (least arity)
    - 1.
    """
    if psi.arity != 1:
        raise ValueError("dual_b takes arity-1 cochains")
    arities = s.arities()
    bound = psi.weight_bound
    if bound is not None:
        bound += min(arities, default=1) - 1
    out = CochainTensor(psi.basis, 1, psi.slot_shift, bound)
    hits: dict[int, list[Word]] = {}  # letter -> input tuples whose image holds it
    for k in arities:
        for t, img in s.mu[k].items():
            for letter in img:
                hits.setdefault(letter, []).append(t)
    candidates = set()
    for (v,) in psi.values:
        for p, letter in enumerate(v):
            for t in hits.get(letter, ()):
                u = canonicalize(v[:p] + t + v[p + 1:], s.basis)[0]
                if u is not None and (bound is None or len(u) <= bound):
                    candidates.add(u)
    canon: dict = {}
    for u in sorted(candidates, key=lambda u: (len(u), u)):
        val = Fraction(0)
        for v, c in hochschild_b_cyclic(s, u, arities, canon).items():
            val += c * psi.values.get((v,), Fraction(0))
        if val:
            out.values[(u,)] = val
    return out


# ---------------------------------------------------------------------------
# units, augmentations and the reduced subcomplex
# ---------------------------------------------------------------------------

def reduced_membership(s: CyclicStructure, psi: CochainTensor,
                       max_weight: int | None = None) -> bool:
    """Whether an arity-1 cochain kills every word with the unit prepended.

    A word ``(unit,) + u`` with u canonical is a rotation of the stored word
    it canonicalizes to, so psi fails exactly when a stored word of weight
    up to the top has a rotation that starts with the unit and continues
    with a canonical word (or with nothing).
    """
    if s.unit is None:
        raise ValueError(f"{s.name}: no unit")
    if psi.arity != 1:
        raise ValueError("reduced membership is for arity-1 cochains")
    top = max(psi.weights(), default=0) if max_weight is None else max_weight
    if psi.weight_bound is not None and top > psi.weight_bound:
        raise TruncationError(f"weight {top} exceeds the bound {psi.weight_bound}")
    for (v,) in psi.values:
        if len(v) > top:
            continue
        for x, _ in rotations(v, s.basis):
            if x[0] == s.unit and (len(x) == 1
                                   or canonicalize(x[1:], s.basis)[0] == x[1:]):
                return False
    return True


def unit_cochain(s: CyclicStructure, q: int) -> CochainTensor:
    """Pullback along the augmentation of the dual of the q-th unit power.

    The class of ``unit^q`` is annihilated for even q (the rotation sign on
    two unit letters is -1), so the cochain is zero there.
    """
    if s.unit is None:
        raise ValueError(f"{s.name}: no unit")
    if s.augmentation is None:
        aug = {s.unit: Fraction(1)}
    else:
        aug = s.augmentation
    out = CochainTensor(s.basis, 1, s.slot_shift)
    for u in canonical_words(s.basis, q):
        coeff = math.prod((aug.get(i, Fraction(0)) for i in u), start=Fraction(1))
        if coeff:
            out.add((u,), coeff)
    return out

