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

Every check counts all the basis tuples a relation ranges over, but
visits only those the stored entries reach, and sums on ints; failures
carry explicit witnesses with the values of the exhaustive check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import SparseMatrix, add_into, add_scaled, integral, rank, solve
from .signs import GradedBasis
from .words import (CochainTensor, TruncationError, Word, canonical_words,
                    canonicalize, rotation_sign, rotations)

Vector = dict[int, Fraction]
MuTable = dict[tuple[int, ...], Vector]


def _clean(vec: Vector) -> Vector:
    return {i: c for i, c in vec.items() if c}


class CyclicStructure:
    """A finite cyclic structure (V[1], pairing, mu_1, mu_2, ..., unit, augmentation).

    ``pairing[i][j]`` is the value on ``(e_i, e_j)``; ``mu[k]`` maps input
    index tuples to sparse output vectors.  ``manifold_dim`` fixes the
    pairing degree ``2 - m`` and every sign of the canonical operations.
    Construction drops zero outputs from ``mu`` and checks the pairing's
    shape.

    A structure keeps four derived int forms, each computed when first
    read: the int pairing rows (:meth:`pairing_rows`), the dual basis
    solved from them (:meth:`dual_basis`), D_T·T read off that
    (``dibl._integral_t``), and the int columns of mu_1
    (:meth:`m1_columns`).  Callers share them and only read them, so an
    in-place edit of a field after one was read is unsupported: change a
    structure with :meth:`replace`, which keeps a form only while the
    fields it is derived from stay.  Copies start without them and
    equality ignores them.  The axiom checks read the fields, never these
    forms, since their job is to validate the fields.
    """

    _FIELDS = ("name", "basis", "manifold_dim", "pairing", "mu", "unit",
               "augmentation")

    def __init__(self, name: str, basis: GradedBasis, manifold_dim: int,
                 pairing: list[list[Fraction]] | None, mu: dict[int, MuTable],
                 unit: int | None = None, augmentation: Vector | None = None):
        self.name = name
        self.basis = basis
        self.manifold_dim = manifold_dim
        if pairing is not None:
            n = len(basis)
            if len(pairing) != n or any(len(r) != n for r in pairing):
                raise ValueError("pairing matrix has wrong shape")
            pairing = [[x if isinstance(x, Fraction) else Fraction(x)
                        for x in row] for row in pairing]
        self.pairing = pairing
        self.mu = {k: {t: c for t, v in table.items() if (c := _clean(v))}
                   for k, table in mu.items()}
        self.unit = unit
        self.augmentation = augmentation
        self._prows: tuple | None = None
        self._dual: tuple | None = None
        self._t_tensor: tuple[int, dict] | None = None
        self._m1: tuple | None = None

    def __eq__(self, other):
        if other.__class__ is not CyclicStructure:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    def __getstate__(self):
        return {f: getattr(self, f) for f in self._FIELDS}

    def __setstate__(self, state):
        """Copies (``copy``, ``pickle``) are built like any other structure,
        so they start without the derived forms."""
        self.__init__(**state)

    def replace(self, **changes) -> CyclicStructure:
        """A new structure with the given fields changed, built (and so
        validated) like any other.  The pairing forms (rows, dual basis, T)
        carry over while the basis and the pairing stay, the mu_1 columns
        while the basis and mu stay."""
        out = CyclicStructure(**{**self.__getstate__(), **changes})
        if "basis" not in changes and "pairing" not in changes:
            out._prows, out._dual = self._prows, self._dual
            out._t_tensor = self._t_tensor
        if "basis" not in changes and "mu" not in changes:
            out._m1 = self._m1
        return out

    # -- pairing ------------------------------------------------------

    @property
    def slot_shift(self) -> int:
        """Degree shift per tensor slot under which the operations are symmetric."""
        return self.manifold_dim - 3

    def pairing_rows(self) -> tuple:
        """``(D_P, row_0, row_1, ...)``: the rows of D_P P as sparse int
        rows (:func:`_integral_pairing`), computed once per structure."""
        if self._prows is None:
            if self.pairing is None:
                raise ValueError(f"{self.name}: no pairing")
            self._prows = _integral_pairing(self)
        return self._prows

    def dual_basis(self) -> tuple:
        """``(d, d·e^0, d·e^1, ...)``: the vectors e^j with P(e_i, e^j) =
        delta_ij as ints over their least common denominator d, solved from
        the int rows of D_P P (:meth:`pairing_rows`)."""
        if self._dual is None:
            d_p, *rows = self.pairing_rows()
            cols: list[dict[int, int]] = [{} for _ in rows]
            for i, row in enumerate(rows):
                for j, x in row.items():
                    cols[j][i] = x
            dual = solve(cols, [{j: d_p} for j in range(len(rows))])
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

    def m1_columns(self) -> tuple:
        """``(d, d·mu_1(e_0), d·mu_1(e_1), ...)``: the columns of mu_1 as
        int columns over their least common denominator d, computed once
        per structure."""
        if self._m1 is None:
            self._m1 = integral(*self.m1_matrix())
        return self._m1

    def arities(self) -> list[int]:
        return sorted(k for k, t in self.mu.items() if t)


def integral_multiple(s: CyclicStructure) -> tuple[int, CyclicStructure]:
    """The least D >= 1 with D * mu integral, and a structure (no pairing)
    on the same basis and unit whose tables are D * mu as ints.

    Its bar differential is D times that of ``s``: same kernels and images.
    """
    D, mu = _integral_mu(s)
    return D, CyclicStructure(s.name, s.basis, s.manifold_dim, None, mu, s.unit)


def _integral_mu(s: CyclicStructure) -> tuple[int, dict[int, dict]]:
    """D, the least common denominator of every mu table, and D * mu as
    int tables (zero outputs dropped, every input kept)."""
    D, *ints = integral(*(img for table in s.mu.values() for img in table.values()))
    ints = iter(ints)
    return D, {k: dict(zip(table, ints)) for k, table in s.mu.items()}


def _integral_pairing(s: CyclicStructure) -> tuple:
    """``(D_P, row_0, row_1, ...)``: the rows of D_P P as sparse int rows."""
    return integral(*({j: x for j, x in enumerate(row) if x} for row in s.pairing))


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

class CheckReport:
    """Outcome of an axiom check: failures as (relation, witness, lhs, rhs),
    and per relation name the number of instances checked."""

    def __init__(self, passed: bool,
                 failures: list[tuple[str, tuple, Fraction, Fraction]],
                 checked: dict[str, int]):
        self.passed = passed
        self.failures = failures
        self.checked = checked

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
    """Verify the cyclic A-infinity relations; failures carry witnesses.

    Besides the pairing, unit and augmentation checks: every mu_k has
    degree 1, :func:`check_ainfty` up to arity 2K - 1 (K the top arity)
    and, with a pairing, :func:`check_mu_plus_cyclic` for every arity.
    Every relation counts all its instances but visits, on ints, only
    those the stored entries reach: the pairing checks run over the nonzero
    entries and their transposes.  A failure reports the values of the
    exhaustive check.
    """
    fails = []
    checked: dict[str, int] = {}
    n = len(s.basis)
    deg = s.basis.degrees
    one = Fraction(1)

    def merge(rep):
        fails.extend(rep.failures)
        checked.update(rep.checked)

    if s.pairing is not None:
        P = s.pairing
        _, *rows = _integral_pairing(s)
        top = s.manifold_dim - 2
        for i, j in sorted({(i, j) for i, row in enumerate(rows) for j in row}
                           | {(j, i) for i, row in enumerate(rows) for j in row}):
            a = rows[i].get(j, 0)
            sign = -1 if (deg[i] * deg[j]) % 2 == 0 else 1
            if a != sign * rows[j].get(i, 0):
                fails.append(("pairing antisymmetry", (i, j), P[i][j], sign * P[j][i]))
            if a and deg[i] + deg[j] != top:
                fails.append(("pairing degree", (i, j), Fraction(deg[i] + deg[j]),
                              Fraction(top)))
        if rank(SparseMatrix(n, n, rows)) < n:
            fails.append(("pairing nondegenerate", (), Fraction(0), one))
        checked.update({"pairing antisymmetry": n * n, "pairing degree": n * n,
                        "pairing nondegenerate": 1})

    for k in sorted(s.mu):
        bad = []
        for t, img in s.mu[k].items():
            d = sum(deg[i] for i in t) + 1
            bad.extend((t, o, d) for o in img if deg[o] != d)
        bad.sort(key=lambda b: b[0])
        fails.extend((f"mu_{k} degree", t, Fraction(deg[o]), Fraction(d))
                     for t, o, d in bad)
        checked[f"mu_{k} degree"] = len(s.mu[k])
    merge(check_ainfty(s, 2 * max(s.arities(), default=0) - 1))
    if s.pairing is not None:
        for k in s.arities():
            merge(check_mu_plus_cyclic(s, k))

    if s.unit is not None:
        u = s.unit
        if deg[u] != -1:
            fails.append(("unit degree", (u,), Fraction(deg[u]), Fraction(-1)))
        mu1, mu2 = s.mu.get(1, {}), s.mu.get(2, {})

        def unit_law(name, witness, img, want):
            if img != want:  # stored outputs hold no zeros
                fails.append((name, witness, _freeze(img), _freeze(want)))

        for i in range(n):
            unit_law("left unit", (i,), mu2.get((u, i), {}), {i: one})
            sgn = -1 if (deg[i] + 1) % 2 else 1
            unit_law("right unit", (i,), mu2.get((i, u), {}), {i: sgn * one})
        unit_law("unit in m1 kernel", (u,), mu1.get((u,), {}), {})
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
        fails.extend(_augmentation_failures(s))
        checked.update({"augmentation of unit": 1, "augmentation chain map": n,
                        "augmentation multiplicative": n * n})
    return CheckReport(not fails, fails, checked)


def _augmentation_failures(s: CyclicStructure) -> list:
    """The failing instances of eps(mu_1(v_i)) = 0 and eps(mu_2(v_i, v_j)) =
    eps(v_i) eps(v_j), in the order (i, then the chain map before each j),
    from the int tables D mu.  Both sides vanish off the stored inputs and
    the pairs of letters that eps does not kill, so only those are visited."""
    D, mu = _integral_mu(s)
    d_eps, eps = integral(s.augmentation)
    support = [i for i in eps if i in range(len(s.basis))]

    def eps_of(vec):
        return sum(c * eps.get(o, 0) for o, c in vec.items())

    bad = {(i, -1): ("augmentation chain map", (i,), Fraction(v, D * d_eps), Fraction(0))
           for (i,), img in mu.get(1, {}).items() if (v := eps_of(img))}
    mu2 = mu.get(2, {})
    for i, j in set(mu2) | {(i, j) for i in support for j in support}:
        lhs, rhs = eps_of(mu2.get((i, j), {})), eps.get(i, 0) * eps.get(j, 0)
        if lhs * d_eps != rhs * D:
            bad[i, j] = ("augmentation multiplicative", (i, j),
                         Fraction(lhs, D * d_eps), Fraction(rhs, d_eps * d_eps))
    return [bad[key] for key in sorted(bad)]


def _freeze(vec: Vector):
    return tuple(sorted(_clean(vec).items()))


def check_ainfty(s: CyclicStructure, max_arity: int) -> CheckReport:
    """Verify sum over k1+k2=k+1, p of mu_{k1} ∘_1^p mu_{k2} = 0 up to max_arity.

    Arities at which no two operations compose are skipped: they have no
    terms.  Every basis tuple of each arity counts as checked, but only the
    tuples with a term are visited: a term of ``letters`` puts a stored
    input tuple t2 of mu_{k2} in slot p of a stored input tuple t1 of
    mu_{k1} whose letter there lies in the image of t2.  The sums run on
    the int tables D mu, and a failing one is reported over D^2.
    """
    D, mu = _integral_mu(s)
    fails = []
    checked = {}
    deg = s.basis.degrees
    arities = s.arities()
    n = len(s.basis)
    # (k1, p, letter) -> (t1, D mu(t1), sign of the letters before slot p)
    slots: dict[tuple[int, int, int], list] = {}
    for k1 in arities:
        for t1, img in mu[k1].items():
            odd = 0
            for p, x in enumerate(t1):
                slots.setdefault((k1, p, x), []).append((t1, img, -1 if odd else 1))
                odd ^= deg[x] & 1
    den = D * D
    for k in range(1, max_arity + 1):
        pairs = [(k + 1 - k2, k2) for k2 in arities if k + 1 - k2 in arities]
        if not pairs:
            continue
        name = f"A-infinity relation arity {k}"
        checked[name] = n ** k
        accs: dict[Word, dict[int, int]] = {}
        for k1, k2 in pairs:
            for t2, inner in mu[k2].items():
                for p in range(k1):
                    for mid, c in inner.items():
                        for t1, img, sign in slots.get((k1, p, mid), ()):
                            add_scaled(accs.setdefault(t1[:p] + t2 + t1[p + 1:], {}),
                                       img, sign * c)
        fails.extend((name, letters,
                      tuple((o, Fraction(v, den)) for o, v in sorted(acc.items())), ())
                     for letters, acc in sorted(accs.items()) if acc)
    return CheckReport(not fails, fails, checked)


def mu_plus_table(s: CyclicStructure, k: int) -> tuple[int, dict[Word, int]]:
    """mu_k+ = P(mu_k ⊗ id) on its support, as ``(d, d·mu_k+)`` with int
    values: ``t + (x,)`` maps to the sum over i of mu_k(t)_i P(e_i, e_x),
    read off the nonzero pairing entries of the letters in the image."""
    table = s.mu.get(k, {})
    if not table:
        return 1, {}
    if s.pairing is None:
        raise ValueError(f"{s.name}: no pairing")
    d_p, *rows = _integral_pairing(s)
    d_mu, *imgs = integral(*table.values())
    plus = {}
    for t, img in zip(table, imgs):
        acc: dict[int, int] = {}
        for i, c in img.items():
            add_scaled(acc, rows[i], c)
        for x, v in acc.items():
            plus[t + (x,)] = v
    return d_mu * d_p, plus


def check_mu_plus_cyclic(s: CyclicStructure, k: int) -> CheckReport:
    """mu_k+ composed with the cyclic rotation equals mu_k+ (all basis tuples).

    Both sides vanish unless the tuple or its rotation is in the support of
    mu_k+ (:func:`mu_plus_table`), so only those tuples are compared.
    """
    deg = s.basis.degrees
    name = f"mu_{k}+ cyclicity"
    den, plus = mu_plus_table(s, k)
    fails = []
    for letters in sorted(set(plus) | {w[1:] + w[:1] for w in plus}):
        lhs = plus.get(letters, 0)
        rot = (letters[-1],) + letters[:-1]
        sign = rotation_sign(s.basis.word_degree(letters), deg[letters[-1]])
        rhs = sign * plus.get(rot, 0)
        if lhs != rhs:
            fails.append((name, letters, Fraction(lhs, den), Fraction(rhs, den)))
    return CheckReport(not fails, fails, {name: len(s.basis) ** (k + 1)})


# ---------------------------------------------------------------------------
# bar differentials
# ---------------------------------------------------------------------------

Tensor = dict[Word, Fraction]


def hochschild_b_cyclic(s: CyclicStructure, letters: Word,
                        arities: list[int] | None = None,
                        canon: dict | None = None) -> Tensor:
    """The bar differential b = b' + R on the cyclic quotient, on canonical
    representatives.  For each arity j <= k it sums over the k cyclic
    windows v_(p+1)..v_(p+j) (indices mod k) of v = v_1..v_k, with
    m = mu_j(window) in place of the window::

        p = 0..k-j (b'):         v_1..v_p m v_(p+j+1)..v_k
        p = k-1..k-j+1 (R):      m v_(p+j-k+1)..v_p

    Each term carries the sign of t^(k-p), which brings v_(p+1)..v_k to the
    front, and a b' term that of t^p, which moves v_1..v_p back in front of
    m; rotation signs come from the prefix degree sums of v.  Each term
    goes through ``canon`` (word -> :func:`canonicalize` result, filled on
    a miss) straight into the canonical accumulator.  A sweep
    (:func:`bar_sweep`) passes ``arities = s.arities()`` and one ``canon``,
    seeded with the signed rotations of the swept words below the top
    weight.
    """
    letters = tuple(letters)
    canon = {} if canon is None else canon
    basis = s.basis
    k = len(letters)
    deg = basis.degrees
    prefix = [0]
    for x in letters:
        prefix.append(prefix[-1] + deg[x])
    total = prefix[k]
    acc: Tensor = {}
    for j in s.arities() if arities is None else arities:
        if j > k:
            break
        get = s.mu[j].get
        for r in range(k):
            # the window at p = r, then the wrapping ones at p = k - i
            if r <= k - j:
                img = get(letters[r:r + j])
                if not img:
                    continue
                head, tail, lead = letters[:r], letters[r + j:], prefix[r]
                sgn0 = rotation_sign(total, total - lead)
                rest = total - prefix[r + j] + lead
            else:
                i = r - k + j
                img = get(letters[k - i:] + letters[:j - i])
                if not img:
                    continue
                head, tail, lead, rest = (), letters[j - i:k - i], 0, 0
                sgn0 = rotation_sign(total, total - prefix[k - i])
            for mid, c in img.items():
                w = head + (mid,) + tail
                if (hit := canon.get(w)) is None:
                    hit = canon[w] = canonicalize(w, basis)
                if hit[0] is not None:
                    sign = sgn0 * hit[1] * rotation_sign(rest + deg[mid], lead)
                    add_into(acc, hit[0], c if sign > 0 else -c)
    return acc


def bar_sweep(s: CyclicStructure, words, skip: int | None = None):
    """Yield ``(v, b(v))`` for the canonical ``words``, in their order,
    leaving out every term that holds the letter ``skip``.  The one memo,
    dropped when the sweep ends, starts with the signed rotations of every
    swept word below the top weight; when ``words`` are all the canonical
    words that avoid ``skip``, only annihilated words, words holding
    ``skip`` and mu_1 images of top weight reach :func:`canonicalize`.
    """
    words = list(words)
    top = max(map(len, words), default=0)
    arities = s.arities()
    canon = {x: (v, sign) for v in words if len(v) < top
             for x, sign in rotations(v, s.basis)}
    for v in words:
        col = hochschild_b_cyclic(s, v, arities, canon)
        yield v, col if skip is None else {
            u: c for u, c in col.items() if skip not in u}


def transposed_b(s: CyclicStructure, words, skip: int | None = None
                 ) -> dict[Word, Tensor]:
    """One sweep of the cyclic bar differential over canonical ``words``,
    transposed: u -> {v: the coefficient of u in b(v)}, v in the order of
    ``words``, leaving out every u that holds the letter ``skip``."""
    table: dict[Word, Tensor] = {}
    for v, col in bar_sweep(s, words, skip):
        for u, c in col.items():
            table.setdefault(u, {})[v] = c
    return table


def dual_b(s: CyclicStructure, psi: CochainTensor,
           arities: list[int] | None = None) -> CochainTensor:
    """Precomposition of an arity-1 cochain with the cyclic bar differential
    of the operations ``arities`` (default: every one, ``s.arities()``).

    A word u can only be nonzero when a term of b(u) is a stored word v,
    that is when some mu_k sends k consecutive letters of u to a letter of
    v.  The candidates are read off the stored words through the transposed
    tables: each position p of v and each input tuple t whose image holds
    v[p] give u = canon(v[:p] + t + v[p+1:]).  The value on u is b(u)
    contracted with the stored values.  One ``canon`` memo (word ->
    :func:`canonicalize` result) serves the candidate splices and every
    :func:`hochschild_b_cyclic` call.

    The value on u needs psi up to weight |u| - (least arity) + 1, so with a
    truncation bound W on psi the result is honest up to W + (least arity)
    - 1.
    """
    if psi.arity != 1:
        raise ValueError("dual_b takes arity-1 cochains")
    arities = s.arities() if arities is None else arities
    bound = psi.weight_bound
    if bound is not None:
        bound += min(arities, default=1) - 1
    out = CochainTensor(psi.basis, 1, psi.slot_shift, bound)
    hits: dict[int, list[Word]] = {}  # letter -> input tuples whose image holds it
    for k in arities:
        for t, img in s.mu[k].items():
            for letter in img:
                hits.setdefault(letter, []).append(t)
    canon: dict = {}
    candidates = set()
    for (v,) in psi.values:
        for p, letter in enumerate(v):
            for t in hits.get(letter, ()):
                w = v[:p] + t + v[p + 1:]
                if (hit := canon.get(w)) is None:
                    hit = canon[w] = canonicalize(w, s.basis)
                u = hit[0]
                if u is not None and (bound is None or len(u) <= bound):
                    candidates.add(u)
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

