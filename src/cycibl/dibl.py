"""Boundary, product and coproduct on cyclic cochains, twisting, and the
induced A-infinity family of a twist element.

Conventions (for a structure of manifold dimension m, pairing degree 2-m):

* ``T[i][j] = (-1)^|e_i| P(e^i, e^j)`` is the contraction tensor.
* The boundary inserts the differential letterwise with alternating Koszul
  prefixes.
* The product, on an ordered pair of arity-1 cochains evaluated on a word w,
  sums over all rotations of w and all splittings of the rotated word into
  two (possibly empty) halves w1, w2:

      sum T^{ij} eps(w -> w1 w2) (-1)^(|e_j| |w1|) psi1(e_i w1) psi2(e_j w2).

* The coproduct, evaluated on a pair of words, sums over rotations of each:

      1/2 sum T^{ij} eps1 eps2 (-1)^(|e_j| |w1'|) psi(e_i w1' e_j w2').

* The canonical twist element is supported on weight three:
  ``mc(v1 v2 v3) = (-1)^(m-2) P(m2(v1, v2), v3)``.

A cochain is a combination of dual words, and the product, the coproduct
and the partial composition against a twist entry are each one contraction
over ``T`` of the rotations of its stored words, never an evaluation word
by word.  :func:`dual_word_product` contracts a pair of dual words; the
product and the partial composition (once per slot of the entry) sum it
over pairs of stored words, and the coproduct cuts one stored word twice.
Each output word is counted once per rotation equal to it as a tensor.
Each twisted operation is its base operation plus the partial composition
:func:`circ1` with its entry: the boundary with the (1,0) entry, the
coproduct with the (2,0) entry, and the unit relations, with no base term,
the (l,g) entry composed with the dual of the unit letter, which inserts
the volume letter into the entry's stored words.

These contractions run on ints, in the int form of :mod:`cycibl.linalg`:
T enters as D_T T, cached once per structure, and the cochains as their
values over their least common denominator.  An output word's value is
one ``Fraction``: its int sum over the product of the denominators, times
2 for the coproduct's half and lcm(1..l) for the count factor of the
partial composition into an arity-l entry.

All cochains are stored unshifted; the degree shift per slot under which
these operations become symmetric is ``m - 3``, carried as the tensors'
``slot_shift``; Koszul signs between slots always use the shifted degrees.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (CyclicStructure, dual_b, integral_multiple, mu_plus_table,
                      transposed_b)
from .linalg import integral
from .signs import ZERO
from .words import (CochainTensor, TruncationError, Word, canonical_key,
                    canonical_words, canonicalize, dual_word, rotations,
                    slot_degree)


def t_tensor(s: CyclicStructure) -> dict[tuple[int, int], Fraction]:
    """Sparse contraction tensor T^{ij} = (-1)^|e_i| P(e^i, e^j); every
    call returns a fresh dict, read off the cached D_T T of
    :func:`_integral_t`."""
    d_t, T = _integral_t(s)
    return {k: Fraction(v, d_t) for k, v in T.items()}


def _integral_t(s: CyclicStructure) -> tuple[int, dict[tuple[int, int], int]]:
    """D_T, the least common denominator of T, and D_T T as ints, computed
    once per structure; callers only read it.  P(e_a, e^j) = delta_aj, so
    P(e^i, e^j) is coordinate j of e^i: row i of D_T T is the signed
    D_T e^i of the int dual basis, whose denominator is D_T."""
    if s._t_tensor is None:
        d_t, *dual = s.dual_basis()
        T = {}
        for i, e in enumerate(dual):
            sgn = -1 if s.basis.degrees[i] % 2 else 1
            T.update(((i, j), sgn * c) for j, c in e.items())
        s._t_tensor = d_t, T
    return s._t_tensor


# ---------------------------------------------------------------------------
# the three canonical operations
# ---------------------------------------------------------------------------

def q110(s: CyclicStructure, psi: CochainTensor) -> CochainTensor:
    """The boundary: insert the differential at each letter with Koszul
    prefix.  This is the dual bar differential of the differential alone,
    so it is :func:`dual_b` with mu_1 alone; the bound stays psi's."""
    if psi.arity != 1:
        raise ValueError("q110 takes arity-1 cochains")
    return dual_b(s, psi, [1] if s.mu.get(1) else [])


def _canonical_term(word: Word, basis, memo: dict) -> tuple[Word | None, int]:
    """A contracted word's canonical form and its sign times the number of
    rotations of its class equal to it as a tensor, kept in ``memo``."""
    if (hit := memo.get(word)) is None:
        canon, sign = canonicalize(word, basis)
        k = len(word)
        period = next(p for p in range(1, k + 1)
                      if k % p == 0 and word[p:] + word[:p] == word)
        hit = memo[word] = (canon, sign * (k // period))
    return hit


def _rotation_table(u: Word, basis, memo: dict) -> list:
    """The distinct rotations of u as (first letter, tail, sign, parities of
    tail and first letter), kept in ``memo`` under ``(u,)``, never a word."""
    if (table := memo.get((u,))) is None:
        deg, total = basis.degrees, basis.word_degree(u)
        table = memo[(u,)] = [(x[0], x[1:], sx, (total - deg[x[0]]) % 2, deg[x[0]] % 2)
                              for x, sx in dict(rotations(u, basis)).items()]
    return table


def dual_word_product(s: CyclicStructure, T, u: Word, v: Word,
                      memo: dict | None = None) -> dict[Word, Fraction]:
    """Product of the dual words of two canonical words, as canonical word ->
    value, by direct contraction.

    Every pair of rotations (e_i w1, e_j w2) of u and v with T^{ij} != 0 is
    one term of the product formula on the class of w1 w2, counted once for
    each rotation of that class equal to w1 w2 as a tensor.  A caller's
    ``memo`` keeps each word's rotations and canonical form for its call.
    """
    basis = s.basis
    memo = {} if memo is None else memo
    out: dict[Word, Fraction] = {}
    rots_v = _rotation_table(v, basis, memo)
    for i, w1, su, odd1, _ in _rotation_table(u, basis, memo):
        for j, w2, sv, _, odd_j in rots_v:
            t = T.get((i, j))
            if not t or not (w1 or w2):
                continue
            canon, sign = _canonical_term(w1 + w2, basis, memo)
            if canon is None:
                continue
            if odd1 and odd_j:
                sign = -sign
            out[canon] = out.get(canon, 0) + sign * su * sv * t
    return {w: c for w, c in out.items() if c}


def q210(s: CyclicStructure, psi1: CochainTensor, psi2: CochainTensor
         ) -> CochainTensor:
    """The product on an ordered pair of arity-1 cochains: both factors are
    expanded bilinearly over their stored dual words
    (:func:`dual_word_product`), in ints over D_T T.

    A pair of words u, v contributes at weight |u| + |v| - 2 only; weights
    above the contraction bound, where a truncated factor's unknown values
    would enter, are dropped.
    """
    if psi1.arity != 1 or psi2.arity != 1:
        raise ValueError("q210 takes arity-1 cochains")
    d_t, T = _integral_t(s)
    bound = _contraction_bound(psi1, psi2)
    out = CochainTensor(s.basis, 1, psi1.slot_shift, bound)
    d, values1, values2 = integral(psi1.values, psi2.values)
    acc: dict[Word, int] = {}
    memo: dict = {}
    for (u,), c1 in values1.items():
        for (v,), c2 in values2.items():
            if bound is not None and len(u) + len(v) - 2 > bound:
                continue
            for w, c in dual_word_product(s, T, u, v, memo).items():
                acc[w] = acc.get(w, 0) + c1 * c2 * c
    den = d_t * d * d
    out.values = {(w,): Fraction(c, den) for w, c in acc.items() if c}
    return out


def distribution_sign(s: CyclicStructure, words: tuple[Word, ...]) -> int:
    """Koszul sign distributing one suspension per slot over a word tuple."""
    sp = (s.manifold_dim - 3) % 2
    if not sp:
        return 1
    total = 0
    running = 0
    for w in words[:-1]:
        running += s.basis.word_degree(w)
        total += running
    return -1 if total % 2 else 1


def dual_word_coproduct(s: CyclicStructure, T, u: Word, memo: dict | None = None
                        ) -> dict[tuple[Word, Word], Fraction]:
    """Twice the coproduct of the dual word of a canonical word, as pair ->
    value, by direct contraction; the formula's 1/2 is left to the caller,
    so an integral T gives ints.

    Every distinct rotation x of u and position p with T^{x_0 x_p} != 0 is
    one term of the coproduct formula on the pair of classes of x_1..x_{p-1}
    and x_{p+1}..x_k, counted once for each pair of rotations of the halves
    equal to them as tensors.  Terms are collected on pairs in canonical
    slot order, (weight, letters), where a tensor stores its values; the
    other order of each pair and two equal halves of odd slot degree are
    left out, and a pair whose terms cancel keeps its place with value 0.
    Values are in the distributed-suspension normalization (the collected
    formula times the sign distributing the two suspensions), under which
    slot swaps cost the shifted Koszul sign.  A caller's ``memo`` keeps each
    half's canonical form for its call.
    """
    basis, shift = s.basis, s.slot_shift
    deg = basis.degrees
    memo = {} if memo is None else memo
    k = len(u)
    acc: dict[tuple[Word, Word], Fraction] = {}
    for x, sx in dict(rotations(u, basis)).items():
        for p in range(2, k - 1):
            t = T.get((x[0], x[p]))
            if not t:
                continue
            w1, w2 = x[1:p], x[p + 1:]
            a, sa = _canonical_term(w1, basis, memo)
            b, sb = _canonical_term(w2, basis, memo)
            if a is None or b is None or (len(a), a) > (len(b), b):
                continue
            if a == b and slot_degree(a, basis, shift) % 2:
                continue
            sign = sx * sa * sb
            if deg[x[p]] % 2 and basis.word_degree(w1) % 2:
                sign = -sign
            acc[(a, b)] = acc.get((a, b), 0) + sign * t
    return {key: distribution_sign(s, key) * c for key, c in acc.items()}


def q120(s: CyclicStructure, psi: CochainTensor, T=None) -> CochainTensor:
    """The coproduct of an arity-1 cochain, as an arity-2 tensor: half the
    sum of :func:`dual_word_coproduct` over its stored words, in ints over
    D_T T."""
    if psi.arity != 1:
        raise ValueError("q120 takes arity-1 cochains")
    d_t, T = _integral_t(s) if T is None else integral(T)
    bound = None if psi.weight_bound is None else psi.weight_bound - 2
    out = CochainTensor(s.basis, 2, psi.slot_shift, bound)
    d_psi, values = integral(psi.values)
    acc: dict[tuple[Word, Word], int] = {}
    memo: dict = {}
    for (u,), c in values.items():
        if bound is not None and len(u) - 2 > bound:
            continue
        for key, v in dual_word_coproduct(s, T, u, memo).items():
            acc[key] = acc.get(key, 0) + c * v
    den = 2 * d_t * d_psi
    out.values = {key: Fraction(c, den) for key, c in acc.items() if c}
    return out


def _contraction_bound(psi1: CochainTensor, psi2: CochainTensor) -> int | None:
    """Largest output weight at which one contraction of two cochains is honest."""
    b1, b2 = psi1.weight_bound, psi2.weight_bound
    if b1 is None and b2 is None:
        return None
    cands = []
    if b1 is not None:
        cands.append(b1 + min(psi2.weights(), default=1) - 2)
    if b2 is not None:
        cands.append(b2 + min(psi1.weights(), default=1) - 2)
    return min(cands)


# ---------------------------------------------------------------------------
# twist elements and twisted operations
# ---------------------------------------------------------------------------

def canonical_mc(s: CyclicStructure) -> "MaurerCartanFamily":
    """The canonical twist element: weight-three values (-1)^(m-2) m2+(v1,v2,v3)."""
    if 2 not in s.mu:
        raise ValueError(f"{s.name}: no product")
    sgn = -1 if s.manifold_dim % 2 else 1
    den, plus = mu_plus_table(s, 2)
    mc10 = CochainTensor(s.basis, 1, s.slot_shift)
    for u in canonical_words(s.basis, 3):
        if val := plus.get(u):
            mc10.add((u,), Fraction(sgn * val, den))
    return MaurerCartanFamily(s, {(1, 0): mc10})


class MaurerCartanFamily:
    """Indexed family of twist entries; entry (l, g) is an arity-l cochain."""

    def __init__(self, structure: CyclicStructure,
                 entries: dict[tuple[int, int], CochainTensor]):
        self.structure = structure
        self.entries = entries
        e10 = entries.get((1, 0))
        if e10 is not None and not e10.is_zero() and e10.filtration_degree() <= 2:
            raise ValueError("the (1,0) entry must have filtration degree > 2")

    def entry(self, l: int, g: int) -> CochainTensor:
        got = self.entries.get((l, g))
        if got is None:
            got = CochainTensor(self.structure.basis, max(l, 1),
                                self.structure.slot_shift)
        return got

    def is_strictly_reduced(self) -> bool:
        """Entries other than (1,0) vanish on tuples containing a unit letter."""
        s = self.structure
        if s.unit is None:
            return False
        for (l, g), ten in self.entries.items():
            if (l, g) == (1, 0):
                continue
            for key in ten.values:
                if any(s.unit in w for w in key):
                    return False
        return True


def circ1(s: CyclicStructure, pmc_lg: CochainTensor, psi: CochainTensor
          ) -> CochainTensor:
    """Partial composition of the product with an arity-l twist entry.

    Evaluated on an l-tuple of words, the j-th word is rotated and split as
    in the product; psi eats the left half, the entry the right half:

        sum_j sum eps' eps(w_j -> w1 w2) T^{ab}
              psi(e_a w1) entry(W_1 .. (e_b w2) .. W_l),

    where eps' is the Koszul sign of the block reordering

        (s e_a e_b) W_1..W_{j-1} (s w1 w2)  ->  (s e_a w1) W_1..W_{j-1} (s e_b w2)

    in shifted slot degrees: |e_b|(|W_1|+..+|W_{j-1}| + |s| + |w1|)
    + |w1|(|W_1|+..+|W_{j-1}| + |s|).

    This is the product of psi with the entry's j-th slot, so it is computed
    by the product's contraction, once per slot: a stored key K with v in
    slot j and a stored word u of psi send each word w of the dual-word
    product of u and v to K' = K[:j] + (w,) + K[j+1:].  Beyond the sign of
    the product, which has only |e_b| |w1|, eps' adds (|v| + |w|) times the
    parity before slot j.  The entry's slots holding v account for K.count(v)
    such terms where the formula on K' has one per slot holding w, hence the
    factor K'.count(w) / K.count(v), whose denominator lcm(1..l) clears in
    the int sums.
    """
    if psi.arity != 1:
        raise ValueError("circ1 twists arity-1 cochains")
    d_t, T = _integral_t(s)
    basis, shift = s.basis, psi.slot_shift
    bound = _contraction_bound(pmc_lg, psi)
    out = CochainTensor(basis, pmc_lg.arity, shift, bound)
    d, entry, values = integral(pmc_lg.values, psi.values)
    d_count = math.lcm(*range(1, pmc_lg.arity + 1))
    acc: dict[tuple[Word, ...], int] = {}
    memo: dict = {}
    for key, ce in entry.items():
        weight = sum(len(v) for v in key)
        before = shift  # |s| plus the shifted degrees of key[:j]
        for j, v in enumerate(key):
            dv = basis.word_degree(v)
            per_slot = ce * (d_count // key.count(v))
            for (u,), cp in values.items():
                if bound is not None and weight + len(u) - 2 > bound:
                    continue
                for w, c in dual_word_product(s, T, u, v, memo).items():
                    keyed = canonical_key(key[:j] + (w,) + key[j + 1:], basis, shift)
                    if keyed is None:
                        continue
                    new, sign = keyed
                    if before % 2 and (dv + basis.word_degree(w)) % 2:
                        sign = -sign
                    acc[new] = acc.get(new, 0) + sign * c * cp * per_slot * new.count(w)
            before += slot_degree(v, basis, shift)
    den = d_t * d * d * d_count
    out.values = {key: Fraction(c, den) for key, c in acc.items() if c}
    return out


def twisted_q110(s: CyclicStructure, pmc: MaurerCartanFamily,
                 psi: CochainTensor) -> CochainTensor:
    """Twisted boundary: q110 + (product ∘₁ (1,0)-entry), the form that
    agrees exactly with the dual bar differential of the induced family."""
    return q110(s, psi) + circ1(s, pmc.entry(1, 0), psi)


def twisted_q120(s: CyclicStructure, pmc: MaurerCartanFamily,
                 psi: CochainTensor) -> CochainTensor:
    """Twisted coproduct: q120 + (product ∘₁ (2,0)-entry)."""
    base = q120(s, psi)
    e20 = pmc.entry(2, 0)
    if e20.is_zero():
        return base
    return base + circ1(s, e20, psi)


# ---------------------------------------------------------------------------
# unit relations
# ---------------------------------------------------------------------------

def twisted_q1lg_on_unit(s: CyclicStructure, pmc: MaurerCartanFamily,
                         l: int, g: int) -> CochainTensor:
    """The (1,l,g) twisted operation on the dual of the unit letter: the
    partial composition :func:`circ1` of the (l,g) entry with it.

    This is minus (the entry composed with volume insertion), the IBL unit
    axiom.  The unit dual stores only the unit letter, so each term of
    ``circ1`` contracts it against T^{unit,b} = -vol_b (the unit letter is
    odd) and places e_b at one rotation position of slot j: volume
    insertion.  With an empty left half, the block sign of ``circ1`` is
    (-1)^(|e_b| (|s| + |W_1..W_{j-1}|)), the outer sign of the insertion
    into slot j.  A value at weight w needs the entry at weight w + 1, so
    the bound is the entry's bound - 1.
    """
    if s.unit is None:
        raise ValueError(f"{s.name}: no unit")
    if not pmc.is_strictly_reduced():
        raise ValueError("twist element is not strictly reduced")
    return circ1(s, pmc.entry(l, g),
                 dual_word(s.basis, (s.unit,), slot_shift=s.slot_shift))


# ---------------------------------------------------------------------------
# induced A-infinity family
# ---------------------------------------------------------------------------

def mu_from_mc(s: CyclicStructure, pmc10: CochainTensor,
               max_arity: int) -> CyclicStructure:
    """The A-infinity family of a one-output twist entry:

        mu_k(v_1..v_k) = (-1)^(m-3) sum T^{ij} entry(e_i v_1..v_k) e_j,

    with mu_1 the structure differential.  The entry is nonzero only on the
    rotations of its stored words: each distinct rotation x of a stored
    word of weight k + 1 <= max_arity + 1, with its rotation sign, feeds
    mu_k(x_1..x_k) through the row T^{x_0 j}.  Returns a new structure
    carrying the family on the same basis, pairing and unit.
    """
    if pmc10.arity != 1:
        raise ValueError("one-output entries only")
    if not pmc10.is_zero() and pmc10.filtration_degree() <= 2:
        raise ValueError("entry must have filtration degree > 2")
    if pmc10.weight_bound is not None and max_arity >= pmc10.weight_bound:
        raise TruncationError(f"arity {max_arity} needs the entry beyond its bound")
    rows: dict[int, list[tuple[int, Fraction]]] = {}
    for (i, j), t in t_tensor(s).items():
        rows.setdefault(i, []).append((j, t))
    sgn = -1 if (s.manifold_dim - 3) % 2 else 1
    acc: dict[int, dict] = {k: {} for k in range(2, max_arity + 1)}
    for (w,), c in pmc10.items():
        table = acc.get(len(w) - 1)
        if table is None:
            continue
        for x, sx in dict(rotations(w, s.basis)).items():
            img = table.setdefault(x[1:], {})
            for j, t in rows.get(x[0], ()):
                img[j] = img.get(j, ZERO) + sgn * sx * t * c
    mu = {1: dict(s.mu.get(1, {}))}
    for k, table in acc.items():
        mu[k] = {key: dict(sorted(table[key].items())) for key in sorted(table)}
    return s.replace(name=f"{s.name}+twist", mu=mu)


def twisted_boundary_vs_bar_dual(s: CyclicStructure, pmc: MaurerCartanFamily,
                                 psi: CochainTensor
                                 ) -> tuple[CochainTensor, CochainTensor]:
    """Both routes to the twisted boundary: the operation itself, and the
    dual bar differential of the induced A-infinity family, up to the arity
    of the entry's top weight."""
    left = twisted_q110(s, pmc, psi)
    e10 = pmc.entry(1, 0)
    twisted = mu_from_mc(s, e10, max(e10.weights(), default=3) - 1)
    return left, dual_b(twisted, psi)


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------

class RelationReport:
    """Outcome of the relation suite: failures as (relation, witness), per
    relation name the number of instances (generator tuples) checked, and
    the number of those that received a term; an instance without one
    holds whatever the operations are."""

    def __init__(self, passed: bool, failures: list[tuple[str, tuple]],
                 checked: dict[str, int], with_terms: dict[str, int]):
        self.passed = passed
        self.failures = failures
        self.checked = checked
        self.with_terms = with_terms

    def __eq__(self, other):
        if other.__class__ is not RelationReport:
            return NotImplemented
        return ((self.passed, self.failures, self.checked, self.with_terms)
                == (other.passed, other.failures, other.checked, other.with_terms))

    def summary(self) -> str:
        counts = ", ".join(f"{name} {n}" for name, n in self.checked.items())
        if not any(self.checked.values()):
            return "no relation instance checked"
        if self.passed:
            lines = [f"all relations hold on the instances checked ({counts})"]
        else:
            lines = [f"{len(self.failures)} failing relation(s), instances checked: {counts}"]
            for name, witness in self.failures[:10]:
                lines.append(f"  {name} at {witness}")
        vacuous = [name for name, n in self.with_terms.items() if not n]
        if vacuous:
            lines.append("no instance received a term: " + ", ".join(vacuous))
        return "\n".join(lines)


def ibl_relations_check(s: CyclicStructure, max_weight: int,
                        T=None) -> RelationReport:
    """Verify the quadratic relations of the canonical structure on all dual
    words of total input weight up to ``max_weight``:

    the boundary squares to zero, is a derivation of the product and a
    coderivation of the coproduct; the product satisfies the graded Jacobi
    identity (over ordered triples) and the coproduct the graded co-Jacobi
    identity; product and coproduct are Drinfeld-compatible; the composite
    of coproduct followed by product vanishes (involutivity).  All Koszul
    signs run over shifted slot degrees, under which all three operations
    are odd and symmetric.  A failure names the relation and the tuple of
    generators (canonical words) it fails on; ``checked`` counts the
    instances of each relation, and ``with_terms`` those of them that
    received at least one term, so a relation nothing was checked for shows.

    Each relation is checked as a sparse contraction of three tables that
    belong to this call alone: the boundary of every generator, from one
    transposed sweep of mu_1 over them (none when mu_1 = 0), the coproduct
    of every generator (:func:`dual_word_coproduct`) and the product of
    every ordered pair of dual words (:func:`dual_word_product`), filled
    when first used.  The arity-2 and arity-3 relations are accumulated as
    coefficients on symmetric products of dual words, so a sum vanishes
    exactly when the tensor it stands for does.  The coproduct table and
    the product table each pass one memo dict, made for this call, to all
    their calls: a word's rotations and a contracted word's canonical form
    are found once per table, not once per pair.

    The tables hold Python ints.  Each relation is homogeneous of fixed
    degree (a, b, c) in mu_1, the product and the coproduct, the last two
    linear in T: boundary squared (2, 0, 0), product derivation (1, 1, 0),
    coproduct coderivation (1, 0, 1), Jacobi (0, 2, 0), co-Jacobi
    (0, 0, 2), involutivity and Drinfeld compatibility (0, 1, 1).  So the
    tables are built on D_T T, D_T the least common denominator of T, on
    the least integral multiple of mu_1
    (:func:`~cycibl.algebra.integral_multiple`), and with the coproduct
    doubled: the sum of each instance is multiplied by a nonzero constant,
    and the instances that fail, in order, are those of the rational
    operations.

    Passing ``T`` overrides the contraction tensor (mutation testing).
    """
    _, T = _integral_t(s) if T is None else integral(T)
    basis = s.basis
    by_weight = {w: list(canonical_words(basis, w)) for w in range(1, max_weight + 1)}
    gens = [u for w in range(1, max_weight + 1) for u in by_weight[w]]
    bdry = {}
    if s.mu.get(1):
        _, mu1 = integral_multiple(CyclicStructure(
            s.name, basis, s.manifold_dim, None, {1: s.mu[1]}))
        bdry = transposed_b(mu1, gens)
    memo: dict = {}
    cop = {u: [(c if a == b else 2 * c, a, b)
               for (a, b), c in dual_word_coproduct(s, T, u, memo).items() if c]
           for u in gens}
    return _relation_report(s, T, by_weight, {u: bdry.get(u, {}) for u in gens}, cop)


def _relation_report(s: CyclicStructure, T, by_weight: dict[int, list[Word]],
                     bdry, cop) -> RelationReport:
    """The relations of :func:`ibl_relations_check` on the generators
    ``by_weight`` (weight -> words), from their boundaries ``bdry[u]``
    (word -> coefficient) and coproducts ``cop[u]`` ((coefficient, a, b) on
    symmetric products of dual words), with products contracted over T."""
    basis, shift = s.basis, s.slot_shift
    max_weight = max(by_weight, default=0)
    gens = [u for w in range(1, max_weight + 1) for u in by_weight[w]]
    odd = {u: slot_degree(u, basis, shift) % 2 for u in gens}
    fails: list[tuple[str, tuple]] = []
    checked = dict.fromkeys(
        ("boundary squared", "coproduct coderivation", "involutivity",
         "product derivation", "Jacobi", "co-Jacobi", "Drinfeld compatibility"), 0)
    with_terms = dict(checked)

    def check(name, acc, witness):
        """Count one instance of a relation, and in ``with_terms`` when acc
        received a term; a nonzero acc fails it."""
        checked[name] += 1
        if acc:
            with_terms[name] += 1
            if any(acc.values()):
                fails.append((name, witness))

    products: dict[tuple[Word, Word], dict[Word, Fraction]] = {}
    memo: dict = {}

    def product(u, v):
        """The product of two dual words, times the sign of the first
        suspension crossing u: its distributed-suspension form."""
        got = products.get((u, v))
        if got is None:
            got = dual_word_product(s, T, u, v, memo)
            if (s.manifold_dim - 3) * basis.word_degree(u) % 2:
                got = {w: -c for w, c in got.items()}
            products[(u, v)] = got
        return got

    def add(acc, vec, c):
        for w, x in vec.items():
            acc[w] = acc.get(w, 0) + c * x

    def add_product(acc, vec, v, c):
        """acc += c * product(vec, v) for a cochain vec over dual words."""
        for w, x in vec.items():
            add(acc, product(w, v), c * x)

    def add_sym(acc, words, c):
        """acc += c * (symmetric product of the dual words in the tuple)."""
        keyed = canonical_key(words, basis, shift)
        if keyed is not None:
            key, sgn = keyed
            acc[key] = acc.get(key, 0) + sgn * c

    def add_pairs(acc, vec, y, c):
        for w, x in vec.items():
            add_sym(acc, (w, y), c * x)

    def partners(u1):
        """Generators u2, in order, with len(u1) + len(u2) <= max_weight."""
        for w2 in range(1, max_weight - len(u1) + 1):
            yield from by_weight[w2]

    # boundary squared; coderivation over the coproduct; involutivity
    for u in gens:
        acc = {}
        for v, c in bdry[u].items():
            add(acc, bdry[v], c)
        check("boundary squared", acc, (u,))
        acc = {}
        for v, c in bdry[u].items():
            for c2, a, b in cop[v]:
                add_sym(acc, (a, b), c * c2)
        inv = {}
        for c, x, y in cop[u]:
            add_pairs(acc, bdry[x], y, c)
            sgn = -1 if odd[x] else 1
            for y2, c2 in bdry[y].items():
                add_sym(acc, (x, y2), c * sgn * c2)
            add(inv, product(x, y), c)
        check("coproduct coderivation", acc, (u,))
        check("involutivity", inv, (u,))

    # derivation over the product
    for u1 in gens:
        sgn = -1 if odd[u1] else 1
        for u2 in partners(u1):
            acc = {}
            for w, c in product(u1, u2).items():
                add(acc, bdry[w], c)
            add_product(acc, bdry[u1], u2, 1)
            for v, c in bdry[u2].items():
                add(acc, product(u1, v), sgn * c)
            check("product derivation", acc, (u1, u2))

    # Jacobi
    for u1 in gens:
        p1 = odd[u1]
        for w2 in range(1, max_weight - len(u1)):
            for u2 in by_weight[w2]:
                p2 = odd[u2]
                for w3 in range(1, max_weight - len(u1) - w2 + 1):
                    for u3 in by_weight[w3]:
                        p3 = odd[u3]
                        acc = {}
                        add_product(acc, product(u1, u2), u3, 1)
                        add_product(acc, product(u1, u3), u2, -1 if p2 * p3 else 1)
                        add_product(acc, product(u2, u3), u1,
                                    -1 if p1 * (p2 + p3) % 2 else 1)
                        check("Jacobi", acc, (u1, u2, u3))

    # co-Jacobi: extend the coproduct over its own output
    for u in gens:
        acc = {}
        for c, x, y in cop[u]:
            for c2, a, b in cop[x]:
                add_sym(acc, (a, b, y), c * c2)
            sgn = -1 if odd[x] else 1
            for c2, a, b in cop[y]:
                add_sym(acc, (x, a, b), c * c2 * sgn)
        check("co-Jacobi", acc, (u,))

    # Drinfeld compatibility: the genus-zero part of extending the product
    # over one output of the coproduct balances the coproduct of the product
    for u1 in gens:
        p1 = odd[u1]
        for u2 in partners(u1):
            p2 = odd[u2]
            acc = {}
            for w, c in product(u1, u2).items():
                for c2, a, b in cop[w]:
                    add_sym(acc, (a, b), c * c2)
            for c, x, y in cop[u1]:
                px, py = odd[x], odd[y]
                s1 = -1 if py * p2 else 1
                add_pairs(acc, product(x, u2), y, c * s1)
                s2 = -1 if px * (py + p2) % 2 else 1
                add_pairs(acc, product(y, u2), x, c * s2)
            sgn1 = -1 if p1 else 1
            for c, x, y in cop[u2]:
                px, py = odd[x], odd[y]
                add_pairs(acc, product(u1, x), y, c * sgn1)
                s2 = -1 if px * py else 1
                add_pairs(acc, product(u1, y), x, c * s2 * sgn1)
            check("Drinfeld compatibility", acc, (u1, u2))

    return RelationReport(not fails, fails, checked, with_terms)
