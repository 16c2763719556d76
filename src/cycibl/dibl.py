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

All cochains are stored unshifted; the degree shift per slot under which
these operations become symmetric is ``m - 3``, carried as the tensors'
``slot_shift``; Koszul signs between slots always use the shifted degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .algebra import CyclicStructure, dual_b
from .signs import ZERO
from .words import (CochainTensor, TruncationError, Word, canonical_key,
                    canonical_words, canonicalize, dual_word, product_cochain,
                    rotations, slot_degree)


def t_tensor(s: CyclicStructure) -> dict[tuple[int, int], Fraction]:
    """Sparse contraction tensor T^{ij} = (-1)^|e_i| P(e^i, e^j)."""
    dual = s.dual_basis()
    out = {}
    for i in range(len(s.basis)):
        sgn = -1 if s.basis.degrees[i] % 2 else 1
        for j in range(len(s.basis)):
            v = sgn * s.pair(dual[i], dual[j])
            if v:
                out[(i, j)] = v
    return out


def _splittings(word: Word, basis):
    """(rotation sign, left half, right half) over all rotations and cuts.

    Rotations run over the full cyclic group; each rotated tensor is split
    at every position, halves of length zero included.
    """
    for rotated, sign in rotations(tuple(word), basis):
        for cut in range(len(word) + 1):
            yield sign, rotated[:cut], rotated[cut:]


# ---------------------------------------------------------------------------
# the three canonical operations
# ---------------------------------------------------------------------------

def q110(s: CyclicStructure, psi: CochainTensor) -> CochainTensor:
    """The boundary: insert the differential at each letter with Koszul prefix."""
    if psi.arity != 1:
        raise ValueError("q110 takes arity-1 cochains")
    out = CochainTensor(s.basis, 1, psi.slot_shift, psi.weight_bound)
    if not s.mu.get(1):
        return out
    deg = s.basis.degrees
    sources: dict[int, list[int]] = {}  # letter -> letters whose mu_1 hits it
    for (j,), img in sorted(s.mu[1].items()):
        for letter in img:
            sources.setdefault(letter, []).append(j)
    candidates = set()
    for (u,), _ in psi.items():
        for pos, letter in enumerate(u):
            for j in sources.get(letter, ()):
                candidates.add(canonicalize(u[:pos] + (j,) + u[pos + 1:], s.basis)[0])
    for u in candidates:
        if u is None:
            continue
        val = Fraction(0)
        for pos in range(len(u)):
            sgn = -1 if sum(deg[x] for x in u[:pos]) % 2 else 1
            for o, c in s.mu_apply(1, (u[pos],)).items():
                val += sgn * c * psi.eval_tuple((u[:pos] + (o,) + u[pos + 1:],))
        if val:
            out.add((u,), val)
    return out


def _q210_value(s, T, phi2, word: Word, info1=None, info2=None) -> Fraction:
    """Product value on one word, for an arity-2 functional phi2(x1, x2).

    Optional support info (weights, head letters) for the two factors
    prunes split lengths and contraction entries.
    """
    deg = s.basis.degrees
    total = Fraction(0)
    k = len(word)

    def admits(info, weight):
        weights, heads, bound = info
        return weight in weights or (bound is not None and weight > bound)

    cuts = None
    if info1 is not None and info2 is not None:
        cuts = [c for c in range(k + 1)
                if admits(info1, c + 1) and admits(info2, k - c + 1)]
        if not cuts:
            return total
    for rotated, sign in rotations(tuple(word), s.basis):
        for cut in (range(k + 1) if cuts is None else cuts):
            w1, w2 = rotated[:cut], rotated[cut:]
            d1 = s.basis.word_degree(w1)
            for (i, j), t in T.items():
                if info1 is not None and info1[1] is not None \
                        and i not in info1[1]:
                    continue
                if info2 is not None and info2[1] is not None \
                        and j not in info2[1]:
                    continue
                extra = -1 if (deg[j] % 2) and (d1 % 2) else 1
                val = phi2((i,) + w1, (j,) + w2)
                if val:
                    total += sign * extra * t * val
    return total


def _support_info(psi: CochainTensor):
    """(known weights, head-letter filter, truncation bound) of a cochain.

    Beyond a truncation bound values are unknown rather than zero, so the
    letter filter is disabled there and any over-bound weight is admitted.
    """
    weights = set()
    heads: set | None = set()
    for (u,), _ in psi.items():
        weights.add(len(u))
        for letter in set(u):
            heads.add(letter)
    if psi.weight_bound is not None:
        heads = None
    return weights, heads, psi.weight_bound


def _pair_candidates(s, psi1, psi2):
    candidates = set()
    for (u1,), _ in psi1.items():
        for (u2,), _ in psi2.items():
            for r1, _ in rotations(u1, s.basis):
                for r2, _ in rotations(u2, s.basis):
                    if len(r1) + len(r2) < 3:
                        continue
                    canon, _ = canonicalize(r1[1:] + r2[1:], s.basis)
                    if canon is not None:
                        candidates.add(canon)
    return candidates


def _guarded_pair(psi1, psi2):
    """Product of two evaluations where either factor may be truncated; a
    term is zero whenever one factor is known to vanish, even if the other
    cannot be evaluated there."""
    def phi2(x1, x2):
        try:
            v = psi1.eval_tuple((x1,))
        except TruncationError:
            if psi2.eval_tuple((x2,)) == 0:
                return Fraction(0)
            raise
        if not v:
            return v
        return v * psi2.eval_tuple((x2,))
    return phi2


def _tensor_multiplicity(word: Word) -> int:
    """Number of rotations of a word's cyclic class equal to it as a tensor."""
    k = len(word)
    return k // next(p for p in range(1, k + 1)
                     if k % p == 0 and word[p:] + word[:p] == word)


def dual_word_product(s: CyclicStructure, T, u: Word, v: Word) -> dict[Word, Fraction]:
    """Product of the dual words of two canonical words, as canonical word ->
    value, by direct contraction.

    Every pair of rotations (e_i w1, e_j w2) of u and v with T^{ij} != 0 is
    one term of the product formula on the class of w1 w2, counted once for
    each rotation of that class equal to w1 w2 as a tensor.
    """
    basis = s.basis
    deg = basis.degrees
    out: dict[Word, Fraction] = {}
    rots_v = dict(rotations(v, basis)).items()
    for ru, su in dict(rotations(u, basis)).items():
        i, w1 = ru[0], ru[1:]
        odd1 = basis.word_degree(w1) % 2
        for rv, sv in rots_v:
            t = T.get((i, rv[0]))
            if not t or len(ru) + len(rv) < 3:
                continue
            word = w1 + rv[1:]
            canon, sign = canonicalize(word, basis)
            if canon is None:
                continue
            if odd1 and deg[rv[0]] % 2:
                sign = -sign
            val = _tensor_multiplicity(word) * sign * su * sv * t
            out[canon] = out.get(canon, ZERO) + val
    return {w: c for w, c in out.items() if c}


def q210(s: CyclicStructure, psi1: CochainTensor, psi2: CochainTensor,
         T=None) -> CochainTensor:
    """The product on an ordered pair of arity-1 cochains.

    Untruncated factors are expanded over dual words
    (:func:`dual_word_product`); truncated ones are evaluated word by word.
    """
    if psi1.arity != 1 or psi2.arity != 1:
        raise ValueError("q210 takes arity-1 cochains")
    T = t_tensor(s) if T is None else T
    bound = _contraction_bound(psi1, psi2)
    out = CochainTensor(s.basis, 1, psi1.slot_shift, bound)
    if bound is None:
        acc: dict[Word, Fraction] = {}
        for (u,), c1 in psi1.items():
            for (v,), c2 in psi2.items():
                for w, c in dual_word_product(s, T, u, v).items():
                    acc[w] = acc.get(w, ZERO) + c1 * c2 * c
        out.values = {(w,): c for w, c in acc.items() if c}
        return out
    phi2 = _guarded_pair(psi1, psi2)
    info1, info2 = _support_info(psi1), _support_info(psi2)

    for u in _pair_candidates(s, psi1, psi2):
        if bound is not None and len(u) > bound:
            continue
        val = _q210_value(s, T, phi2, u, info1, info2)
        if val:
            out.add((u,), val)
    return out


def coproduct_value(s, T, psi: CochainTensor, w1: Word, w2: Word) -> Fraction:
    """Coproduct value on an ordered pair of words."""
    deg = s.basis.degrees
    total = Fraction(0)
    for r1, s1 in rotations(tuple(w1), s.basis):
        d1 = s.basis.word_degree(r1)
        for r2, s2 in rotations(tuple(w2), s.basis):
            for (i, j), t in T.items():
                extra = -1 if (deg[j] % 2) and (d1 % 2) else 1
                val = psi.eval_tuple(((i,) + r1 + (j,) + r2,))
                if val:
                    total += Fraction(1, 2) * s1 * s2 * extra * t * val
    return total


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


def q120(s: CyclicStructure, psi: CochainTensor, T=None) -> CochainTensor:
    """The coproduct of an arity-1 cochain, as an arity-2 tensor.

    Values are stored in the distributed-suspension normalization, under
    which slot swaps cost the shifted Koszul sign; the displayed collected
    formula is corrected by the sign distributing the two suspensions.
    """
    if psi.arity != 1:
        raise ValueError("q120 takes arity-1 cochains")
    T = t_tensor(s) if T is None else T
    bound = None if psi.weight_bound is None else psi.weight_bound - 2
    out = CochainTensor(s.basis, 2, psi.slot_shift, bound)

    candidates = set()
    for (u,), _ in psi.items():
        k = len(u)
        if k < 4:
            continue
        for rot, _ in rotations(u, s.basis):
            for p2 in range(2, k - 1 + 1):
                if (rot[0], rot[p2]) not in T:
                    continue
                a = canonicalize(rot[1:p2], s.basis)[0]
                b = canonicalize(rot[p2 + 1:], s.basis)[0] if p2 + 1 < k else None
                if a is not None and b is not None:
                    candidates.add((a, b))

    seen = set()
    for a, b in candidates:
        keyed = canonical_key((a, b), s.basis, psi.slot_shift)
        if keyed is None or keyed[0] in seen:
            continue
        seen.add(keyed[0])
        key = keyed[0]
        val = coproduct_value(s, T, psi, key[0], key[1])
        if val:
            out.add(key, distribution_sign(s, key) * val)
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
    sgn = Fraction(-1) ** (s.manifold_dim - 2)
    mc10 = CochainTensor(s.basis, 1, s.slot_shift)
    for u in canonical_words(s.basis, 3):
        val = sgn * s.mu_plus(2, u)
        if val:
            mc10.add((u,), val)
    return MaurerCartanFamily(s, {(1, 0): mc10})


@dataclass
class MaurerCartanFamily:
    """Indexed family of twist entries; entry (l, g) is an arity-l cochain."""

    structure: CyclicStructure
    entries: dict[tuple[int, int], CochainTensor]

    def __post_init__(self):
        e10 = self.entries.get((1, 0))
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


def circ1(s: CyclicStructure, pmc_lg: CochainTensor, psi: CochainTensor,
          T=None) -> CochainTensor:
    """Partial composition of the product with an arity-l twist entry.

    Evaluated on an l-tuple of words, the j-th word is rotated and split as
    in the product; psi eats the left half, the entry the right half:

        sum_j sum eps' eps(w_j -> w1 w2) T^{ab}
              psi(e_a w1) entry(W_1 .. (e_b w2) .. W_l),

    where eps' is the Koszul sign of the block reordering

        (s e_a e_b) W_1..W_{j-1} (s w1 w2)  ->  (s e_a w1) W_1..W_{j-1} (s e_b w2)

    in shifted slot degrees: |e_b|(|W_1|+..+|W_{j-1}| + |s| + |w1|)
    + |w1|(|W_1|+..+|W_{j-1}| + |s|).
    """
    if psi.arity != 1:
        raise ValueError("circ1 twists arity-1 cochains")
    l = pmc_lg.arity
    T = t_tensor(s) if T is None else T
    shift = psi.slot_shift
    deg = s.basis.degrees
    bound = _contraction_bound(pmc_lg, psi)
    out = CochainTensor(s.basis, l, shift, bound)
    s_par = shift % 2

    candidates = set()
    psi_heads = set()
    for (u,), _ in psi.items():
        for rot, _ in rotations(u, s.basis):
            psi_heads.add(rot)
    for key in list(pmc_lg.values):
        for j in range(l):
            for rot, _ in rotations(key[j], s.basis):
                for (a, b), t in T.items():
                    if rot[0] != b:
                        continue
                    for head in psi_heads:
                        if head[0] != a:
                            continue
                        joined = head[1:] + rot[1:]
                        if not joined:
                            continue
                        canon, _ = canonicalize(joined, s.basis)
                        if canon is None:
                            continue
                        keyed = canonical_key(key[:j] + (canon,) + key[j + 1:],
                                              s.basis, shift)
                        if keyed is not None:
                            candidates.add(keyed[0])

    def value(words: tuple[Word, ...]) -> Fraction:
        total = Fraction(0)
        slot_degs = [slot_degree(w, s.basis, shift) for w in words]
        for j in range(l):
            pre = sum(slot_degs[:j]) % 2
            for sign, w1, w2 in _splittings(words[j], s.basis):
                d_w1 = s.basis.word_degree(w1) % 2
                for (a, b), t in T.items():
                    try:
                        pv = psi.eval_tuple(((a,) + w1,))
                    except TruncationError:
                        if pmc_lg.eval_tuple(
                                words[:j] + ((b,) + w2,) + words[j + 1:]) == 0:
                            continue
                        raise
                    if not pv:
                        continue
                    inner = pmc_lg.eval_tuple(
                        words[:j] + ((b,) + w2,) + words[j + 1:])
                    if not inner:
                        continue
                    eps = ((deg[b] % 2) * ((pre + s_par + d_w1) % 2)
                           + d_w1 * ((pre + s_par) % 2)) % 2
                    term = sign * t * pv * inner
                    total += -term if eps else term
        return total

    for words in sorted(candidates, key=lambda ws: (sum(len(w) for w in ws), ws)):
        total = sum(len(w) for w in words)
        if out.weight_bound is not None and total > out.weight_bound:
            continue
        try:
            val = value(words)
        except TruncationError:
            # genuinely unknown here: tighten the honest bound
            out.weight_bound = total - 1
            out.values = {k: v for k, v in out.values.items()
                          if sum(len(w) for w in k) < total}
            continue
        if val:
            out.add(words, val)
    return out


def circ1_l1(s: CyclicStructure, pmc_1g: CochainTensor, psi: CochainTensor,
             T=None) -> CochainTensor:
    """Independent route for one-output entries:

        (-1)^(m-3) sum T^{ab} eps(w -> w1 w2) entry(e_a w1) psi(e_b w2),

    with no interleaving sign; must agree with :func:`circ1` and with the
    ordered product of (entry, psi).
    """
    if pmc_1g.arity != 1:
        raise ValueError("one-output entries only")
    T = t_tensor(s) if T is None else T
    sgn = Fraction(-1) ** (s.manifold_dim - 3)
    bound = _contraction_bound(pmc_1g, psi)
    out = CochainTensor(s.basis, 1, psi.slot_shift, bound)
    phi2 = _guarded_pair(pmc_1g, psi)

    for u in _pair_candidates(s, pmc_1g, psi):
        if bound is not None and len(u) > bound:
            continue
        total = Fraction(0)
        for sign, w1, w2 in _splittings(u, s.basis):
            for (a, b), t in T.items():
                val = phi2((a,) + w1, (b,) + w2)
                if val:
                    total += sign * t * val
        total *= sgn
        if total:
            out.add((u,), total)
    return out


def twisted_q110(s: CyclicStructure, pmc: MaurerCartanFamily,
                 psi: CochainTensor) -> CochainTensor:
    """Twisted boundary: q110 plus the product against the (1,0) entry, in
    the distributed-suspension normalization (the form that agrees exactly
    with the dual bar differential of the induced family)."""
    e10 = pmc.entry(1, 0)
    twist = q210(s, e10, psi).scaled(collection_sign(s, e10))
    return q110(s, psi) + twist


def twisted_q120(s: CyclicStructure, pmc: MaurerCartanFamily,
                 psi: CochainTensor) -> CochainTensor:
    """Twisted coproduct: q120 + (product ∘₁ (2,0)-entry)."""
    base = q120(s, psi)
    e20 = pmc.entry(2, 0)
    if e20.is_zero():
        return base
    return base + circ1(s, e20, psi)


# ---------------------------------------------------------------------------
# unit relations and volume insertion
# ---------------------------------------------------------------------------

def iota_vol(s: CyclicStructure, letters: Word) -> list[tuple[Word, Fraction]]:
    """Signed insertion of the volume letter at every position of a word."""
    vol = s.volume_vector()
    deg = s.basis.degrees
    out = []
    for i in range(len(letters)):
        pre = sum(deg[x] for x in letters[:i])
        for v, c in vol.items():
            sg = -1 if (deg[v] % 2) and (pre % 2) else 1
            out.append((tuple(letters[:i]) + (v,) + tuple(letters[i:]), sg * c))
    return out


def iota_vol_tuple(s: CyclicStructure, words: tuple[Word, ...], slot_shift: int):
    """Volume insertion across tensor slots of a shifted tuple.

    Yields (tuple, coefficient) pairs; slot j enters with the sign
    (-1)^(|vol| (|W_1| + ... + |W_{j-1}| + |s|)) in shifted slot degrees.
    """
    vol = s.volume_vector()
    vol_degs = {s.basis.degrees[i] % 2 for i in vol}
    if len(vol_degs) != 1:
        raise ValueError("volume vector must be homogeneous")
    vdeg = vol_degs.pop()
    s_par = slot_shift % 2
    for j in range(len(words)):
        pre = sum(slot_degree(w, s.basis, slot_shift) for w in words[:j])
        outer = -1 if vdeg and ((pre + s_par) % 2) else 1
        for ins, c in iota_vol(s, words[j]):
            yield words[:j] + (ins,) + words[j + 1:], outer * c


def iota_vol_pairing(s: CyclicStructure, psi: CochainTensor,
                     words: tuple[Word, ...]) -> Fraction:
    """Evaluate psi ∘ (volume insertion) on a tuple of words."""
    total = Fraction(0)
    for tup, c in iota_vol_tuple(s, words, psi.slot_shift):
        total += c * psi.eval_tuple(tup)
    return total


def twisted_q1lg_on_unit(s: CyclicStructure, pmc: MaurerCartanFamily,
                         l: int, g: int) -> CochainTensor:
    """The (1,l,g) twisted operation on the dual of the unit letter:
    minus (the (l,g) entry composed with volume insertion)."""
    if not pmc.is_strictly_reduced():
        raise ValueError("twist element is not strictly reduced")
    entry = pmc.entry(l, g)
    out = CochainTensor(s.basis, l, entry.slot_shift, entry.weight_bound)
    vol_letters = set(s.volume_vector())
    seen = set()
    for key in list(entry.values):
        for j, w in enumerate(key):
            if len(w) < 2:
                continue
            for pos, letter in enumerate(w):
                if letter not in vol_letters:
                    continue
                canon, _ = canonicalize(w[:pos] + w[pos + 1:], s.basis)
                if canon is None:
                    continue
                cand = key[:j] + (canon,) + key[j + 1:]
                keyed = canonical_key(cand, s.basis, entry.slot_shift)
                if keyed is None or keyed[0] in seen:
                    continue
                seen.add(keyed[0])
                val = -iota_vol_pairing(s, entry, keyed[0])
                if val:
                    out.add(keyed[0], val)
    return out


# ---------------------------------------------------------------------------
# induced A-infinity family
# ---------------------------------------------------------------------------

def mu_from_mc(s: CyclicStructure, pmc10: CochainTensor,
               max_arity: int) -> CyclicStructure:
    """The A-infinity family of a one-output twist entry:

        mu_k(v_1..v_k) = (-1)^(m-3) sum T^{ij} entry(e_i v_1..v_k) e_j,

    with mu_1 the structure differential.  Returns a new structure carrying
    the family on the same basis, pairing and unit.
    """
    if pmc10.arity != 1:
        raise ValueError("one-output entries only")
    if not pmc10.is_zero() and pmc10.filtration_degree() <= 2:
        raise ValueError("entry must have filtration degree > 2")
    T = t_tensor(s)
    sgn = Fraction(-1) ** (s.manifold_dim - 3)
    mu = {1: dict(s.mu.get(1, {}))}
    for k in range(2, max_arity + 1):
        table = {}
        for letters in iproduct(range(len(s.basis)), repeat=k):
            img: dict[int, Fraction] = {}
            for (i, j), t in T.items():
                c = pmc10.eval_tuple(((i,) + letters,))
                if c:
                    img[j] = img.get(j, Fraction(0)) + sgn * t * c
            img = {o: c for o, c in img.items() if c}
            if img:
                table[letters] = img
        mu[k] = table
    return CyclicStructure(
        name=f"{s.name}+twist",
        basis=s.basis,
        manifold_dim=s.manifold_dim,
        pairing=s.pairing,
        mu=mu,
        unit=s.unit,
        augmentation=s.augmentation,
    )


def mc_reconstruction_check(s: CyclicStructure, pmc10: CochainTensor,
                            twisted: CyclicStructure, max_weight: int) -> bool:
    """The one-output entry equals (-1)^(m-2) * sum of the family's paired
    operations, on all words up to the given weight."""
    sgn = Fraction(-1) ** (s.manifold_dim - 2)
    for w in range(1, max_weight + 1):
        for u in canonical_words(s.basis, w):
            total = Fraction(0)
            for k in twisted.arities():
                if k >= 2 and k + 1 == w:
                    total += twisted.mu_plus(k, u)
            if pmc10.eval_word(u) != sgn * total:
                return False
    return True


def twisted_boundary_vs_bar_dual(s: CyclicStructure, pmc: MaurerCartanFamily,
                                 psi: CochainTensor, max_arity: int = 6
                                 ) -> tuple[CochainTensor, CochainTensor]:
    """Both routes to the twisted boundary: the operation itself, and the
    dual bar differential of the induced A-infinity family."""
    left = twisted_q110(s, pmc, psi)
    twisted = mu_from_mc(s, pmc.entry(1, 0), max_arity)
    right = dual_b(twisted, psi)
    return left, right


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------

def decompose_arity2(phi: CochainTensor) -> list[tuple[Fraction, Word, Word]]:
    """Write an arity-2 tensor as a combination of products of dual words:
    (coefficient, first word, second word) per stored value."""
    out = []
    for (a, b), v in phi.values.items():
        x = dual_word(phi.basis, a, phi.slot_shift)
        y = dual_word(phi.basis, b, phi.slot_shift)
        ref = product_cochain([x, y]).eval_tuple((a, b))
        out.append((v / ref, a, b))
    return out


@dataclass
class RelationReport:
    passed: bool
    failures: list[tuple[str, tuple]]

    def summary(self) -> str:
        if self.passed:
            return "all relations hold"
        lines = [f"{len(self.failures)} failing relation(s):"]
        for name, witness in self.failures[:10]:
            lines.append(f"  {name} at {witness}")
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
    generators (canonical words) it fails on.

    Each relation is checked as a sparse contraction of three tables that
    belong to this call alone and are dropped when it returns: the boundary
    and the coproduct of every generator, and the product of every ordered
    pair of dual words, filled the first time it is used.  General cochains
    are expanded over dual words, which have value 1 on their canonical
    word.  The arity-2 relations are accumulated as coefficients on
    symmetric products of dual words (each stored value divided by the
    nonzero normalization of its key), so a sum vanishes exactly when the
    tensor it stands for does.  The tables change only the cost: the
    relations, the instances checked and the witnesses reported are those
    of evaluating every operation on every instance directly.

    Passing ``T`` overrides the contraction tensor (mutation testing).
    """
    T = t_tensor(s) if T is None else T
    basis, shift = s.basis, s.slot_shift
    fails: list[tuple[str, tuple]] = []
    by_weight = {w: list(canonical_words(basis, w)) for w in range(1, max_weight + 1)}
    gens = [u for w in range(1, max_weight + 1) for u in by_weight[w]]
    dual = {u: dual_word(basis, u, shift) for u in gens}
    odd = {u: slot_degree(u, basis, shift) % 2 for u in gens}
    # distributed-suspension form of the product: the collected formula
    # times the sign of the first argument's suspension crossing
    crossing = {u: collection_sign(s, dual[u]) for u in gens}
    bdry = {u: {w: c for (w,), c in q110(s, dual[u]).items()} for u in gens}
    cop = {u: decompose_arity2(q120(s, dual[u], T=T)) for u in gens}
    products: dict[tuple[Word, Word], dict[Word, Fraction]] = {}

    def product(u, v):
        got = products.get((u, v))
        if got is None:
            got = dual_word_product(s, T, u, v)
            if crossing[u] < 0:
                got = {w: -c for w, c in got.items()}
            products[(u, v)] = got
        return got

    def add(acc, vec, c):
        for w, x in vec.items():
            acc[w] = acc.get(w, ZERO) + c * x

    def add_product(acc, vec, v, c):
        """acc += c * product(vec, v) for a cochain vec over dual words."""
        for w, x in vec.items():
            add(acc, product(w, v), c * x)

    def add_pair(acc, x, y, c):
        """acc += c * (symmetric product of the dual words x, y)."""
        keyed = canonical_key((x, y), basis, shift)
        if keyed is not None:
            key, sgn = keyed
            acc[key] = acc.get(key, ZERO) + sgn * c

    def add_pairs(acc, vec, y, c):
        for w, x in vec.items():
            add_pair(acc, w, y, c * x)

    def partners(u1):
        """Generators u2, in order, with len(u1) + len(u2) <= max_weight."""
        for w2 in range(1, max_weight - len(u1) + 1):
            yield from by_weight[w2]

    # boundary squared; coderivation over the coproduct; involutivity
    for u in gens:
        acc = {}
        for v, c in bdry[u].items():
            add(acc, bdry[v], c)
        if any(acc.values()):
            fails.append(("boundary squared", (u,)))
        acc = {}
        for v, c in bdry[u].items():
            for c2, a, b in cop[v]:
                add_pair(acc, a, b, c * c2)
        inv = {}
        for c, x, y in cop[u]:
            add_pairs(acc, bdry[x], y, c)
            sgn = -1 if odd[x] else 1
            for y2, c2 in bdry[y].items():
                add_pair(acc, x, y2, c * sgn * c2)
            add(inv, product(x, y), c)
        if any(acc.values()):
            fails.append(("coproduct coderivation", (u,)))
        if any(inv.values()):
            fails.append(("involutivity", (u,)))

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
            if any(acc.values()):
                fails.append(("product derivation", (u1, u2)))

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
                        if any(acc.values()):
                            fails.append(("Jacobi", (u1, u2, u3)))

    # co-Jacobi: extend the coproduct over its own output
    for u in gens:
        acc = {}
        for c, x, y in cop[u]:
            for c2, a, b in cop[x]:
                add(acc, product_cochain([dual[a], dual[b], dual[y]]).values, c * c2)
            sgn = -1 if odd[x] else 1
            for c2, a, b in cop[y]:
                add(acc, product_cochain([dual[x], dual[a], dual[b]]).values,
                    c * c2 * sgn)
        if any(acc.values()):
            fails.append(("co-Jacobi", (u,)))

    # Drinfeld compatibility: the genus-zero part of extending the product
    # over one output of the coproduct balances the coproduct of the product
    for u1 in gens:
        p1 = odd[u1]
        for u2 in partners(u1):
            p2 = odd[u2]
            acc = {}
            for w, c in product(u1, u2).items():
                for c2, a, b in cop[w]:
                    add_pair(acc, a, b, c * c2)
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
            if any(acc.values()):
                fails.append(("Drinfeld compatibility", (u1, u2)))

    return RelationReport(not fails, fails)
