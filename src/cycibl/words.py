"""Cyclic words over a graded basis and weight-truncated dual cochains.

A word is a nonempty tuple of letter indices into a :class:`GradedBasis`.
The rotation ``t`` moves the last letter to the front and multiplies by the
Koszul sign ``(-1)**(|v_k| * (|v_1| + ... + |v_{k-1}|))``; a cyclic word is a
word modulo this signed rotation.  Canonical representatives are the
rotation whose sequence of letter indices is lexicographically minimal
(ties broken by the smallest rotation count), with the accumulated sign
pushed into coefficients; labels play no part.  A cyclic word whose
stabilizing rotation carries sign -1 is its own negative: the class is zero
and the word is called *annihilated*.

Cochain tensors are arity-``k`` functionals on tuples of cyclic words, with
support truncated at a weight bound when they arise from truncated data.
Tuples are stored on keys sorted by (weight, letters); swapping two slots
costs the Koszul sign in the per-slot degrees shifted by ``slot_shift`` (the
shift under which the product/coproduct operations become symmetric, i.e.
``m - 3`` for a pairing of degree ``2 - m``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import add_into, add_scaled
from .signs import GradedBasis, koszul_sign, perm_inverse

Word = tuple[int, ...]

INFINITE = math.inf


class TruncationError(Exception):
    """Raised when a value is requested beyond a cochain's truncation bound."""


def rotation_sign(total: int, tail: int) -> int:
    """Koszul sign of ``t^r`` on a word of degree ``total`` whose last r
    letters, the ones moved to the front, have degree ``tail``.

    The moved block crosses the rest, of degree ``total - tail``, so the
    sign is ``(-1)**(tail * (total - tail)) = (-1)**(tail * (total - 1))``:
    every rotation of an odd-degree word has sign +1.
    """
    return -1 if tail & 1 and not total & 1 else 1


def rotations(letters: Word, basis: GradedBasis) -> list[tuple[Word, int]]:
    """All k rotations ``t^r(w) = w[k-r:] + w[:k-r]`` of a word with their
    signs, r = 0..k-1."""
    deg = basis.degrees
    prefix = [0]
    for i in letters:
        prefix.append(prefix[-1] + deg[i])
    k, total = len(letters), prefix[-1]
    return [(letters, 1)] + [
        (letters[k - r:] + letters[:k - r],
         rotation_sign(total, total - prefix[k - r])) for r in range(1, k)]


def canonicalize(letters: Word, basis: GradedBasis) -> tuple[Word | None, int]:
    """Canonical rotation of a word.

    Returns ``(canonical_letters, sign)`` with ``[letters] = sign * [canonical]``
    in the cyclic quotient, or ``(None, 1)`` when the class is annihilated.
    """
    letters = tuple(letters)
    deg = basis.degrees
    total = sum([deg[i] for i in letters])
    least = min(letters)
    if letters.count(least) == 1:
        # a unique least letter starts the canonical rotation, and a word
        # holding a letter once is not periodic
        start = letters.index(least)
    else:
        k = len(letters)
        doubled = letters + letters
        rots = [doubled[r:r + k] for r in range(k)]
        best = min(rots)
        start = rots.index(best)
        # a word made of c copies of a block: t^(k/c) fixes it with the sign
        # of moving one block, -1 exactly when c is even and the block odd
        copies = rots.count(best)
        if not copies & 1 and (total // copies) & 1:
            return None, 1
    if not start:
        return letters, 1
    head = sum([deg[i] for i in letters[:start]])
    return letters[start:] + letters[:start], rotation_sign(total, total - head)


def _necklaces(m: int, n: int):
    """Fredricksen-Kessler-Maiorana generation of the necklaces (rotation
    minimal words) of length n over ``range(m)``, in lexicographic order.

    Yields ``(word, period)``; the word is a list reused between steps.
    """
    a = [0] * n
    yield a, 1
    while True:
        i = n - 1
        while i >= 0 and a[i] == m - 1:
            i -= 1
        if i < 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = a[j - i - 1]
        if n % (i + 1) == 0:
            yield a, i + 1


def canonical_words(basis: GradedBasis, weight: int):
    """All non-annihilated canonical cyclic words of a given weight, in
    ascending order of letter indices.

    The necklaces over the letter indices are exactly the canonical
    rotations; a periodic one is annihilated when moving one period to the
    front has sign -1.
    """
    if weight < 1 or not len(basis):
        return
    deg = basis.degrees
    for a, period in _necklaces(len(basis), weight):
        block = sum([deg[i] for i in a[:period]])
        if not (weight // period) & 1 and block & 1:
            continue
        yield tuple(a)


def slot_degree(letters: Word, basis: GradedBasis, slot_shift: int) -> int:
    """Degree of a word seen as one slot of a symmetric tuple."""
    return basis.word_degree(letters) + slot_shift


def canonical_key(words: tuple[Word, ...], basis: GradedBasis, slot_shift: int):
    """Sort a tuple of canonical words into the canonical slot order, by
    (weight, letters).

    Returns ``(key, sign)``, or ``None`` when the tuple is self-annihilating
    (two equal slots of odd shifted degree).
    """
    k = len(words)
    if k == 1:
        return words, 1
    degs = [slot_degree(w, basis, slot_shift) for w in words]
    order = sorted(range(k), key=lambda i: (len(words[i]), words[i]))
    for a in range(k):
        for b in range(a + 1, k):
            if words[a] == words[b] and degs[a] % 2:
                return None
    sigma = [0] * k
    for pos, i in enumerate(order):
        sigma[i] = pos
    sign = koszul_sign(tuple(sigma), degs)
    return tuple(words[i] for i in order), sign


def canonical_tuples(basis: GradedBasis, slot_shift: int, total: int, slots: int):
    """Each key of :func:`canonical_key` made of ``slots`` canonical words
    of the given total weight, once.

    The nondecreasing tuples over the canonical words, ordered by (weight,
    letters), are walked lexicographically.  Such a tuple is already in
    slot order, so it is its own key with sign +1; only the
    self-annihilating ones are left out.
    """
    weights = range(1, total - slots + 2) if slots > 1 else (total,)
    by_weight = {w: list(canonical_words(basis, w)) for w in weights}

    def walk(slots, total, least):
        if slots == 1:
            for u in by_weight.get(total, ()):
                if (total, u) >= least:
                    yield (u,)
            return
        for w in range(least[0], total // slots + 1):
            for u in by_weight[w]:
                if (w, u) >= least:
                    for rest in walk(slots - 1, total - w, (w, u)):
                        yield (u,) + rest

    for words in walk(slots, total, (1, ())):
        if canonical_key(words, basis, slot_shift) is not None:
            yield words


class CochainTensor:
    """A weight-truncated functional on ``arity``-tuples of cyclic words.

    ``values`` maps canonically ordered tuples of canonical words to exact
    coefficients; evaluation on arbitrary word tensors routes through
    canonicalization and slot reordering.  ``weight_bound`` is the largest
    total weight at which values are known (``None`` = known everywhere).
    """

    __slots__ = ("basis", "arity", "slot_shift", "weight_bound", "values")

    def __init__(self, basis: GradedBasis, arity: int = 1, slot_shift: int = 0,
                 weight_bound: int | None = None):
        if arity < 1:
            raise ValueError("arity must be positive")
        self.basis = basis
        self.arity = arity
        self.slot_shift = slot_shift
        self.weight_bound = weight_bound
        self.values: dict[tuple[Word, ...], Fraction] = {}

    def add(self, words, coeff) -> None:
        """Accumulate ``coeff`` on a tuple of word tensors (any rotations, any order)."""
        coeff = Fraction(coeff)
        if not coeff:
            return
        if len(words) != self.arity:
            raise ValueError("tuple length does not match arity")
        canons = []
        for w in words:
            canon, s = canonicalize(tuple(w), self.basis)
            if canon is None:
                return
            coeff *= s
            canons.append(canon)
        keyed = canonical_key(tuple(canons), self.basis, self.slot_shift)
        if keyed is None:
            return
        add_into(self.values, keyed[0], keyed[1] * coeff)

    def eval_tuple(self, words) -> Fraction:
        """Evaluate on an ordered tuple of word tensors."""
        if len(words) != self.arity:
            raise ValueError("tuple length does not match arity")
        total = sum(len(w) for w in words)
        if self.weight_bound is not None and total > self.weight_bound:
            raise TruncationError(
                f"weight {total} exceeds truncation bound {self.weight_bound}")
        sign = 1
        canons = []
        for w in words:
            canon, s = canonicalize(tuple(w), self.basis)
            if canon is None:
                return Fraction(0)
            sign *= s
            canons.append(canon)
        keyed = canonical_key(tuple(canons), self.basis, self.slot_shift)
        if keyed is None:
            return Fraction(0)
        key, s = keyed
        return sign * s * self.values.get(key, Fraction(0))

    def eval_word(self, letters) -> Fraction:
        return self.eval_tuple((tuple(letters),))

    def is_zero(self) -> bool:
        return not self.values

    def weights(self) -> list[int]:
        return sorted({sum(len(w) for w in key) for key in self.values})

    def filtration_degree(self):
        """Least total weight with a nonzero value; ``inf`` for the zero cochain."""
        ws = self.weights()
        return ws[0] if ws else INFINITE

    def degree(self) -> int | None:
        """Total word degree if homogeneous, else None."""
        degs = {sum(self.basis.word_degree(w) for w in key) for key in self.values}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __add__(self, other: "CochainTensor") -> "CochainTensor":
        if (self.basis, self.arity, self.slot_shift) != (other.basis, other.arity, other.slot_shift):
            raise ValueError("incompatible cochain tensors")
        bound = _min_bound(self.weight_bound, other.weight_bound)
        out = CochainTensor(self.basis, self.arity, self.slot_shift, bound)
        out.values = dict(self.values)
        add_scaled(out.values, other.values)
        return out

    def equal_values(self, other: "CochainTensor") -> bool:
        return (self.arity == other.arity and self.slot_shift == other.slot_shift
                and self.values == other.values)

    def restricted(self, weight_bound: int) -> "CochainTensor":
        out = CochainTensor(self.basis, self.arity, self.slot_shift, weight_bound)
        out.values = {k: v for k, v in self.values.items()
                      if sum(len(w) for w in k) <= weight_bound}
        return out

    def items(self):
        return self.values.items()

    def __repr__(self):
        labels = self.basis.labels
        parts = []
        for key in sorted(self.values, key=lambda key: (sum(len(w) for w in key), key)):
            words = "|".join("".join(labels[i] for i in w) for w in key)
            parts.append(f"{words}: {self.values[key]}")
        bound = "" if self.weight_bound is None else f", W<={self.weight_bound}"
        return f"CochainTensor(arity={self.arity}{bound}; " + "; ".join(parts) + ")"


def _min_bound(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def dual_word(basis: GradedBasis, letters, slot_shift: int = 0,
              weight_bound: int | None = None) -> CochainTensor:
    """The dual of a single cyclic word: value 1 on it, 0 elsewhere."""
    out = CochainTensor(basis, 1, slot_shift, weight_bound)
    out.add((tuple(letters),), 1)
    return out


def product_cochain(psis: list[CochainTensor]) -> CochainTensor:
    """Symmetrized product of arity-1 cochains as an arity-k tensor.

    Values follow the (1/k!)-symmetrized evaluation with Koszul signs in the
    shifted slot degrees.
    """
    if not psis:
        raise ValueError("need at least one factor")
    basis = psis[0].basis
    shift = psis[0].slot_shift
    k = len(psis)
    bound = None
    for p in psis:
        if p.weight_bound is not None:
            bound = p.weight_bound if bound is None else min(bound, p.weight_bound)
    out = CochainTensor(basis, k, shift, bound)
    from itertools import permutations, product

    supports = [list(p.values.items()) for p in psis]
    seen = set()
    for combo in product(*supports):
        words = tuple(key[0] for key, _ in combo)
        keyed = canonical_key(words, basis, shift)
        if keyed is None or keyed[0] in seen:
            continue
        key = keyed[0]
        seen.add(key)
        degs = [slot_degree(w, basis, shift) for w in key]
        total = Fraction(0)
        for sigma in permutations(range(k)):
            # reordering the key along sigma puts key[inv[i]] in slot i
            sign = koszul_sign(sigma, degs)
            inv = perm_inverse(sigma)
            term = Fraction(1)
            for i in range(k):
                term *= psis[i].eval_tuple((key[inv[i]],))
                if not term:
                    break
            total += sign * term
        total /= math.factorial(k)
        if total:
            out.values[key] = total
    return out

