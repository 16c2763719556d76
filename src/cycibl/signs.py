"""Exact scalars, graded bases, permutations and Koszul signs.

All coefficients in the engine are exact rationals (``fractions.Fraction``);
there is no floating point anywhere.  Degrees are always the degrees of the
*shifted* one-letter space: a letter of unshifted degree ``d`` is stored with
degree ``d - 1``, so the unit of a unital model sits in degree ``-1``.

Permutations act on tensor positions.  We encode a permutation of ``k``
factors as a tuple ``sigma`` with ``sigma[i]`` the target position of the
factor currently in position ``i`` (0-indexed).  Reordering homogeneous
factors along ``sigma`` multiplies the tensor by the Koszul sign, one factor
``(-1)**(d_i * d_j)`` for every inverted pair.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def scalar(x) -> Fraction:
    """Coerce ints, strings like ``"p/q"``, or Fractions to an exact scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def format_scalar(x: Fraction) -> str:
    """Serialize as ``"p"`` or ``"p/q"`` (lossless round trip)."""
    return str(x)


def perm_inverse(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


def koszul_sign(sigma: tuple[int, ...], degrees) -> int:
    """Sign for reordering homogeneous factors of the given degrees along sigma.

    Only the parities of the degrees matter.  The identity gives +1; the
    rotation moving the last factor to the front gives
    ``(-1)**(d_k * (d_1 + ... + d_{k-1}))``.
    """
    if len(sigma) != len(degrees):
        raise ValueError("permutation size does not match number of degrees")
    count = 0
    k = len(sigma)
    for i in range(k):
        if degrees[i] % 2 == 0:
            continue
        si = sigma[i]
        for j in range(i + 1, k):
            if si > sigma[j] and degrees[j] % 2 != 0:
                count += 1
    return -1 if count % 2 else 1


class GradedBasis:
    """A finite ordered basis of the shifted one-letter space.

    ``degrees[i]`` is the degree of letter ``labels[i]`` in the shifted
    space; the unshifted degree is ``degrees[i] + 1``.  Immutable, and
    equal and hashed by ``(labels, degrees)``.  Letters are ordered by their
    index ``i``; labels only name them and never enter a computation.
    """

    def __init__(self, labels: tuple[str, ...], degrees: tuple[int, ...]):
        if len(labels) != len(degrees):
            raise ValueError("labels and degrees must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        init = object.__setattr__
        init(self, "labels", labels)
        init(self, "degrees", degrees)

    def __setattr__(self, name, value):
        raise AttributeError(f"GradedBasis is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GradedBasis is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not GradedBasis:
            return NotImplemented
        return self.labels == other.labels and self.degrees == other.degrees

    def __hash__(self) -> int:
        return hash((self.labels, self.degrees))

    def __len__(self) -> int:
        return len(self.labels)

    def word_degree(self, letters) -> int:
        return sum(self.degrees[i] for i in letters)
