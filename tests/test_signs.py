import copy
import pickle
from fractions import Fraction
from itertools import permutations as _itertools_permutations

import pytest
from hypothesis import given, strategies as st

from cycibl.signs import (GradedBasis, format_scalar, koszul_sign, perm_inverse,
                          scalar)


def identity_perm(k: int) -> tuple[int, ...]:
    return tuple(range(k))


def cyclic_perm(k: int) -> tuple[int, ...]:
    """The rotation sending position i to i+1 and the last position to 0."""
    return tuple((i + 1) % k for i in range(k))


def perm_compose(sigma: tuple[int, ...], tau: tuple[int, ...]) -> tuple[int, ...]:
    """Composite ``sigma after tau``: first apply tau, then sigma."""
    return tuple(sigma[tau[i]] for i in range(len(tau)))


def all_perms(k: int):
    """All permutations of k positions, as image tuples."""
    return _itertools_permutations(range(k))


def permute_tensor(factors: list, sigma: tuple[int, ...], degrees) -> tuple[list, int]:
    """Reorder factors along sigma, returning the new list and the Koszul sign."""
    if len(factors) != len(sigma):
        raise ValueError("permutation size does not match number of factors")
    out = [None] * len(factors)
    for i, f in enumerate(factors):
        out[sigma[i]] = f
    return out, koszul_sign(sigma, degrees)


def shift_basis(basis: GradedBasis, amount: int) -> GradedBasis:
    """Shift every degree down by ``amount``; labels are preserved."""
    return GradedBasis(basis.labels, tuple(d - amount for d in basis.degrees))


def test_identity_sign():
    assert koszul_sign(identity_perm(3), (3, 5, 2)) == 1


def test_swap_of_two_odd_factors():
    # the rotation on two factors of degree (1, 1) is the transposition
    assert koszul_sign(cyclic_perm(2), (1, 1)) == -1
    assert koszul_sign(cyclic_perm(2), (1, 2)) == 1
    assert koszul_sign(cyclic_perm(2), (2, 2)) == 1


def test_rotation_sign_formula():
    # moving the last factor to the front costs (-1)^(d_k sum(d_1..d_{k-1}))
    degs = (1, 2, 1, 3)
    expected = -1 if (degs[-1] * sum(degs[:-1])) % 2 else 1
    assert koszul_sign(cyclic_perm(4), degs) == expected


def test_cocycle_identity_exhaustive():
    # sign(sigma tau, d) = sign(sigma, tau d) sign(tau, d), all of S_3
    for degs in [(0, 1, 2), (1, 1, 1), (2, 1, 0), (0, 0, 1), (2, 2, 2)]:
        for sigma in all_perms(3):
            for tau in all_perms(3):
                lhs = koszul_sign(perm_compose(sigma, tau), degs)
                moved, s_tau = permute_tensor(list(degs), tau, degs)
                rhs = koszul_sign(sigma, tuple(moved)) * s_tau
                assert lhs == rhs, (sigma, tau, degs)


@given(st.lists(st.integers(min_value=-3, max_value=4), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_permute_then_invert(degs, rng):
    k = len(degs)
    perm = list(range(k))
    rng.shuffle(perm)
    sigma = tuple(perm)
    moved, s1 = permute_tensor(list(range(k)), sigma, degs)
    moved_degs = [degs[i] for i in perm_inverse(sigma)]
    assert [degs[i] for i in moved] == list(moved_degs)
    back, s2 = permute_tensor(moved, perm_inverse(sigma), moved_degs)
    assert back == list(range(k))
    assert s1 * s2 == 1


def test_scalar_round_trip():
    for text in ["3", "-7/2", "0", "22/7"]:
        assert format_scalar(scalar(text)) == text
    assert scalar("4/6") == Fraction(2, 3)


def test_basis_shift():
    b = GradedBasis(("1", "w"), (-1, 2))
    assert shift_basis(b, 0) == b
    shifted = shift_basis(b, 3 - 3)
    assert shifted.degrees == (-1, 2)
    # sphere basis shifted by n - 3 for n = 5: (-1, 4) -> (2 - 5, 2)
    b5 = GradedBasis(("1", "w"), (-1, 4))
    assert shift_basis(b5, 5 - 3).degrees == (-3, 2)
    assert shift_basis(shift_basis(b, 7), -7) == b


def test_basis_validation():
    with pytest.raises(ValueError):
        GradedBasis(("a", "a"), (0, 1))
    with pytest.raises(ValueError):
        GradedBasis(("a", "b"), (0,))


def test_graded_basis_is_an_immutable_value():
    b = GradedBasis(("w", "1"), (2, -1))
    same = GradedBasis(("w", "1"), (2, -1))
    assert b == same and hash(b) == hash(same)
    assert b != GradedBasis(("w", "1"), (0, -1))
    assert b != GradedBasis(("1", "w"), (-1, 2))
    for name in ("labels", "degrees", "other"):
        with pytest.raises(AttributeError):
            setattr(b, name, ())
        with pytest.raises(AttributeError):
            delattr(b, name)
    for twin in (copy.copy(b), copy.deepcopy(b),
                 pickle.loads(pickle.dumps(b))):
        assert twin == b and hash(twin) == hash(b)
        assert {twin: 1}[b] == 1
