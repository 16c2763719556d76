"""Complex builders wiring cyclic structures into the graded homology engine.

Keys of the weight-filtered complexes are pairs ``(weight, word)`` with the
word a canonical letter tuple; the degree grading is by shifted word degree.
The dual (cochain) side uses the twisted or untwisted boundary, raising
weight by at most one; the primal (chain) side uses the bar differential,
lowering weight by at most one.
"""

from __future__ import annotations

from .algebra import CyclicStructure, bar_sweep, integral_multiple, transposed_b
from .dibl import MaurerCartanFamily, mu_from_mc
from .linalg import HomologyReport, graded_homology
from .words import canonical_words


def _word_index(s: CyclicStructure, weight_bound: int, reduced: bool):
    """``(weight, word)`` for every canonical word of weight up to the bound,
    in enumeration order, skipping unit words when ``reduced``: the one
    enumeration a homology call makes."""
    unit = s.unit if reduced else None
    return [(w, u) for w in range(1, weight_bound + 1)
            for u in canonical_words(s.basis, w) if unit is None or unit not in u]


def _by_degree(s: CyclicStructure, index, weight_bound: int):
    by_degree: dict[int, list] = {}
    for w, u in index:
        if w <= weight_bound:
            by_degree.setdefault(s.basis.word_degree(u), []).append((w, u))
    return by_degree


def dual_differential_table(s: CyclicStructure, pmc: MaurerCartanFamily | None,
                            top_weight: int, reduced: bool = False,
                            index=None):
    """The dual (twisted) boundary as a transpose of the primal bar
    differential, scaled to integers: word u maps to the dict of words v
    with the coefficient of u in D·b(v), an int.

    D is the least positive integer making the structure constants of the
    (twisted) family integral (:func:`~cycibl.algebra.integral_multiple`);
    it is 1 for the sphere and projective models.  D·b has the kernels,
    images and filtered dimensions of b.  The twisted boundary is the dual
    bar differential of the family induced by the one-output entry, so one
    cheap primal sweep over all words of weight up to ``top_weight``
    assembles every column at once.  A caller that already holds the word
    index of ``top_weight`` passes it as ``index``.
    """
    if pmc is None:
        amb = s
    else:
        e10 = pmc.entry(1, 0)
        if e10.weight_bound is not None and e10.weight_bound < top_weight:
            raise ValueError(
                "twist entry is truncated below the homology range")
        top_arity = max(e10.weights(), default=2) - 1
        amb = mu_from_mc(s, e10, max(2, top_arity))
    _, amb = integral_multiple(amb)
    if index is None:
        index = _word_index(s, top_weight, reduced)
    return transposed_b(amb, (v for _, v in index), s.unit if reduced else None)


def cochain_homology(s: CyclicStructure, pmc: MaurerCartanFamily | None,
                     weight_bound: int, reduced: bool = False) -> HomologyReport:
    """Homology of the (twisted) cyclic cochain complex, weights <= bound.

    Generators are duals of canonical words; the differential is the
    twisted boundary when a twist family is given, else the dual bar
    differential alone (the two routes are proved equal exactly by the
    acceptance suite).  The dual boundary lowers the degree grading by one
    and raises weight by at most one.
    """
    index = _word_index(s, weight_bound + 2, reduced)
    by_degree = _by_degree(s, index, weight_bound)
    table = dual_differential_table(s, pmc, weight_bound + 2, reduced, index)

    def basis_fn(d):
        return list(by_degree.get(d, []))

    def diff_fn(key):
        w, u = key
        return {(len(v), v): c for v, c in table.get(u, {}).items()}

    return graded_homology(basis_fn, diff_fn, sorted(by_degree), weight_bound,
                           weight_step=1, degree_step=-1)


def chain_homology(s: CyclicStructure, weight_bound: int,
                   reduced: bool = False) -> HomologyReport:
    """Homology of the primal cyclic bar complex, weights <= bound.

    The bar differential raises the degree grading by one and lowers weight
    by at most one; the truncation is a subcomplex.  It is taken with
    integral structure constants (:func:`~cycibl.algebra.integral_multiple`),
    which scales it without changing its homology or representatives.
    """
    _, integral = integral_multiple(s)
    by_degree = _by_degree(s, _word_index(s, weight_bound, reduced),
                           weight_bound)
    # every differential is computed first and the sweep's memo dropped
    # before the elimination; graded_homology asks for each key once and
    # keeps its own copy, so the table gives its entries up
    cols = bar_sweep(integral, (u for keys in by_degree.values() for _, u in keys),
                     s.unit if reduced else None)
    table = {(len(u), u): {(len(v), v): c for v, c in col.items()}
             for u, col in cols}

    def basis_fn(d):
        return list(by_degree.get(d, []))

    return graded_homology(basis_fn, table.pop, sorted(by_degree), weight_bound,
                           weight_step=-1, degree_step=1)
