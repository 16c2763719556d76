"""Exact sparse linear algebra over the rationals and filtered graded homology.

This module is the package's one home of exact sparse arithmetic; every
other module accumulates, solves, inverts, ranks and takes determinant
signs through it:

* ``add_into`` and ``add_scaled`` -- ``acc += c·v`` on dict vectors,
  dropping the entries that cancel;
* ``rank`` and ``kernel_basis`` -- read off one echelon form; the rows wait
  in buckets keyed by lead column, the least key is the next pivot column,
  and its pivot row is the bucket's sparsest row (the earliest on ties);
* ``solve`` -- coefficients of several right-hand sides in the span of a
  list of columns, from one echelon form of ``[A | B]``;
* ``det_sign`` -- the sign of a square determinant, from one incremental
  elimination;
* ``Eliminator`` -- incremental echelon form for span membership, basis
  extension and filtered image dimensions;
* ``graded_homology`` -- weight-graded homology of a weight-filtered
  complex.

Elimination takes ints only and makes no ``Fraction`` (Bareiss 1968), so
it is exact by construction, and this module alone turns rationals into
ints:

* ``integral`` scales vectors to ints over the least common denominator
  of their entries, the one way in: a caller scales its own rational data
  once, and a positive row scale keeps the leads, the signs and the
  reduced echelon form;
* ``primitive`` divides int vectors, and optionally their denominator, by
  their positive gcd: pivot rows have a positive lead p, a row holding f
  at the lead becomes ``p·row - f·pivot`` over its content, and a
  :mod:`cycibl.green` operator ``cols / den`` has gcd 1;
* the solvers hand out ints in the same form: ``kernel_basis`` one int
  vector per free column, ``solve`` ``(d, d·x_0, d·x_1, ...)`` over the
  least common denominator d, as ``integral`` does.  ``Fraction``s appear
  only where values leave the package's functions.

The homology callers scale a bar differential b, linear in the structure
constants, to the integral D·b: it has the kernels, images and
reduced-echelon kernel vectors of b, and (D·b)² = D²·b².

The homology engine works per degree on a weight-filtered complex whose
differential shifts weight by 0 or +1 (dual side) or by 0 or -1 (primal
side), and eliminates each degree once: one kernel basis of the
differential and one ``Eliminator`` over the incoming image give the
dimensions of every filtration level, from the rank identity

    dim gr_w H = (k_w - k_next) - (i_w - i_next),

where k_w / i_w are the dimensions of kernel / image intersected with the
weight filtration and "next" is the following filtration level.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .signs import koszul_sign


class SparseMatrix:
    """Rows stored as dicts ``col -> value``, without zero entries: a given
    row that holds one is replaced by a copy without them.  The solvers
    eliminate int rows only."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)] if rows is None else rows
        for r, row in enumerate(rows or ()):
            for c in row:
                if not (0 <= c < ncols):
                    raise ValueError(f"column {c} out of range in row {r}")
            if not all(row.values()):
                rows[r] = {c: v for c, v in row.items() if v}

    @classmethod
    def from_columns(cls, nrows, columns):
        mat = cls(nrows, len(columns))
        for c, col in enumerate(columns):
            for r, v in col.items():
                if v:
                    mat.rows[r][c] = v
        return mat


def _echelon(mat: SparseMatrix) -> tuple[list[dict], list[int]]:
    """The reduced row echelon form of an int matrix up to a positive
    factor per row: (primitive int rows, pivot columns), by pivot.

    The remaining rows are kept in buckets by lead column, so the next lead
    is the least bucket key and only that bucket's rows are reduced.  The
    pivot is the bucket's row with the fewest entries, the earliest in the
    input on ties.  The pending lead columns wait in a heap, pushed when
    their bucket is made.  A new pivot is eliminated only from the earlier
    pivot rows that ``holders`` lists under its lead column: those that
    took an entry there (it may have cancelled).
    """
    by_lead: dict[int, list[tuple[int, dict]]] = {}
    for i, r in enumerate(mat.rows):
        if r:
            by_lead.setdefault(min(r), []).append((i, dict(r)))
    leads = sorted(by_lead)
    pivots: list[int] = []
    out: list[dict] = []
    holders: dict[int, list[dict]] = {}
    while leads:
        lead = heapq.heappop(leads)
        bucket = by_lead.pop(lead)
        entry = min(bucket, key=lambda e: (len(e[1]), e[0]))
        bucket.remove(entry)
        pivot = entry[1]
        primitive((pivot,), lead=lead)
        p = pivot[lead]
        tail = [(c, v) for c, v in pivot.items() if c != lead]
        for prev in holders.pop(lead, ()):
            f = prev.pop(lead, None)
            if f is not None:
                _eliminate(prev, p, f, tail)
                for c, _ in tail:
                    holders.setdefault(c, []).append(prev)
        for i, r in bucket:
            _eliminate(r, p, r.pop(lead), tail)
            if r:
                c = min(r)
                if c not in by_lead:
                    heapq.heappush(leads, c)
                by_lead.setdefault(c, []).append((i, r))
        for c, _ in tail:
            holders.setdefault(c, []).append(pivot)
        out.append(pivot)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [out[i] for i in order], [pivots[i] for i in order]


def integral(*vecs: dict) -> tuple:
    """``(d, d·vecs[0], d·vecs[1], ...)``: d the least common denominator
    of the entries of ``vecs`` (1 when there are none), each vector scaled
    by it to ints, without its zero entries."""
    d = math.lcm(*[v.denominator for vec in vecs for v in vec.values()])
    return (d, *[{c: v.numerator * (d // v.denominator)
                  for c, v in vec.items() if v} for vec in vecs])


def primitive(vecs, den: int = 0, lead=None) -> int:
    """Divide the int vectors of ``vecs`` in place, and ``den``, by the
    positive gcd g of ``den`` and their entries, by -g instead when the
    entry of ``vecs[0]`` at ``lead`` is negative; return ``den`` so divided.
    The default ``den`` 0 leaves g to the entries alone."""
    g = den
    for vec in vecs:
        if g == 1:
            break
        g = math.gcd(g, *vec.values())
    if lead is not None and vecs[0][lead] < 0:
        g = -g
    if g != 1 and g:
        for vec in vecs:
            for c in vec:
                vec[c] //= g
        den //= g
    return den


def _eliminate(row: dict, p: int, f: int, items) -> None:
    """``row <- p·row - f·items`` in place (p > 0) for the ``(c, v)`` of
    ``items``, dropping entries that cancel; then primitive when p is not
    1.  All entries are ints."""
    if p != 1:
        for c in row:
            row[c] *= p
    for c, v in items:
        old = row.get(c)
        if old is None:
            row[c] = -f * v
        else:
            new = old - f * v
            if new:
                row[c] = new
            else:
                del row[c]
    if p != 1:
        primitive((row,))


def add_into(acc: dict, key, c) -> None:
    """``acc[key] += c``, dropping the entry if it cancels."""
    old = acc.get(key)
    if old is None:
        if c:
            acc[key] = c
    elif new := old + c:
        acc[key] = new
    else:
        del acc[key]


def add_scaled(acc: dict, vec: dict, c=1) -> None:
    """``acc += c·vec`` in place, dropping the entries that cancel
    (:func:`add_into` inlined: a call per entry costs more than an int add)."""
    for key, v in vec.items():
        v = c * v
        old = acc.get(key)
        if old is None:
            if v:
                acc[key] = v
        elif new := old + v:
            acc[key] = new
        else:
            del acc[key]


def rank(mat: SparseMatrix) -> int:
    return len(_echelon(mat)[1])


def kernel_basis(mat: SparseMatrix) -> list[dict]:
    """Int vectors v (dicts over columns) with M v = 0, one per free column
    in column order: the reduced-echelon kernel vector of the column over
    its least common denominator, so positive at the free column, which is
    its maximum key.  Every entry of a reduced row off its pivot sits in a
    free column, so one pass over the rows fills in every kernel vector,
    scaled up where an entry would not be an int."""
    rows, pivots = _echelon(mat)
    basis = {c: {c: 1} for c in range(mat.ncols)}
    for p in pivots:
        del basis[p]
    for row, p in zip(rows, pivots):
        lead = row[p]
        for c, v in row.items():
            if c != p:
                vec = basis[c]
                v = -v * vec[c]
                m = lead // math.gcd(lead, v)
                if m != 1:
                    for k in vec:
                        vec[k] *= m
                vec[p] = v * m // lead
    return list(basis.values())


def solve(columns: list[dict], rhs_list: list[dict]) -> tuple:
    """``(d, d·x_0, d·x_1, ...)``, the form of :func:`integral`: per
    right-hand side the coefficients x with ``sum_c x[c] * columns[c] ==
    rhs``, as ints over d, the least common denominator of them all.

    Vectors are int dicts over nonnegative row indices.  One echelon form
    of ``[A | B]`` serves every right-hand side; the entry for one outside
    the span of the columns is ``None``.  Coefficients of non-pivot columns
    are zero, so the answer is unique when the columns are independent.
    """
    n = len(columns)
    cols = list(columns) + list(rhs_list)
    nrows = 1 + max((r for col in cols for r in col), default=-1)
    rows, pivots = _echelon(SparseMatrix.from_columns(nrows, cols))
    d = math.lcm(*(row[p] for row, p in zip(rows, pivots) if p < n))
    out: list[dict | None] = []
    for j in range(n, len(cols)):
        sol: dict | None = {}
        for row, p in zip(rows, pivots):
            if j in row:
                if p >= n:
                    sol = None
                    break
                sol[p] = row[j] * (d // row[p])
        out.append(sol)
    return primitive([x for x in out if x is not None], d), *out


def det_sign(columns: list[dict]) -> int:
    """Sign of the determinant of the square matrix with these columns; 0 if singular.

    Reducing each column against the earlier ones keeps the determinant up
    to a positive factor; the reduced columns are triangular once sorted by
    their leads, so the sign is that of the lead permutation times the
    signs of the lead coefficients before normalization.
    """
    elim = Eliminator()
    leads = []
    sign = 1
    for col in columns:
        red = elim.reduce(col)
        if not red:
            return 0
        lead = min(red)
        if red[lead] < 0:
            sign = -sign
        leads.append(lead)
        elim.add(red)
    return sign * koszul_sign(leads, [1] * len(leads))


class Eliminator:
    """Incremental elimination of int vectors for span membership and basis
    extension.

    ``rows`` are primitive int rows with a positive lead.  ``reduce``
    returns a positive int multiple of the rational reduction, with its
    leads and signs."""

    def __init__(self):
        self.rows: dict[int, dict] = {}

    def reduce(self, vec: dict) -> dict:
        vec = {c: v for c, v in vec.items() if v}
        rows = self.rows
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                return vec
            _eliminate(vec, row[lead], vec[lead], row.items())
        return vec

    def add(self, vec: dict) -> bool:
        """Insert a vector; True if it enlarged the span."""
        red = self.reduce(vec)
        if not red:
            return False
        lead = min(red)
        primitive((red,), lead=lead)
        self.rows[lead] = red
        return True


class HomologyReport:
    """Graded homology of a truncated complex.

    ``dims[(degree, weight)]`` are the dimensions of the weight-graded
    pieces, ``reps`` holds representative cycles as dicts ``key -> Fraction``
    adapted to the filtration, and ``stable`` flags the weights at which the
    truncated answer provably equals the untruncated one.
    """

    def __init__(self, weight_bound: int):
        self.weight_bound = weight_bound
        self.dims: dict = {}
        self.reps: dict = {}
        self.stable: dict = {}

    def dim(self, degree: int, weight: int) -> int:
        return self.dims.get((degree, weight), 0)

    def rows(self):
        return [(d, w, self.dims[(d, w)], self.stable[(d, w)])
                for d, w in sorted(self.dims)]

    def nonzero_rows(self):
        return [(d, w, n, s) for d, w, n, s in self.rows() if n]

    def stable_classes(self):
        return {(d, w): n for d, w, n, s in self.nonzero_rows() if s}

    def table(self) -> str:
        lines = ["weight  degree  dim  stable"]
        for d, w, n, s in self.nonzero_rows():
            lines.append(f"{w:>6}  {d:>6}  {n:>3}  {'yes' if s else 'no'}")
        return "\n".join(lines)


class SquareZeroError(Exception):
    """The supplied differential fails d*d = 0; signals a sign bug upstream."""


def graded_homology(basis_fn, diff_fn, degrees, weight_bound,
                    weight_step: int = 1, degree_step: int = -1) -> HomologyReport:
    """Homology of a weight-filtered complex, truncated at ``weight_bound``.

    ``basis_fn(degree)`` lists basis keys ``(weight, payload)`` of that
    degree with weight between 1 and the bound.  ``diff_fn(key)`` gives the
    differential of a basis vector as a dict ``key -> coeff`` of ints (a
    rational differential enters scaled by :func:`integral`); it must be
    the untruncated differential, so on the dual side it may reach weight
    ``weight_bound + 1`` (such targets are kept as phantom coordinates and
    closedness is decided against them).
    ``degree_step`` is the degree shift of the differential; ``weight_step``
    (+1 dual side, -1 primal side) is the direction in which it may move
    weight besides preserving it.  Weights up to ``weight_bound - 1`` are
    certified stable; ``reps`` are ``Fraction``-valued.
    """
    if weight_step not in (1, -1):
        raise ValueError("weight_step must be +1 or -1")
    report = HomologyReport(weight_bound)
    diff_cache: dict = {}

    def diff(key):
        img = diff_cache.get(key)
        if img is None:
            img = {k: v for k, v in diff_fn(key).items() if v}
            allowed = (key[0], key[0] + weight_step)
            for tgt in img:
                if tgt[0] not in allowed:
                    raise ValueError(
                        f"differential moved weight {key[0]} -> {tgt[0]}")
            diff_cache[key] = img
        return img

    # d*d = 0 is checked on every degree before any is eliminated: an
    # image that leaves the kernel would otherwise surface as a count
    # mismatch in the degree below
    bases = {d: basis_fn(d) for d in degrees}
    for d in degrees:
        for key in bases[d]:
            acc: dict = {}
            for mid, c in diff(key).items():
                add_scaled(acc, diff(mid), c)
            if acc:
                raise SquareZeroError(
                    f"d*d != 0 at degree {d}, key {key}: {acc}")

    for d in degrees:
        # Deepest filtration level first, so that every F_w is a prefix.
        src = sorted(bases[d], key=lambda key: (-weight_step * key[0], key))
        prev = sorted(bases[d - degree_step] if d - degree_step in bases
                      else basis_fn(d - degree_step))

        # Kernel: the vector of a free column is supported at or before that
        # column (which is its maximum), so the vectors of the free columns
        # inside a prefix span ker ∩ F_w.
        coord_t: dict = {}
        cols = [{coord_t.setdefault(t, len(coord_t)): c
                 for t, c in diff(key).items()} for key in src]
        kernel = kernel_basis(SparseMatrix.from_columns(len(coord_t), cols))

        # Image: coordinates count down from the deepest key (len(src) - 1)
        # to the outermost one (0) and on to the phantom targets beyond the
        # bound (negative).  Every F_w is then a suffix of the nonnegative
        # coordinates, and dim(im ∩ F_w) is the number of echelon leads in it.
        top = len(src) - 1
        coord = {key: top - i for i, key in enumerate(src)}

        def img_col(key):
            if key not in coord:
                if 1 <= key[0] <= weight_bound:
                    raise ValueError(
                        f"differential target {key} missing from basis({d})")
                coord[key] = top - len(coord)
            return coord[key]

        elim = Eliminator()
        for key in prev:
            elim.add({img_col(t): c for t, c in diff(key).items()})

        # dim gr_w H: free columns of weight w minus image leads of weight w.
        weights = sorted({key[0] for key in src})
        dims = dict.fromkeys(weights, 0)
        for vec in kernel:
            dims[src[max(vec)][0]] += 1
        for lead in elim.rows:
            if lead >= 0:
                dims[src[top - lead][0]] -= 1

        # Representatives adapted to the filtration: extend the image span
        # by the kernel vectors, from the deepest level outward.
        reps: dict[int, list[dict]] = {w: [] for w in weights}
        for vec in kernel:
            if elim.add({top - i: c for i, c in vec.items()}):
                free = max(vec)
                reps[src[free][0]].append(
                    {src[i]: Fraction(c, vec[free]) for i, c in vec.items()})

        for w in weights:
            report.dims[(d, w)] = dims[w]
            report.stable[(d, w)] = w <= weight_bound - 1
            if len(reps[w]) != dims[w]:
                raise AssertionError(
                    f"adapted representatives disagree with graded dimension "
                    f"at degree {d}, weight {w}: {len(reps[w])} vs {dims[w]}")
            report.reps[(d, w)] = reps[w]
    return report
