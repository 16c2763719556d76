"""Ribbon graphs with labelings, the propagator graph pairing, the maps
built from them, and the pushforward twist element.

A ribbon graph is encoded by half-edges 0..N-1: a list of vertex cycles
(the counterclockwise order of half-edges at each internal vertex) and an
involution pairing the half-edges of internal edges; unmatched half-edges
are external legs.  Boundary components are the cycles of
``next(h) = cyclic-successor of (partner of h)`` where legs are their own
partner; the legs along a boundary cycle inherit its cyclic order.  For a
connected graph, vertices - edges + boundaries = 2 - 2g.

A full labeling consists of an ordering of vertices and of boundary
components (L1), an ordering and orientation of the internal edges (L2),
and a first mark per vertex and per boundary component (L3).  L2 is
*compatible* with L1 when the orientation it induces on the chain complex

    C2 (boundaries) -> C1 (edges) -> C0 (vertices)

of the closed thickened surface matches the reference orientation of its
homology: the fundamental class is the sum of the boundary 2-cells, the
point class any vertex, and middle homology gets a fixed echelon basis;
the comparison is a determinant condition per chain level, with the global
convention pinned by the one-edge families: the orientation convention is
compatible exactly when the product of the level determinants equals
(-1)^(number of edges).

The graph pairing routes one propagator copy per edge (first slot on the
edge's tail half, second on its head half) and the boundary words to the
vertex slots, sums over all vertex/boundary orders and boundary marks, and
evaluates the cochains on the vertex blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iproduct

from .algebra import CyclicStructure
from .linalg import Eliminator, SparseMatrix, det_sign, kernel_basis
from .signs import koszul_sign
from .words import CochainTensor, Word, canonicalize, canonical_key


class RibbonGraph:
    """Half-edge encoding: vertex cycles plus an involution on a subset."""

    __slots__ = ("vertices", "pairing", "n", "legs", "edges", "_boundaries",
                 "_lab_cache", "_middle_cache")

    def __init__(self, vertices: list[tuple[int, ...]], edge_pairs: list[tuple[int, int]]):
        self.vertices = [tuple(v) for v in vertices]
        used = [h for v in self.vertices for h in v]
        self.n = len(used)
        if sorted(used) != list(range(self.n)):
            raise ValueError("half-edges must be 0..N-1, each at one vertex")
        self.pairing = {}
        for a, b in edge_pairs:
            if a == b:
                raise ValueError("an edge needs two distinct half-edges")
            self.pairing[a] = b
            self.pairing[b] = a
        if len(self.pairing) != 2 * len(edge_pairs):
            raise ValueError("edge pairs overlap")
        self.edges = [tuple(sorted(p)) for p in edge_pairs]
        self.edges.sort()
        self.legs = [h for h in range(self.n) if h not in self.pairing]
        self._boundaries = None
        self._lab_cache = {}
        self._middle_cache = None

    # -- structure ------------------------------------------------------

    def vertex_of(self, h: int) -> int:
        for i, v in enumerate(self.vertices):
            if h in v:
                return i
        raise KeyError(h)

    def successor(self, h: int) -> int:
        v = self.vertices[self.vertex_of(h)]
        return v[(v.index(h) + 1) % len(v)]

    def boundaries(self) -> list[tuple[int, ...]]:
        """Boundary cycles as tuples of half-edges in walk order."""
        if self._boundaries is None:
            nxt = {}
            for h in range(self.n):
                partner = self.pairing.get(h, h)
                nxt[h] = self.successor(partner)
            seen = set()
            out = []
            for h in range(self.n):
                if h in seen:
                    continue
                cycle = []
                cur = h
                while cur not in seen:
                    seen.add(cur)
                    cycle.append(cur)
                    cur = nxt[cur]
                out.append(tuple(cycle))
            out.sort()
            self._boundaries = out
        return self._boundaries

    def boundary_legs(self) -> list[tuple[int, ...]]:
        """Legs per boundary component, in the cyclic walk order."""
        legs = set(self.legs)
        return [tuple(h for h in cyc if h in legs) for cyc in self.boundaries()]

    def counts(self) -> tuple[int, int, int]:
        """(internal vertices, boundary components, genus)."""
        k = len(self.vertices)
        e = len(self.edges)
        l = len(self.boundaries())
        two_minus_2g = k - e + l
        if two_minus_2g % 2 != 0:
            raise ValueError("inconsistent Euler count")
        return k, l, (2 - two_minus_2g) // 2

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj = {i: set() for i in range(len(self.vertices))}
        for a, b in self.edges:
            va, vb = self.vertex_of(a), self.vertex_of(b)
            adj[va].add(vb)
            adj[vb].add(va)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def valencies(self) -> list[int]:
        return [len(v) for v in self.vertices]

    # -- canonical form and automorphisms --------------------------------
    #
    # A connected ribbon graph is rigid once a starting half-edge is fixed:
    # a breadth-first traversal of the rotation system then labels it
    # deterministically.  The canonical signature is the minimum of these
    # encodings over all starts, and the automorphism order is the number
    # of starts realizing the minimum.

    def _encoding_from(self, h0: int) -> tuple:
        vert_of = {}
        for vi, cyc in enumerate(self.vertices):
            for h in cyc:
                vert_of[h] = vi
        vertex_id: dict[int, int] = {}
        entry: dict[int, int] = {}
        order: list[int] = []

        def visit(v, h_entry):
            vertex_id[v] = len(order)
            entry[v] = h_entry
            order.append(v)

        visit(vert_of[h0], h0)
        pos = 0
        while pos < len(order):
            v = order[pos]
            pos += 1
            cyc = self.vertices[v]
            start = cyc.index(entry[v])
            for t in range(len(cyc)):
                h = cyc[(start + t) % len(cyc)]
                partner = self.pairing.get(h)
                if partner is not None and vert_of[partner] not in vertex_id:
                    visit(vert_of[partner], partner)
        rows = []
        for v in order:
            cyc = self.vertices[v]
            start = cyc.index(entry[v])
            row = []
            for t in range(len(cyc)):
                h = cyc[(start + t) % len(cyc)]
                partner = self.pairing.get(h)
                if partner is None:
                    row.append((-1, -1))
                else:
                    pv = vert_of[partner]
                    pcyc = self.vertices[pv]
                    off = (pcyc.index(partner) - pcyc.index(entry[pv])) \
                        % len(pcyc)
                    row.append((vertex_id[pv], off))
            rows.append(tuple(row))
        return tuple(rows)

    def canonical_signature(self) -> tuple:
        if self.n == 0:
            return ()
        return min(self._encoding_from(h) for h in range(self.n))

    def automorphism_order(self) -> int:
        if self.n == 0:
            return 1
        encodings = [self._encoding_from(h) for h in range(self.n)]
        best = min(encodings)
        return sum(1 for e in encodings if e == best)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

_ENUM_CACHE: dict = {}


def enumerate_graphs(k: int, l: int, g: int, legs: int,
                     trivalent: bool = False, reduced: bool = True):
    """Isomorphism classes of connected ribbon graphs of the given type.

    Returns a list of (graph, automorphism order).  The number of internal
    edges is forced: e = k + l + 2g - 2.  With ``trivalent`` every internal
    vertex has valency 3 (so 3k = 2e + legs must hold).  ``reduced`` applies
    the degenerate-class exclusions: for the two one-edge families these are
    the classes with no legs (two-vertex family) and with at most one leg
    (one-vertex two-boundary family); for other types, graphs with a legless
    boundary component are dropped (they cannot pair with nonempty words).
    Negative counts are rejected before the cache is consulted, so it only
    ever holds the finitely many types within the enumeration budget.
    """
    if min(k, l, g, legs) < 0:
        raise ValueError("k, l, g and legs must be nonnegative")
    cache_key = (k, l, g, legs, trivalent, reduced)
    if cache_key in _ENUM_CACHE:
        return _ENUM_CACHE[cache_key]
    e = k + l + 2 * g - 2
    if e < 0:
        return []
    total_half = 2 * e + legs
    if total_half > 24 or k > 4:
        raise ValueError("enumeration budget exceeded")
    if trivalent and 3 * k != total_half:
        return []

    # distribute valencies over vertices (nondecreasing partitions)
    if trivalent:
        valency_lists = [[3] * k] if k >= 1 else []
    else:
        def partitions(total, parts, minimum=1):
            if parts == 1:
                if total >= minimum:
                    yield (total,)
                return
            for first in range(minimum, total - (parts - 1) + 1):
                for rest in partitions(total - first, parts - 1, first):
                    yield (first,) + rest

        valency_lists = [list(p) for p in partitions(total_half, k)]

    seen_signatures = {}
    for vals in valency_lists:
        # half-edge layout: vertex i owns a consecutive block
        blocks = []
        start = 0
        for v in vals:
            blocks.append(tuple(range(start, start + v)))
            start += v
        n = start
        halves = list(range(n))

        def matchings(avail, count):
            if count == 0:
                yield []
                return
            if len(avail) < 2 * count:
                return
            first, rest0 = avail[0], avail[1:]
            # first half-edge stays a leg
            yield from matchings(rest0, count)
            # or is matched with any later half-edge
            for idx in range(len(rest0)):
                rest = rest0[:idx] + rest0[idx + 1:]
                for m in matchings(rest, count - 1):
                    yield [(first, rest0[idx])] + m

        for match in matchings(halves, e):
            used = {h for p in match for h in p}
            if len(used) != 2 * e:
                continue
            graph = RibbonGraph(blocks, match)
            if not graph.is_connected():
                continue
            kk, ll, gg = graph.counts()
            if (kk, ll, gg) != (k, l, g):
                continue
            if len(graph.legs) != legs:
                continue
            sig = graph.canonical_signature()
            if sig in seen_signatures:
                continue
            seen_signatures[sig] = (graph, graph.automorphism_order())

    out = list(seen_signatures.values())
    if reduced:
        out = [(gr, aut) for gr, aut in out if not _is_degenerate(gr, k, l, g)]
    out.sort(key=lambda pair_: pair_[0].canonical_signature())
    _ENUM_CACHE[cache_key] = out
    return out


def _is_degenerate(graph: RibbonGraph, k: int, l: int, g: int) -> bool:
    legs = len(graph.legs)
    if (k, l, g) == (2, 1, 0):
        return legs == 0
    if (k, l, g) == (1, 2, 0):
        return legs <= 1
    return any(len(b) == 0 for b in graph.boundary_legs())


# ---------------------------------------------------------------------------
# orientation compatibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Labeling:
    """Vertex order, boundary order, oriented ordered edges, first marks.

    ``edge_order`` lists edges as ordered half-edge pairs (tail, head);
    ``vertex_marks[i]`` is the starting half-edge of vertex ``vertex_order[i]``
    and ``boundary_marks[i]`` the starting leg position on boundary
    ``boundary_order[i]``.
    """

    vertex_order: tuple[int, ...]
    boundary_order: tuple[int, ...]
    edge_order: tuple[tuple[int, int], ...]
    vertex_marks: tuple[int, ...]
    boundary_marks: tuple[int, ...]


def orientation_compatible(graph: RibbonGraph, vertex_order, boundary_order,
                           edge_order) -> bool:
    """Whether the labeling orients the surface complex compatibly.

    The chain complex runs C2 (boundary 2-cells) -> C1 (edges) -> C0
    (vertices).  Reference orientations: the fundamental class is the sum
    of all 2-cells, the point class the first vertex, and middle homology
    the echelon kernel basis in the labeled edge coordinates.  The
    compatibility condition is det(level 0) * det(level 1) * det(level 2)
    = (-1)^e over the labeled bases.
    """
    k = len(graph.vertices)
    e = len(graph.edges)
    l = len(graph.boundaries())
    v_pos = {v: i for i, v in enumerate(vertex_order)}
    e_pos = {tuple(sorted(pair_)): i for i, pair_ in enumerate(edge_order)}
    b_pos = {b: i for i, b in enumerate(boundary_order)}

    # boundary map C1 -> C0: oriented edge = head - tail
    d1_cols = []
    for (tail, head) in edge_order:
        col = {}
        vt, vh = graph.vertex_of(tail), graph.vertex_of(head)
        col[v_pos[vh]] = col.get(v_pos[vh], Fraction(0)) + 1
        col[v_pos[vt]] = col.get(v_pos[vt], Fraction(0)) - 1
        d1_cols.append({r: v for r, v in col.items() if v})

    # boundary map C2 -> C1: each boundary cycle traverses each internal
    # half-edge once, in the direction away from its vertex
    cycles = graph.boundaries()
    d2_cols = [dict() for _ in range(l)]
    for b_idx, cyc in enumerate(cycles):
        col = {}
        for h in cyc:
            if h not in graph.pairing:
                continue
            pair_ = tuple(sorted((h, graph.pairing[h])))
            idx = e_pos[pair_]
            tail, head = edge_order[idx]
            direction = 1 if h == tail else -1
            col[idx] = col.get(idx, Fraction(0)) + direction
        d2_cols[b_pos[b_idx]] = {r: v for r, v in col.items() if v}

    # level 0: [d1(lift of image basis) | point class] against C0; the
    # edges lifting the image basis are reused at level 1
    elim = Eliminator()
    lift_cols = []
    lift1_cols_in_c1 = []
    for c, col in enumerate(d1_cols):
        if col and elim.add(col):
            lift_cols.append(col)
            lift1_cols_in_c1.append({c: Fraction(1)})
    level0 = det_sign(lift_cols + [{0: Fraction(1)}]) \
        if len(lift_cols) + 1 == k else 0

    # level 2: [fundamental class | lifts of the image of d2] against C2
    elim2 = Eliminator()
    lift2 = []
    lift2_cols_in_c2 = []
    for c, col in enumerate(d2_cols):
        if col and elim2.add(col):
            lift2.append(col)
            lift2_cols_in_c2.append({c: Fraction(1)})
    fund = {c: Fraction(1) for c in range(l)}
    level2 = det_sign([fund] + lift2_cols_in_c2) \
        if 1 + len(lift2_cols_in_c2) == l else 0

    # level 1: [image of d2 | middle homology reference | kernel-lifts used
    # at level 0] against C1.  The middle reference is computed once per
    # graph in canonical edge coordinates, so it does not depend on the
    # labeling; here it is expressed in the labeled coordinates.
    img2 = lift2
    middle = []
    for vec in _middle_reference(graph):
        col = {}
        for idx_canon, v in vec.items():
            a, b = graph.edges[idx_canon]
            idx = e_pos[(a, b)]
            flip = 1 if edge_order[idx] == (a, b) else -1
            col[idx] = flip * v
        middle.append(col)
    level1 = det_sign(img2 + middle + lift1_cols_in_c1) \
        if len(img2) + len(middle) + len(lift1_cols_in_c1) == e else 0

    if e == 0:
        level1 = 1
    if 0 in (level0, level1, level2):
        raise ValueError("labeling produced a singular orientation frame")
    ref = -1 if e % 2 else 1
    return level0 * level1 * level2 == ref


def _middle_reference(graph: RibbonGraph) -> list[dict]:
    """Reference basis of ker d1 modulo im d2 in canonical edge coordinates.

    Echelon and deterministic; it fixes the middle-homology orientation of
    positive-genus graphs once and for all (per isomorphism class only up
    to the class's own symmetries, which is the pinned part of the
    convention for the genus-zero families).
    """
    if graph._middle_cache is not None:
        return graph._middle_cache
    k = len(graph.vertices)
    e = len(graph.edges)
    if e == 0:
        graph._middle_cache = []
        return []
    e_pos = {pair_: i for i, pair_ in enumerate(graph.edges)}
    d1_cols = []
    for (tail, head) in graph.edges:
        col = {}
        vt, vh = graph.vertex_of(tail), graph.vertex_of(head)
        col[vh] = col.get(vh, Fraction(0)) + 1
        col[vt] = col.get(vt, Fraction(0)) - 1
        d1_cols.append({r: v for r, v in col.items() if v})
    ker1 = kernel_basis(SparseMatrix.from_columns(k, d1_cols))
    elim = Eliminator()
    for cyc in graph.boundaries():
        col = {}
        for h in cyc:
            if h not in graph.pairing:
                continue
            pair_ = tuple(sorted((h, graph.pairing[h])))
            idx = e_pos[pair_]
            direction = 1 if h == pair_[0] else -1
            col[idx] = col.get(idx, Fraction(0)) + direction
        elim.add({r: v for r, v in col.items() if v})
    middle = []
    for vec in ker1:
        if elim.add(dict(vec)):
            middle.append(vec)
    graph._middle_cache = middle
    return middle


def compatible_edge_labeling(graph: RibbonGraph, vertex_order, boundary_order):
    """Some compatible (ordered, oriented) edge labeling for the given L1."""
    cache_key = (tuple(vertex_order), tuple(boundary_order))
    cached = graph._lab_cache.get(cache_key)
    if cached is not None:
        return cached
    base = [tuple(pair_) for pair_ in graph.edges]
    if not base:
        if orientation_compatible(graph, vertex_order, boundary_order, ()):
            graph._lab_cache[cache_key] = ()
            return ()
        raise ValueError("edgeless graph with incompatible labeling")
    for flip_first in (False, True):
        cand = list(base)
        if flip_first:
            cand[0] = (cand[0][1], cand[0][0])
        if orientation_compatible(graph, vertex_order, boundary_order, tuple(cand)):
            graph._lab_cache[cache_key] = tuple(cand)
            return tuple(cand)
    raise ValueError("no compatible edge orientation found")


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------

def sigma_L(graph: RibbonGraph, lab: Labeling) -> tuple[int, ...]:
    """Slot routing of a full labeling as a permutation of positions.

    Source slots: two per edge in edge order (tail then head), then the
    legs of each boundary component in cyclic order from its mark.  Target
    slots: the half-edges of each vertex in cyclic order from its mark.
    ``sigma[p]`` is the target position of source position p.
    """
    source: list[int] = []
    for tail, head in lab.edge_order:
        source.append(tail)
        source.append(head)
    blegs = graph.boundary_legs()
    for pos, b in enumerate(lab.boundary_order):
        legs = blegs[b]
        mark = lab.boundary_marks[pos]
        source.extend(legs[mark:] + legs[:mark])
    target: list[int] = []
    for pos, v in enumerate(lab.vertex_order):
        cyc = graph.vertices[v]
        mark = cyc.index(lab.vertex_marks[pos])
        target.extend(cyc[mark:] + cyc[:mark])
    t_pos = {h: i for i, h in enumerate(target)}
    return tuple(t_pos[h] for h in source)


def graph_pairing(s: CyclicStructure, graph: RibbonGraph,
                  propagator: dict[tuple[int, int], Fraction],
                  psis: list, words: list[Word]) -> Fraction:
    """The propagator graph pairing of cochains and words.

    ``psis`` are arity-1 cochain-like objects (anything with
    ``eval_word``); ``words`` are plain letter tuples fed to the boundary
    components.  Sums over all vertex orders, boundary orders and boundary
    marks with a compatible edge labeling in each summand.
    """
    k = len(graph.vertices)
    l = len(graph.boundaries())
    if len(psis) != k or len(words) != l:
        return Fraction(0)
    deg = s.basis.degrees
    blegs = graph.boundary_legs()
    vals = graph.valencies()
    total = Fraction(0)
    prop_items = list(propagator.items())
    e = len(graph.edges)

    for vertex_order in permutations(range(k)):
        for boundary_order in permutations(range(l)):
            if any(len(blegs[b]) != len(words[pos])
                   for pos, b in enumerate(boundary_order)):
                continue
            edge_order = compatible_edge_labeling(graph, vertex_order,
                                                  boundary_order)
            vertex_marks = tuple(graph.vertices[v][0] for v in vertex_order)
            mark_ranges = [range(max(len(blegs[b]), 1))
                           for b in boundary_order]
            for marks in iproduct(*mark_ranges):
                lab = Labeling(vertex_order, boundary_order, edge_order,
                               vertex_marks, marks)
                sigma = sigma_L(graph, lab)
                # assignments of propagator entries to edges
                for combo in iproduct(prop_items, repeat=e):
                    letters: list[int] = []
                    coeff = Fraction(1)
                    for (pair_idx, pval) in combo:
                        letters.extend(pair_idx)
                        coeff *= pval
                    for pos, b in enumerate(boundary_order):
                        letters.extend(words[pos])
                    if not coeff:
                        continue
                    degs = [deg[x] for x in letters]
                    sign = koszul_sign(sigma, degs)
                    routed = [0] * len(letters)
                    for p, x in enumerate(letters):
                        routed[sigma[p]] = x
                    term = coeff * sign
                    off = 0
                    for pos, v in enumerate(lab.vertex_order):
                        block = tuple(routed[off:off + vals[v]])
                        off += vals[v]
                        term *= psis[pos].eval_word(block)
                        if not term:
                            break
                    total += term
    return total


def f_klg(s: CyclicStructure, propagator: dict, psis: list,
          k: int, l: int, g: int, words: list[Word],
          graphs=None) -> Fraction:
    """Value of the graph-sum map on given cochains and words:

        1/l! * sum over reduced classes of 1/|Aut| * graph pairing.
    """
    legs = sum(len(w) for w in words)
    if graphs is None:
        graphs = enumerate_graphs(k, l, g, legs)
    total = Fraction(0)
    for graph, aut in graphs:
        total += graph_pairing(s, graph, propagator, psis, words) / aut
    return total / math.factorial(l)


def f_klg_tensor(s: CyclicStructure, propagator: dict, psis: list,
                 k: int, l: int, g: int, weight_bound: int,
                 slot_shift: int | None = None) -> CochainTensor:
    """Materialize the graph-sum map as an arity-l tensor up to a weight bound.

    The graph route produces output values directly in the distributed
    normalization used by the stored tensors, so values are stored as is.
    """
    from itertools import product as iprod

    shift = s.slot_shift if slot_shift is None else slot_shift
    out = CochainTensor(s.basis, l, shift)
    e = k + l + 2 * g - 2
    totals = set()
    for combo in iprod(*[psi.weights() for psi in psis]):
        t = sum(combo) - 2 * e
        if l <= t <= weight_bound:
            totals.add(t)
    seen = set()
    for total in sorted(totals):
        graphs = enumerate_graphs(k, l, g, total)
        for words in _tuples_of_total(s, total, l):
            keyed = canonical_key(words, s.basis, shift)
            if keyed is None or keyed[0] in seen:
                continue
            seen.add(keyed[0])
            val = f_klg(s, propagator, psis, k, l, g, list(keyed[0]),
                        graphs=graphs)
            if val:
                out.add(keyed[0], val)
    return out


# ---------------------------------------------------------------------------
# pushforward twist element
# ---------------------------------------------------------------------------

class _MuPlusCochain:
    """The weight-three cochain P(m2(x, y), z) evaluated on letter triples."""

    __slots__ = ("s",)

    def __init__(self, s: CyclicStructure):
        self.s = s

    def eval_word(self, letters) -> Fraction:
        if len(letters) != 3:
            return Fraction(0)
        return self.s.mu_plus(2, tuple(letters))

    def weights(self):
        return [3]


def pushforward_mc(s: CyclicStructure, harmonic: CyclicStructure,
                   kernel: dict[tuple[int, int], Fraction],
                   weight_bound: int, genus_bound: int = 0,
                   l_bound: int = 2, check_symmetry: bool = True):
    """The transferred twist element over the harmonic structure.

    ``s`` is the ambient structure carrying the product; ``harmonic`` the
    structure on the fixed-point letters (its letters must be a subset of
    the ambient basis, matched by label).  ``kernel`` is the homotopy
    operator's kernel tensor used as the propagator on internal edges; it
    must satisfy the twist symmetry.  The (l, g) entry evaluated on words
    of total weight n_legs sums over trivalent reduced classes with
    k = n_legs + 2 l + 4 g - 4 vertices and carries the prefactor
    (-1)^(k (m-2)) / (l! |Aut|).
    """
    from .dibl import MaurerCartanFamily, distribution_sign
    from .signs import GradedBasis
    from .words import canonical_words

    if check_symmetry:
        degs = {s.basis.degrees[i] + s.basis.degrees[j] for (i, j) in kernel}
        if kernel:
            if len(degs) != 1:
                raise ValueError("kernel must be degree homogeneous")
            kdeg = degs.pop()
            for (i, j), v in kernel.items():
                tw = -1 if (s.basis.degrees[i] * s.basis.degrees[j]) % 2 else 1
                sgn = -1 if kdeg % 2 else 1
                if kernel.get((j, i), Fraction(0)) != sgn * tw * v:
                    raise ValueError("kernel fails the propagator symmetry")

    amb_index = {lab: i for i, lab in enumerate(s.basis.labels)}
    lift = [amb_index[lab] for lab in harmonic.basis.labels]
    m2p = _MuPlusCochain(s)
    entries = {}
    for l in range(1, l_bound + 1):
        for g in range(0, genus_bound + 1):
            ten = CochainTensor(harmonic.basis, l, harmonic.slot_shift,
                                weight_bound)
            for total in range(l, weight_bound + 1):
                k = total + 2 * l + 4 * g - 4
                if k < 1:
                    continue
                if not kernel and k + l + 2 * g - 2 >= 1:
                    # every internal edge carries a zero propagator factor
                    continue
                try:
                    graphs = enumerate_graphs(k, l, g, total, trivalent=True)
                except ValueError:
                    # enumeration budget: truncate this entry honestly
                    ten.weight_bound = total - 1
                    break
                if not graphs:
                    continue
                sgn = Fraction(-1) ** (k * (s.manifold_dim - 2))
                seen = set()
                for words in _tuples_of_total(harmonic, total, l):
                    keyed = canonical_key(words, harmonic.basis,
                                          harmonic.slot_shift)
                    if keyed is None or keyed[0] in seen:
                        continue
                    seen.add(keyed[0])
                    ambient_words = [tuple(lift[x] for x in w)
                                     for w in keyed[0]]
                    val = Fraction(0)
                    for graph, aut in graphs:
                        val += graph_pairing(s, graph, kernel, [m2p] * k,
                                             ambient_words) / aut
                    val = val * sgn / math.factorial(l)
                    if val:
                        dist = distribution_sign(harmonic, keyed[0])
                        ten.add(keyed[0], dist * val)
            if not ten.is_zero() or (l, g) == (1, 0):
                entries[(l, g)] = ten
    return MaurerCartanFamily(harmonic, entries)


def _tuples_of_total(s, total, slots):
    from .words import canonical_words

    if slots == 1:
        if total >= 1:
            for u in canonical_words(s.basis, total):
                yield (u,)
        return
    for first in range(1, total - slots + 2):
        for u in canonical_words(s.basis, first):
            for rest in _tuples_of_total(s, total - first, slots - 1):
                yield (u,) + rest
