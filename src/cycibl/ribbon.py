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
(-1)^(number of edges).  Each determinant is alternating in its level's
basis, so compatibility is a parity: the graph's frame (the product over
the canonical labeling, computed once) times the signs of the vertex,
boundary and edge permutations times (-1)^(reversed edges) must be +1.

The graph pairing routes one propagator copy per edge (first slot on the
edge's tail half, second on its head half) and the boundary words to the
vertex slots, sums over all vertex/boundary orders and boundary marks, and
evaluates the cochains on the vertex blocks.  The pushforward twist element
puts the canonical twist entry, (-1)^(m-2) m2+, on every trivalent vertex.
Its genus-0, one-boundary (1, 0) entry is the tree-level transfer
(Merkulov 1999; Kontsevich-Soibelman 2001): an interval recursion over the
boundary word sums the planar trivalent trees, the triangulations of the
polygon, in time polynomial in its length, with no graph enumerated or
paired.  The entries with l >= 2 or g >= 1 are graph sums, truncated below
the enumeration budget.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product as iproduct

from .algebra import CyclicStructure
from .linalg import (Eliminator, SparseMatrix, add_into, det_sign, integral,
                     kernel_basis)
from .signs import koszul_sign
from .words import CochainTensor, Word, canonical_tuples, rotations


class RibbonGraph:
    """Half-edge encoding: vertex cycles plus an involution on a subset."""

    __slots__ = ("vertices", "pairing", "n", "legs", "edges", "_vert", "_pos",
                 "_boundaries", "_canon", "_complex", "_frame")

    def __init__(self, vertices: list[tuple[int, ...]], edge_pairs: list[tuple[int, int]]):
        self.vertices = [tuple(v) for v in vertices]
        self.n = sum(len(v) for v in self.vertices)
        # half-edge -> (vertex, position in its cycle)
        self._vert = [-1] * self.n
        self._pos = [0] * self.n
        for vi, cyc in enumerate(self.vertices):
            for p, h in enumerate(cyc):
                if not 0 <= h < self.n or self._vert[h] != -1:
                    raise ValueError("half-edges must be 0..N-1, each at one vertex")
                self._vert[h] = vi
                self._pos[h] = p
        self.pairing = {}
        for a, b in edge_pairs:
            if a == b:
                raise ValueError("an edge needs two distinct half-edges")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError("edge half-edges must be 0..N-1")
            self.pairing[a] = b
            self.pairing[b] = a
        if len(self.pairing) != 2 * len(edge_pairs):
            raise ValueError("edge pairs overlap")
        self.edges = [tuple(sorted(p)) for p in edge_pairs]
        self.edges.sort()
        self.legs = [h for h in range(self.n) if h not in self.pairing]
        self._boundaries = None
        self._canon = None
        self._complex = None
        self._frame = None

    # -- structure ------------------------------------------------------

    def vertex_of(self, h: int) -> int:
        if not 0 <= h < self.n:
            raise KeyError(h)
        return self._vert[h]

    def successor(self, h: int) -> int:
        v = self.vertices[self._vert[h]]
        return v[(self._pos[h] + 1) % len(v)]

    def boundaries(self) -> list[tuple[int, ...]]:
        """Boundary cycles as tuples of half-edges in walk order."""
        if self._boundaries is None:
            nxt = [self.successor(self.pairing.get(h, h)) for h in range(self.n)]
            seen = [False] * self.n
            out = []  # each cycle starts at its least half-edge: sorted
            for h in range(self.n):
                if seen[h]:
                    continue
                cycle = []
                cur = h
                while not seen[cur]:
                    seen[cur] = True
                    cycle.append(cur)
                    cur = nxt[cur]
                out.append(tuple(cycle))
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

    def valencies(self) -> list[int]:
        return [len(v) for v in self.vertices]

    # -- canonical form and automorphisms --------------------------------
    #
    # A connected ribbon graph is rigid once a starting half-edge is fixed:
    # a breadth-first traversal of the rotation system then labels it
    # deterministically.  Row i of the encoding lists, for the i-th visited
    # vertex read counterclockwise from its entry half-edge, each half-edge
    # as a leg (-1, -1) or as (BFS number of the partner's vertex, offset of
    # the partner from that vertex's entry).  Row i is final once vertex i
    # has been scanned, so each start is compared with the least encoding
    # so far while its traversal runs, and abandoned at its first greater
    # row.  Encodings of different lengths (starts in different components)
    # differ within the shorter one, because the longer one names vertex
    # number len(shorter) in one of those rows.  One pass over all starts
    # gives the canonical signature (the least encoding) and the
    # automorphism order (the number of starts reaching it); the pair is
    # computed once per graph and kept on it.

    def _canonical(self) -> tuple[tuple, int]:
        if self._canon is not None:
            return self._canon
        if self.n == 0:
            self._canon = ((), 1)
            return self._canon
        verts, vert, pos, pairing = self.vertices, self._vert, self._pos, self.pairing
        best, count = None, 0
        for h0 in range(self.n):
            v0 = vert[h0]
            bfs_id = {v0: 0}
            entry = {v0: pos[h0]}
            order = [v0]
            rows = []
            # 0: equal to best so far, -1: already below it, 1: above it
            state = -1 if best is None else 0
            for v in order:  # grows while it is scanned
                cyc = verts[v]
                size = len(cyc)
                start = entry[v]
                row = []
                for t in range(size):
                    partner = pairing.get(cyc[(start + t) % size])
                    if partner is None:
                        row.append((-1, -1))
                        continue
                    pv = vert[partner]
                    if pv not in bfs_id:
                        bfs_id[pv] = len(order)
                        entry[pv] = pos[partner]
                        order.append(pv)
                    row.append((bfs_id[pv],
                                (pos[partner] - entry[pv]) % len(verts[pv])))
                row = tuple(row)
                if state == 0:
                    if row > best[len(rows)]:
                        state = 1
                        break
                    if row < best[len(rows)]:
                        state = -1
                rows.append(row)
            if state == -1:
                best, count = tuple(rows), 1
            elif state == 0:
                count += 1
        self._canon = (best, count)
        return self._canon

    def canonical_signature(self) -> tuple:
        return self._canonical()[0]

    def automorphism_order(self) -> int:
        return self._canonical()[1]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

_ENUM_CACHE: dict = {}


class EnumerationBudgetExceeded(ValueError):
    """A graph type beyond the enumeration budget."""


def enumerate_graphs(k: int, l: int, g: int, legs: int,
                     trivalent: bool = False, reduced: bool = True):
    """Isomorphism classes of connected ribbon graphs of the given type.

    Returns a list of (graph, automorphism order).  The number of internal
    edges is forced: e = k + l + 2g - 2.  With ``trivalent`` every internal
    vertex has valency 3 (so 3k = 2e + legs must hold).  A type without
    internal vertices, or with fewer than k - 1 edges, has no connected
    graph.  ``reduced`` applies the degenerate-class exclusions: for the two
    one-edge families these are the classes with no legs (two-vertex
    family) and with at most one leg (one-vertex two-boundary family); for
    other types, graphs with a legless boundary component are dropped (they
    cannot pair with nonempty words); so with fewer legs than boundaries
    there is no reduced class.  Negative counts are rejected before the
    cache is consulted, so it only ever holds the finitely many types
    within the enumeration budget: at most 4 internal vertices, 24
    half-edges and 100,000 e-edge matchings summed over the half-edge
    layouts walked (one per valency list: a single one when ``trivalent``,
    else one per partition of the half-edges into k valencies).

    Each valency list lays the half-edges out in consecutive vertex blocks,
    and the e-edge matchings of that layout are walked in a fixed order
    (each half-edge in turn stays a leg, or is matched with a later one).
    The walk carries a component label per vertex and cuts an edge inside
    a component when the edges left would then be too few to join the
    components (fewer than components - 1), so every leaf is connected; it
    also carries each matching's key, the bitmask of its half-edge pairs.
    Two matchings of a layout give isomorphic graphs exactly when a layout
    symmetry (a permutation of equal blocks, a rotation of each block)
    carries one to the other.  So the first leaf of each class not yet
    known is its representative: it is built and encoded, and its whole
    orbit is marked known by applying the symmetries to its edge pairs.
    The cut removes only branches without a connected leaf, so the
    representatives, and with them the output, are those of the walk over
    every matching.
    """
    if min(k, l, g, legs) < 0:
        raise ValueError("k, l, g and legs must be nonnegative")
    cache_key = (k, l, g, legs, trivalent, reduced)
    if cache_key in _ENUM_CACHE:
        return _ENUM_CACHE[cache_key]
    e = k + l + 2 * g - 2
    if k == 0 or e < k - 1:
        return []
    n = 2 * e + legs

    # distribute valencies over vertices (nondecreasing partitions)
    def partitions(total, parts, minimum=1):
        if parts == 1:
            if total >= minimum:
                yield (total,)
            return
        for first in range(minimum, total - (parts - 1) + 1):
            for rest in partitions(total - first, parts - 1, first):
                yield (first,) + rest

    # the e-edge matchings of every half-edge layout walked, C(n, 2e)
    # (2e - 1)!! each, bound the walk; a trivalent type within 4 vertices
    # has at most 62,370 of them
    matchings = None
    if k <= 4 and n <= 24:
        layouts = [(3,) * k] if trivalent else list(partitions(n, k))
        matchings = len(layouts) * math.comb(n, 2 * e) * \
            math.prod(range(2 * e - 1, 0, -2))
    if matchings is None or matchings > 100_000:
        walk = "" if matchings is None else \
            f", {matchings} matchings over {len(layouts)} half-edge layouts"
        raise EnumerationBudgetExceeded(
            f"enumeration budget exceeded: {k} vertices, {n} half-edges{walk} "
            f"(at most 4 vertices, 24 half-edges and 100000 matchings)")
    if (trivalent and 3 * k != n) or (reduced and legs < l):
        return []

    bit = [[1 << (min(a, b) * n + max(a, b)) for b in range(n)] for a in range(n)]
    seen_signatures = {}
    for vals in layouts:
        # half-edge layout: vertex i owns the block from starts[i]
        starts = [sum(vals[:i]) for i in range(k)]
        blocks = [tuple(range(a, a + v)) for a, v in zip(starts, vals)]
        owner = [i for i, v in enumerate(vals) for _ in range(v)]
        symmetries = [perm for perm in permutations(range(k))
                      if all(vals[perm[i]] == vals[i] for i in range(k))]
        rotations = list(iproduct(*(range(v) for v in vals)))
        known = set()
        pairs = []

        def mark_orbit():
            # per block permutation, one column of bits per edge over all
            # block rotations; a rotated matching's key is a row sum
            for perm in symmetries:
                columns = []
                for a, b in pairs:
                    i, j = owner[a], owner[b]
                    pa, pb, si, sj = a - starts[i], b - starts[j], vals[i], vals[j]
                    ta, tb = starts[perm[i]], starts[perm[j]]
                    columns.append([bit[ta + (pa + r[i]) % si][tb + (pb + r[j]) % sj]
                                    for r in rotations])
                known.update(map(sum, zip(*columns)))

        def leaf(mask):
            if mask in known:
                return
            graph = RibbonGraph(blocks, pairs)
            mark_orbit()
            if graph.counts() == (k, l, g):
                sig, aut = graph._canonical()
                seen_signatures[sig] = (graph, aut)

        def walk(avail, count, mask, comp, parts):
            # comp[i] labels (one character) the component of vertex i;
            # the edges left can always join the components: count >= parts - 1
            if len(avail) < 2 * count:
                return
            if count == 0:
                return leaf(mask)
            first, rest0 = avail[0], avail[1:]
            walk(rest0, count, mask, comp, parts)  # first stays a leg
            row, ca = bit[first], comp[owner[first]]
            for idx, x in enumerate(rest0):
                cb = comp[owner[x]]
                if ca == cb and count < parts:
                    continue  # an edge inside a component, none to spare
                pairs.append((first, x))
                if count == 1:
                    leaf(mask | row[x])
                else:
                    walk(rest0[:idx] + rest0[idx + 1:], count - 1, mask | row[x],
                         comp.replace(cb, ca), parts - (ca != cb))
                pairs.pop()

        walk(tuple(range(n)), e, 0, "0123"[:k], k)
        del walk  # a self-reference: freed now, not by the cycle collector

    out = list(seen_signatures.values())
    if reduced:
        out = [(gr, aut) for gr, aut in out if not _is_degenerate(gr, k, l, g)]
    out.sort(key=lambda pair_: pair_[0]._canonical()[0])
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

class Labeling:
    """Vertex order, boundary order, oriented ordered edges, first marks.

    ``edge_order`` lists edges as ordered half-edge pairs (tail, head);
    ``vertex_marks[i]`` is the starting half-edge of vertex ``vertex_order[i]``
    and ``boundary_marks[i]`` the starting leg position on boundary
    ``boundary_order[i]``.
    """

    def __init__(self, vertex_order: tuple[int, ...],
                 boundary_order: tuple[int, ...],
                 edge_order: tuple[tuple[int, int], ...],
                 vertex_marks: tuple[int, ...], boundary_marks: tuple[int, ...]):
        self.vertex_order = vertex_order
        self.boundary_order = boundary_order
        self.edge_order = edge_order
        self.vertex_marks = vertex_marks
        self.boundary_marks = boundary_marks


def orientation_compatible(graph: RibbonGraph, vertex_order, boundary_order,
                           edge_order) -> bool:
    """Whether the labeling orients the surface complex compatibly:
    det(level 0) * det(level 1) * det(level 2) = (-1)^e over its bases.

    That is a parity against the graph's frame (:func:`_orientation_frame`,
    the value for the canonical labeling).  Each level's determinant is
    alternating in that level's basis, so reordering the vertices, the
    boundaries or the edges multiplies it by the sign of the permutation,
    and reversing an edge negates one basis vector of C1.  The references
    do not move: every vertex is homologous to the point class, the
    fundamental class sums all 2-cells in any order, and the middle
    reference is a fixed set of vectors of C1.
    """
    position = {pair_: c for c, pair_ in enumerate(graph.edges)}
    canon_of = [position[(min(t, h), max(t, h))] for t, h in edge_order]
    reversed_edges = sum(t > h for t, h in edge_order)
    sign = (_orientation_frame(graph) * _perm_sign(vertex_order)
            * _perm_sign(boundary_order) * _perm_sign(canon_of))
    return sign * (-1) ** reversed_edges == 1


def _perm_sign(perm) -> int:
    return koszul_sign(tuple(perm), [1] * len(perm))


def _orientation_frame(graph: RibbonGraph) -> int:
    """(-1)^e * det(level 0) * det(level 1) * det(level 2) for the
    canonical labeling (vertices and boundaries in index order, the edges
    of ``graph.edges`` from tail to head), computed once and kept on the
    graph.  Level 0 is [d1(lifts of an image basis) | point class] against
    C0, level 2 [fundamental class | lifts of the image of d2] against C2,
    level 1 [image of d2 | middle reference | level-0 lifts] against C1.
    """
    if graph._frame is not None:
        return graph._frame
    d1, d2, middle = _surface_complex(graph)
    k, e, l = len(graph.vertices), len(d1), len(d2)
    elim = Eliminator()
    lifts1 = [c for c, col in enumerate(d1) if col and elim.add(col)]
    level0 = det_sign([d1[c] for c in lifts1] + [{0: 1}]) \
        if len(lifts1) + 1 == k else 0
    elim = Eliminator()
    lifts2 = [b for b, col in enumerate(d2) if col and elim.add(col)]
    level2 = det_sign([dict.fromkeys(range(l), 1)] + [{b: 1} for b in lifts2]) \
        if 1 + len(lifts2) == l else 0
    columns = [d2[b] for b in lifts2] + middle + [{c: 1} for c in lifts1]
    level1 = det_sign(columns) if len(columns) == e else 0
    if 0 in (level0, level1, level2):
        raise ValueError("graph has a singular orientation frame")
    graph._frame = (-1) ** e * level0 * level1 * level2
    return graph._frame


def _surface_complex(graph: RibbonGraph):
    """The cellular complex of the thickened surface, ``(d1, d2, middle)``,
    in canonical edge coordinates: edge c is ``graph.edges[c]`` oriented
    from its lesser half-edge (tail) to the greater (head).

    d1 sends an edge to head - tail (vertex rows); d2 sends a boundary
    cycle, in ``graph.boundaries()`` order, to its internal half-edges,
    each traversed away from its vertex (+1 on a tail, -1 on a head).
    ``middle`` is the reference basis of ker d1 modulo im d2: echelon and
    deterministic, it fixes the middle-homology orientation of
    positive-genus graphs once and for all (per isomorphism class only up
    to the class's own symmetries, which is the pinned part of the
    convention for the genus-zero families).  Built once per graph and
    kept on it.
    """
    if graph._complex is not None:
        return graph._complex
    canon = {pair_: c for c, pair_ in enumerate(graph.edges)}
    d1 = []
    for tail, head in graph.edges:
        vt, vh = graph.vertex_of(tail), graph.vertex_of(head)
        d1.append({} if vt == vh else {vh: 1, vt: -1})
    d2 = []
    for cyc in graph.boundaries():
        col = {}
        for h in cyc:
            partner = graph.pairing.get(h)
            if partner is None:
                continue
            idx = canon[(min(h, partner), max(h, partner))]
            add_into(col, idx, 1 if h < partner else -1)
        d2.append(col)
    middle = []
    if d1:
        elim = Eliminator()
        for col in d2:
            elim.add(col)
        for vec in kernel_basis(SparseMatrix.from_columns(len(graph.vertices), d1)):
            if elim.add(vec):
                middle.append(vec)
    graph._complex = (d1, d2, middle)
    return graph._complex


def compatible_edge_labeling(graph: RibbonGraph, vertex_order, boundary_order):
    """A compatible (ordered, oriented) edge labeling for the given L1: the
    canonical edges, the first one reversed exactly when
    :func:`orientation_compatible` rejects them."""
    edges = tuple(graph.edges)
    if orientation_compatible(graph, vertex_order, boundary_order, edges):
        return edges
    # an edgeless (one-vertex, one-boundary) graph has frame +1, so it
    # never gets here
    return (edges[0][::-1],) + edges[1:]


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

    Vertex orders: the order pi puts ``psis[i]`` on vertex pi(i).  For
    homogeneous cochains and a homogeneous twist-symmetric propagator of
    degree |P|, its term is sign(pi)^|P| times the Koszul sign of pi in the
    cochain degrees times the identity-order term with the cochains so
    placed: relabeling the vertices composes the routing with a block
    permutation, a block is nonzero only at its cochain's degree, and the
    compatible edge labeling flips edge 0 exactly when pi is odd, which
    twist symmetry turns into (-1)^|P|.  With one cochain psi at every
    vertex the k! orders thus sum to k! times the identity term when
    deg psi + |P| is even, and to 0 when it is odd and k >= 2.

    So the sum runs once per vertex arrangement, a placement of the
    cochains on the vertices.  Entries of ``psis`` that are one object form
    a group; the m_g! orders that only permute its copies give one
    arrangement, their terms differing by sign^(deg psi_g + |P|) (moving
    blocks of one degree past the others costs an even sign).  An
    arrangement is evaluated under its order that keeps each group's
    vertices increasing, weighted by the product of the m_g!; a group of
    m_g >= 2 with odd deg psi_g + |P| makes the sum 0, with no vertex
    evaluated.  Grouping applies only to a degree-homogeneous
    twist-symmetric propagator and to cochains whose ``degree()`` is not
    None; otherwise every order is its own arrangement.

    The sum is evaluated as a contraction, each piece computed once:
    - the vertex-block spans, per vertex order;
    - the compatible edge labeling and the slot routing ``sigma_L`` at
      marks zero, per (vertex order, boundary order); a boundary mark m
      only rotates that boundary's part of the routing by m;
    - the boundary letters routed to the vertex slots, per mark choice.
    The propagator entries are then assigned vertex block by vertex block
    in order, each edge at the first block it reaches.  A block is
    evaluated as soon as its edges carry letters, and a zero value prunes
    every assignment of the later edges; only a nonzero product of all
    block and propagator values pays for the Koszul sign of the routing.
    """
    k = len(graph.vertices)
    l = len(graph.boundaries())
    if len(psis) != k or len(words) != l:
        return Fraction(0)
    deg = s.basis.degrees
    blegs = graph.boundary_legs()
    vals = graph.valencies()
    e = len(graph.edges)
    items = [(pair_, pval) for pair_, pval in propagator.items() if pval]
    word_letters = [x for w in words for x in w]
    n_slots = 2 * e + len(word_letters)
    total = Fraction(0)

    # chain[i]: the previous entry of psis[i]'s group, on a lesser vertex
    chain = [None] * k
    multiplicity = 1
    if len({id(psi) for psi in psis}) < k:
        from .green import KernelTensor
        pdegs = {deg[a] + deg[b] for (a, b), _ in items}
        pdeg = min(pdegs, default=0)
        if len(pdegs) <= 1 and \
                KernelTensor(s.basis, pdeg, propagator).is_symmetric_propagator():
            for i in range(k):
                same = [j for j in range(i) if psis[j] is psis[i]]
                degree = getattr(psis[i], "degree", None)
                d = degree() if same and degree else None
                if d is None:
                    continue
                if (d + pdeg) % 2:
                    return Fraction(0)
                chain[i] = same[-1]
                multiplicity *= len(same) + 1

    for vertex_order in permutations(range(k)):
        if any(j is not None and vertex_order[j] > vertex_order[i]
               for i, j in enumerate(chain)):
            continue
        vertex_marks = tuple(graph.vertices[v][0] for v in vertex_order)
        spans = []
        block_at = []
        for pos, v in enumerate(vertex_order):
            spans.append((len(block_at), len(block_at) + vals[v]))
            block_at.extend([pos] * vals[v])
        for boundary_order in permutations(range(l)):
            if any(len(blegs[b]) != len(words[pos])
                   for pos, b in enumerate(boundary_order)):
                continue
            edge_order = compatible_edge_labeling(graph, vertex_order,
                                                  boundary_order)
            sigma0 = sigma_L(graph, Labeling(vertex_order, boundary_order,
                                             edge_order, vertex_marks, (0,) * l))
            # each edge is assigned at the first vertex block it reaches
            fresh = [[] for _ in range(k)]
            for j in range(e):
                t0, t1 = sigma0[2 * j], sigma0[2 * j + 1]
                fresh[min(block_at[t0], block_at[t1])].append((t0, t1))
            word_slots = []
            off = 2 * e
            for w in words:
                word_slots.append(sigma0[off:off + len(w)])
                off += len(w)
            for marks in iproduct(*[range(max(len(w), 1)) for w in words]):
                sigma = sigma0[:2 * e]
                for m, slots in zip(marks, word_slots):
                    sigma += slots[m:] + slots[:m]
                routed = [0] * n_slots
                for p, x in enumerate(word_letters, 2 * e):
                    routed[sigma[p]] = x

                def descend(pos, coeff):
                    """Sum over the entries on the edges first reached at
                    blocks pos, pos + 1, ..., times coeff."""
                    if pos == k:
                        degs = [deg[routed[t]] for t in sigma]
                        return coeff * koszul_sign(sigma, degs)
                    lo, hi = spans[pos]
                    acc = 0
                    for combo in iproduct(items, repeat=len(fresh[pos])):
                        for (t0, t1), (pair_, _) in zip(fresh[pos], combo):
                            routed[t0], routed[t1] = pair_
                        value = psis[pos].eval_word(tuple(routed[lo:hi]))
                        if value:
                            for _, pval in combo:
                                value *= pval
                            acc += descend(pos + 1, coeff * value)
                    return acc

                total += descend(0, Fraction(1))
    return multiplicity * total


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


def f_klg_tensor(s: CyclicStructure, legs: CyclicStructure, propagator: dict,
                 psis: list, k: int, l: int, g: int,
                 weight_bound: int) -> CochainTensor:
    """The graph-sum map as an arity-l tensor up to a weight bound, on the
    words of ``legs``: letters of ``s`` matched by label (pass ``s`` for all).

    Each canonical key stores the graph sum :func:`f_klg` as is, with no
    ``distribution_sign``: this is the normalization of the one-edge
    operations, so the (2, 1, 0) and (1, 2, 0) maps with the contraction
    tensor as propagator equal ``q210`` and ``q120``.  When every cochain
    is untruncated and supported on weight 3 only, a vertex of another
    valency evaluates to 0, so only the trivalent classes are paired.
    Degree law: a nonzero term puts a word of degree deg(psi_i) on vertex
    i and a propagator pair on each of the e = k + l + 2g - 2 edges, so
    when all are homogeneous only the leg tuples of degree
    sum deg(psi_i) - e deg(propagator) are paired; with a zero propagator
    and e >= 1 no graph is enumerated.
    """
    out = CochainTensor(legs.basis, l, legs.slot_shift)
    e = k + l + 2 * g - 2
    deg = s.basis.degrees
    prop_degs = {deg[i] + deg[j] for (i, j), v in propagator.items() if v}
    if e >= 1 and not prop_degs:
        return out
    psi_degs = [psi.degree() for psi in psis]
    leg_degree = None
    if None not in psi_degs and len(prop_degs) <= 1:
        leg_degree = sum(psi_degs) - e * min(prop_degs, default=0)
    trivalent = all(psi.weights() == [3] and psi.weight_bound is None
                    for psi in psis)
    totals = {sum(combo) - 2 * e
              for combo in iproduct(*[psi.weights() for psi in psis])}
    for total in sorted(t for t in totals if l <= t <= weight_bound):
        graphs = enumerate_graphs(k, l, g, total, trivalent=trivalent)
        if not graphs:
            continue
        for key, words in _lawful_keys(s, legs, total, l, leg_degree):
            val = f_klg(s, propagator, psis, k, l, g, words, graphs=graphs)
            if val:
                out.add(key, val)
    return out


def _lawful_keys(s: CyclicStructure, legs: CyclicStructure, total: int, l: int,
                leg_degree: int | None):
    """The canonical keys of l words of ``legs`` of the given total weight,
    in :func:`canonical_tuples` order, each with its words lifted to the
    letters of ``s`` (matched by label), that the degree law admits: the
    keys of degree ``leg_degree``, all of them when it is None."""
    deg = s.basis.degrees
    lift = [s.basis.labels.index(lab) for lab in legs.basis.labels]
    for key in canonical_tuples(legs.basis, legs.slot_shift, total, l):
        words = [tuple(lift[x] for x in w) for w in key]
        if leg_degree is None or \
                leg_degree == sum(deg[x] for w in words for x in w):
            yield key, words


# ---------------------------------------------------------------------------
# the (1, 0) entry by the tree recursion
# ---------------------------------------------------------------------------

# The weight of the largest trees within the enumeration budget (four
# vertices), where the graph sum checks the recursion.
TREE_WEIGHT = 6


def tree_entry(s: CyclicStructure, harmonic: CyclicStructure,
               kernel: dict[tuple[int, int], Fraction], vertex: CochainTensor,
               weight_bound: int) -> CochainTensor:
    """The (1, 0) entry of :func:`pushforward_mc`: the genus-0, one-boundary
    graph sum with the weight-3 cochain ``vertex`` at every vertex, by the
    recursion over planar trees, with no graph enumerated.  The recursion
    needs ``vertex`` homogeneous, as the canonical entry of a structure
    with its degree axioms is: another one is a ``ValueError``.  The zero
    ``vertex`` (no product) gives the zero entry, known to
    ``weight_bound``.

    The classes of that type are the trivalent trees.  Summed over the
    boundary marks with weight 1/|Aut|, they become the trees whose n legs
    carry the word's letters in boundary order: the triangulations of the
    n-gon, Catalan(n - 2) of them.  A tree's pairing is the same under
    every compatible labeling.  This one roots the tree at the vertex of
    the last letter x, orders the vertices in preorder, gives each edge the
    place of its lower vertex and runs it from its upper vertex (tail) to
    its lower one (head).  It is compatible: against those vertices the
    columns [d1 edges | point class at the root] are unitriangular once the
    root column comes first.  By :func:`graph_pairing`, the k! vertex orders
    give k! times this one when |psi| + |P| is even, and cancel when it is
    odd and k >= 2.

    A branch on the legs w has len(w) - 1 vertices and as many edges, the
    one above it included.  It is a vector over the letter a on the tail of
    that top edge: B(y) = e_y for one leg y, and, over the splits w = w1 w2
    with e_i = len(w_i) - 1,

        B(w)_a = sum P(a, b) psi(b o1 o2) B(w1)_o1 B(w2)_o2
                 (-1)^(|w1| e2 |P| + e1 |psi| |o2|).

    The sign moves the letters of w1 past the edges of w2, then the vertex
    blocks of w1 past o2.  The word w' x takes the same sum over the splits
    of w', read at b = x, times (-1)^(|x| (1 + k |psi|)): the cyclic
    symmetry of psi moves x from the front of the root's block to its end,
    and x comes from the end of the word past the k - 1 lower vertex
    blocks.  The sums are kept per subword for one call, as ints: the
    vertex values and the kernel each over their least common denominator,
    so B(w) is over the (len(w) - 1)-th power of the product, and each
    stored value is one ``Fraction``.  The keys are those of
    :func:`f_klg_tensor`: ascending total weight, :func:`canonical_tuples`
    order, the same degree law (:func:`_lawful_keys`).

    Beyond four vertices the graph sum exceeds the enumeration budget, so
    with a nonzero kernel the entry is kept to weight ``TREE_WEIGHT``, the
    largest at which the graph sum checks it.  With the zero kernel every
    tree with an edge vanishes, and the entry is known to ``weight_bound``.
    """
    if vertex.is_zero():
        return CochainTensor(harmonic.basis, 1, harmonic.slot_shift,
                             weight_bound)
    vdeg = vertex.degree()
    if vdeg is None:
        raise ValueError("the vertex cochain is not homogeneous")
    deg = s.basis.degrees
    d_psi, stored = integral({w: c for (w,), c in vertex.items()})
    # psi(b o1 o2) by (o1, o2), as eval_word reads it: the distinct
    # rotations of each stored word, signed
    by_pair: dict[tuple[int, int], list] = {}
    for u, c in stored.items():
        for (b, o1, o2), sign in dict(rotations(u, s.basis)).items():
            by_pair.setdefault((o1, o2), []).append((b, sign * c))
    d_p, P = integral(kernel)
    by_head: dict[int, list] = {}
    for (a, b), c in P.items():
        by_head.setdefault(b, []).append((a, c))
    pdeg = next((deg[a] + deg[b] for a, b in P), 0)
    out = CochainTensor(harmonic.basis, 1, harmonic.slot_shift,
                        min(weight_bound, TREE_WEIGHT) if P else weight_bound)
    top_weight = out.weight_bound if P and (vdeg + pdeg) % 2 == 0 else 3
    memo: dict[Word, tuple[dict[int, int], dict[int, int]]] = {}

    def top(w: Word) -> tuple[dict[int, int], dict[int, int]]:
        # the sum at the top vertex by its entry letter b, and B(w)
        if (hit := memo.get(w)) is None:
            heads: dict[int, int] = {}
            for m in range(1, len(w)):
                v1, v2 = branch(w[:m]), branch(w[m:])
                e1, e2 = m - 1, len(w) - m - 1
                odd = sum(deg[y] for y in w[:m]) * e2 * pdeg
                for o2, c2 in v2.items():
                    sign = -1 if (odd + e1 * vdeg * deg[o2]) & 1 else 1
                    for o1, c1 in v1.items():
                        for b, c in by_pair.get((o1, o2), ()):
                            add_into(heads, b, sign * c * c1 * c2)
            tails: dict[int, int] = {}
            for b, c in heads.items():
                for a, p in by_head.get(b, ()):
                    add_into(tails, a, p * c)
            hit = memo[w] = heads, tails
        return hit

    def branch(w: Word) -> dict[int, int]:
        return {w[0]: 1} if len(w) == 1 else top(w)[1]

    for total in range(3, top_weight + 1):
        k = total - 2
        den = d_psi ** k * d_p ** (k - 1)
        for key, (w,) in _lawful_keys(s, harmonic, total, 1,
                                     k * vdeg - (k - 1) * pdeg):
            x = w[-1]
            if c := top(w[:-1])[0].get(x):
                sign = -1 if deg[x] * (1 + k * vdeg) & 1 else 1
                out.values[key] = Fraction(sign * math.factorial(k) * c, den)
    return out


# ---------------------------------------------------------------------------
# pushforward twist element
# ---------------------------------------------------------------------------

def pushforward_mc(s: CyclicStructure, harmonic: CyclicStructure,
                   kernel: dict[tuple[int, int], Fraction],
                   weight_bound: int, genus_bound: int = 0, l_bound: int = 2):
    """The transferred twist element over the harmonic structure.

    ``s`` is the ambient structure carrying the product; ``harmonic`` the
    structure on the fixed-point letters (its letters must be a subset of
    the ambient basis, matched by label).  ``kernel`` is the homotopy
    operator's kernel tensor, the propagator on internal edges (checked by
    :func:`green.check_propagator`).  The (l, g) entry on words of total
    weight n_legs is :func:`f_klg_tensor` with the canonical twist entry
    ``canonical_mc(s).entry(1, 0)``, the values (-1)^(m-2) m2+, at each of
    its k = n_legs + 2 l + 4 g - 4 vertices, so it carries the prefactor
    (-1)^(k (m-2)) / (l! |Aut|); each key stores that value times its
    ``distribution_sign``.  The (1, 0) entry, whose distribution signs are
    all +1, is that sum by the recursion over planar trees
    (:func:`tree_entry`), with no graph enumerated; with a nonzero kernel
    it is kept to weight 6, where the graph sum checks it.  An entry with
    l >= 2 or g >= 1 beyond the enumeration budget is truncated below it.
    A structure without a product gives the zero family.
    """
    from .dibl import MaurerCartanFamily, canonical_mc, distribution_sign
    from .green import check_propagator

    check_propagator(s.basis, kernel)
    vertex = (canonical_mc(s).entry(1, 0) if 2 in s.mu
              else CochainTensor(s.basis, 1, s.slot_shift))
    entries = {}
    for l in range(1, l_bound + 1):
        for g in range(0, genus_bound + 1):
            if (l, g) == (1, 0):
                entries[(1, 0)] = tree_entry(s, harmonic, kernel, vertex,
                                             weight_bound)
                continue
            ten = CochainTensor(harmonic.basis, l, harmonic.slot_shift,
                                weight_bound)
            # k = total + 2 l + 4 g - 4 vertices, at least two when l >= 2
            # or g >= 1
            for total in range(l, weight_bound + 1):
                k = total + 2 * l + 4 * g - 4
                try:
                    part = f_klg_tensor(s, harmonic, kernel, [vertex] * k,
                                        k, l, g, total)
                except EnumerationBudgetExceeded:
                    ten.weight_bound = total - 1
                    break
                for key, val in part.items():
                    ten.add(key, distribution_sign(harmonic, key) * val)
            if not ten.is_zero():
                entries[(l, g)] = ten
    return MaurerCartanFamily(harmonic, entries)
