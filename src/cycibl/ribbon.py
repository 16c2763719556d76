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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iproduct

from .algebra import CyclicStructure
from .linalg import Eliminator, SparseMatrix, det_sign, kernel_basis
from .signs import koszul_sign
from .words import CochainTensor, Word, canonical_tuples


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

    def is_connected(self) -> bool:
        return _one_component(len(self.vertices), self._vert, self.edges)

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
        owner = [i for i, v in enumerate(vals) for _ in range(v)]

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

        # Two matchings of this layout give isomorphic graphs exactly when a
        # layout symmetry carries one to the other.  So the images of each
        # connected matching built are marked known, and only the first
        # matching of each class in generation order, its representative,
        # is built and encoded.
        known = set()
        for match in matchings(halves, e):
            if _matching_key(match, n) in known:
                continue
            if not _one_component(k, owner, match):
                continue
            graph = RibbonGraph(blocks, match)
            known.update(_block_images(blocks, match))
            if graph.counts() != (k, l, g):
                continue
            sig, aut = graph._canonical()
            seen_signatures[sig] = (graph, aut)

    out = list(seen_signatures.values())
    if reduced:
        out = [(gr, aut) for gr, aut in out if not _is_degenerate(gr, k, l, g)]
    out.sort(key=lambda pair_: pair_[0]._canonical()[0])
    _ENUM_CACHE[cache_key] = out
    return out


def _one_component(k: int, owner, edges) -> bool:
    """Whether k vertices joined by the edges (half-edge pairs, ``owner[h]``
    the vertex of h) form one component."""
    if k == 0:
        return False
    root = list(range(k))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    parts = k
    for a, b in edges:
        ra, rb = find(owner[a]), find(owner[b])
        if ra != rb:
            root[ra] = rb
            parts -= 1
    return parts == 1


def _matching_key(pairs, n: int) -> int:
    """The set of half-edge pairs as a bitmask over the n * n ordered pairs."""
    return sum(1 << (a * n + b if a < b else b * n + a) for a, b in pairs)


def _block_images(blocks: list[tuple[int, ...]], match):
    """Keys of the matching under every layout symmetry: the relabelings of
    the consecutive half-edge blocks that permute blocks of equal size and
    rotate each block."""
    k = len(blocks)
    n = sum(len(b) for b in blocks)
    where = {h: (i, p) for i, b in enumerate(blocks) for p, h in enumerate(b)}
    sizes = [len(b) for b in blocks]
    for perm in permutations(range(k)):
        if any(sizes[perm[i]] != sizes[i] for i in range(k)):
            continue
        for rots in iproduct(*(range(size) for size in sizes)):
            def image(h):
                i, p = where[h]
                return blocks[perm[i]][(p + rots[i]) % sizes[i]]
            yield _matching_key(((image(a), image(b)) for a, b in match), n)


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
            col[idx] = col.get(idx, 0) + (1 if h < partner else -1)
        d2.append({r: v for r, v in col.items() if v})
    middle = []
    if d1:
        elim = Eliminator()
        for col in d2:
            elim.add(col)
        for vec in kernel_basis(SparseMatrix.from_columns(len(graph.vertices), d1)):
            if elim.add(dict(vec)):
                middle.append(vec)
    graph._complex = (d1, d2, middle)
    return graph._complex


def compatible_edge_labeling(graph: RibbonGraph, vertex_order, boundary_order):
    """A compatible (ordered, oriented) edge labeling for the given L1: the
    canonical edges, the first one reversed exactly when the frame times
    the signs of the vertex and boundary orders is -1."""
    edges = list(graph.edges)
    if _orientation_frame(graph) * _perm_sign(vertex_order) * \
            _perm_sign(boundary_order) == -1:
        # an edgeless (one-vertex, one-boundary) graph has frame +1
        edges[0] = edges[0][::-1]
    return tuple(edges)


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

    for vertex_order in permutations(range(k)):
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
                 k: int, l: int, g: int, weight_bound: int) -> CochainTensor:
    """Materialize the graph-sum map as an arity-l tensor up to a weight bound.

    Each canonical key stores the graph sum :func:`f_klg` as is, with no
    ``distribution_sign``: this is the normalization of the one-edge
    operations, so the (2, 1, 0) and (1, 2, 0) maps with the contraction
    tensor as propagator equal ``q210`` and ``q120``.  When every cochain
    is untruncated and supported on weight 3 only, a vertex of another
    valency evaluates to 0, so only the trivalent classes are paired.
    """
    out = CochainTensor(s.basis, l, s.slot_shift)
    e = k + l + 2 * g - 2
    trivalent = all(psi.weights() == [3] and psi.weight_bound is None
                    for psi in psis)
    totals = set()
    for combo in iproduct(*[psi.weights() for psi in psis]):
        t = sum(combo) - 2 * e
        if l <= t <= weight_bound:
            totals.add(t)
    for total in sorted(totals):
        graphs = enumerate_graphs(k, l, g, total, trivalent=trivalent)
        for key, _ in canonical_tuples(s.basis, s.slot_shift, total, l):
            val = f_klg(s, propagator, psis, k, l, g, list(key), graphs=graphs)
            if val:
                out.add(key, val)
    return out


# ---------------------------------------------------------------------------
# pushforward twist element
# ---------------------------------------------------------------------------

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
    of total weight n_legs is the trivalent graph sum :func:`f_klg` with
    the canonical twist entry ``canonical_mc(s).entry(1, 0)``, the values
    (-1)^(m-2) m2+, at each of its k = n_legs + 2 l + 4 g - 4 vertices,
    so it carries the prefactor (-1)^(k (m-2)) / (l! |Aut|).  A structure
    without a product gives the zero family.  Unlike :func:`f_klg_tensor`,
    each key stores that value times its ``distribution_sign``, the
    normalization of the stored twist entries.
    """
    from .dibl import MaurerCartanFamily, canonical_mc, distribution_sign

    deg = s.basis.degrees
    kernel_degs = {deg[i] + deg[j] for (i, j), v in kernel.items() if v}
    kdeg = min(kernel_degs, default=None)
    if check_symmetry and kernel_degs:
        from .green import KernelTensor

        if len(kernel_degs) != 1:
            raise ValueError("kernel must be degree homogeneous")
        if not KernelTensor(s.basis, kdeg, kernel).is_symmetric_propagator():
            raise ValueError("kernel fails the propagator symmetry")

    amb_index = {lab: i for i, lab in enumerate(s.basis.labels)}
    lift = [amb_index[lab] for lab in harmonic.basis.labels]
    vertex = (canonical_mc(s).entry(1, 0) if 2 in s.mu
              else CochainTensor(s.basis, 1, s.slot_shift))
    # Degree law: a nonzero term puts a word of degree vdeg on each of the
    # k vertices and a kernel pair of degree kdeg on each of the e edges,
    # so the legs' letters have degree k * vdeg - e * kdeg.  It applies when
    # the vertex words and the kernel are each of one degree.
    vdeg = vertex.degree() if len(kernel_degs) == 1 else None
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
                if not graphs or vertex.is_zero():
                    continue
                leg_degree = None if vdeg is None else \
                    k * vdeg - (3 * k - total) // 2 * kdeg
                for key, _ in canonical_tuples(harmonic.basis,
                                               harmonic.slot_shift, total, l):
                    ambient_words = [tuple(lift[x] for x in w) for w in key]
                    if leg_degree is not None and leg_degree != sum(
                            deg[x] for w in ambient_words for x in w):
                        continue
                    val = f_klg(s, kernel, [vertex] * k, k, l, g,
                                ambient_words, graphs)
                    if val:
                        ten.add(key, distribution_sign(harmonic, key) * val)
            if not ten.is_zero() or (l, g) == (1, 0):
                entries[(l, g)] = ten
    return MaurerCartanFamily(harmonic, entries)
