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
from .signs import ZERO, koszul_sign
from .words import CochainTensor, Word, canonical_tuples


class RibbonGraph:
    """Half-edge encoding: vertex cycles plus an involution on a subset."""

    __slots__ = ("vertices", "pairing", "n", "legs", "edges", "_vert", "_pos",
                 "_boundaries", "_canon", "_lab_cache", "_complex")

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
        self._lab_cache = {}
        self._complex = None

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
    """Whether the labeling orients the surface complex compatibly.

    The chain complex runs C2 (boundary 2-cells) -> C1 (edges) -> C0
    (vertices).  Reference orientations: the fundamental class is the sum
    of all 2-cells, the point class the first vertex, and middle homology
    the echelon kernel basis in the labeled edge coordinates.  The
    compatibility condition is det(level 0) * det(level 1) * det(level 2)
    = (-1)^e over the labeled bases.
    """
    d1, d2, middle = _surface_complex(graph)
    k, e, l = len(graph.vertices), len(d1), len(d2)
    # canonical edge -> (labeled position, -1 when the labeling reverses it)
    canon = {pair_: c for c, pair_ in enumerate(graph.edges)}
    at = [None] * e
    for idx, (tail, head) in enumerate(edge_order):
        at[canon[(min(tail, head), max(tail, head))]] = \
            (idx, 1 if tail < head else -1)

    def relabel(vec):
        return {at[c][0]: at[c][1] * v for c, v in vec.items()}

    v_pos = {v: i for i, v in enumerate(vertex_order)}
    d1_cols = [None] * e
    for c, col in enumerate(d1):
        idx, flip = at[c]
        d1_cols[idx] = {v_pos[r]: flip * v for r, v in col.items()}
    d2_cols = [None] * l
    for b, col in enumerate(d2):
        d2_cols[boundary_order.index(b)] = relabel(col)

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
    # at level 0] against C1, the reference in the labeled coordinates
    middle = [relabel(vec) for vec in middle]
    level1 = det_sign(lift2 + middle + lift1_cols_in_c1) \
        if len(lift2) + len(middle) + len(lift1_cols_in_c1) == e else 0

    if e == 0:
        level1 = 1
    if 0 in (level0, level1, level2):
        raise ValueError("labeling produced a singular orientation frame")
    ref = -1 if e % 2 else 1
    return level0 * level1 * level2 == ref


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
        col = {}
        vt, vh = graph.vertex_of(tail), graph.vertex_of(head)
        col[vh] = col.get(vh, Fraction(0)) + 1
        col[vt] = col.get(vt, Fraction(0)) - 1
        d1.append({r: v for r, v in col.items() if v})
    d2 = []
    for cyc in graph.boundaries():
        col = {}
        for h in cyc:
            partner = graph.pairing.get(h)
            if partner is None:
                continue
            idx = canon[(min(h, partner), max(h, partner))]
            col[idx] = col.get(idx, Fraction(0)) + (1 if h < partner else -1)
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
                 k: int, l: int, g: int, weight_bound: int,
                 slot_shift: int | None = None) -> CochainTensor:
    """Materialize the graph-sum map as an arity-l tensor up to a weight bound.

    Each canonical key stores the graph sum :func:`f_klg` as is, with no
    ``distribution_sign``: this is the normalization of the one-edge
    operations, so the (2, 1, 0) and (1, 2, 0) maps with the contraction
    tensor as propagator equal ``q210`` and ``q120``.
    """
    shift = s.slot_shift if slot_shift is None else slot_shift
    out = CochainTensor(s.basis, l, shift)
    e = k + l + 2 * g - 2
    totals = set()
    for combo in iproduct(*[psi.weights() for psi in psis]):
        t = sum(combo) - 2 * e
        if l <= t <= weight_bound:
            totals.add(t)
    for total in sorted(totals):
        graphs = enumerate_graphs(k, l, g, total)
        for key, _ in canonical_tuples(s.basis, shift, total, l):
            val = f_klg(s, propagator, psis, k, l, g, list(key), graphs=graphs)
            if val:
                out.add(key, val)
    return out


# ---------------------------------------------------------------------------
# pushforward twist element
# ---------------------------------------------------------------------------

class _MuPlusCochain:
    """The weight-three cochain P(m2(x, y), z), kept as its table of nonzero
    values on letter triples."""

    __slots__ = ("values",)

    def __init__(self, s: CyclicStructure):
        self.values = {}
        for xy in s.mu.get(2, {}):
            for z in range(len(s.basis)):
                value = s.mu_plus(2, xy + (z,))
                if value:
                    self.values[xy + (z,)] = value

    def eval_word(self, letters) -> Fraction:
        return self.values.get(tuple(letters), ZERO)

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
    of total weight n_legs is (-1)^(k (m-2)) times the trivalent graph sum
    :func:`f_klg` with k = n_legs + 2 l + 4 g - 4 copies of the m2+ cochain,
    so it carries the prefactor (-1)^(k (m-2)) / (l! |Aut|).  Unlike
    :func:`f_klg_tensor`, each key stores that value times its
    ``distribution_sign``, the normalization of the stored twist entries.
    """
    from .dibl import MaurerCartanFamily, distribution_sign

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
    m2p = _MuPlusCochain(s)
    # Degree law: a nonzero term puts a triple of degree D on each of the
    # k vertices and a kernel pair of degree kdeg on each of the e edges,
    # so the legs' letters have degree k * D - e * kdeg.  It applies when
    # the triples and the kernel are each of one degree.
    vertex_degs = {sum(deg[x] for x in t) for t in m2p.values}
    law = None
    if len(vertex_degs) == 1 and len(kernel_degs) == 1:
        law = vertex_degs.pop(), kdeg
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
                leg_degree = None
                if law is not None:
                    leg_degree = k * law[0] - (3 * k - total) // 2 * law[1]
                for key, _ in canonical_tuples(harmonic.basis,
                                               harmonic.slot_shift, total, l):
                    ambient_words = [tuple(lift[x] for x in w) for w in key]
                    if leg_degree is not None and leg_degree != sum(
                            deg[x] for w in ambient_words for x in w):
                        continue
                    val = sgn * f_klg(s, kernel, [m2p] * k, k, l, g,
                                      ambient_words, graphs)
                    if val:
                        ten.add(key, distribution_sign(harmonic, key) * val)
            if not ten.is_zero() or (l, g) == (1, 0):
                entries[(l, g)] = ten
    return MaurerCartanFamily(harmonic, entries)
