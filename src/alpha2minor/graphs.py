"""Bitmask-backed simple undirected graphs and the core operations on them.

Vertices are the integers 0..n-1.  Each vertex stores its neighborhood as an
integer bitmask, which keeps the search kernels elsewhere in the package fast
at desk scale (everything of interest here fits in one machine word).  Graphs
are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import Graph6Error, PreconditionError

GRAPH6_MAX_N = 258047


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: ``n`` vertices, per-vertex neighbor bitmasks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        # Rows stored as a tuple, so that the graph hashes for the caches.
        object.__setattr__(self, "adj", tuple(self.adj))
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has a neighbor out of range")
            if (row >> v) & 1:
                raise ValueError(f"vertex {v} has a self-loop")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric on pair ({u}, {v})")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def __repr__(self) -> str:  # compact; eval with parse_graph6 in scope
        return f"parse_graph6({emit_graph6(self)!r})"

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def is_complete(self) -> bool:
        full = self.vertex_mask()
        return all(self.adj[v] == full ^ (1 << v) for v in range(self.n))


def _graph_unchecked(n: int, adj: tuple[int, ...]) -> Graph:
    """A ``Graph`` without ``__post_init__``'s O(n^2) checks, for rows derived
    from an already valid graph by an operation that keeps them simple and
    symmetric; everything built from outside input goes through ``Graph``."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


# -- set-valued neighborhoods ------------------------------------------


def closed_neighborhood_mask(g: Graph, mask: int) -> int:
    out = mask
    for v in bits(mask):
        out |= g.adj[v]
    return out


# -- connectivity helpers ----------------------------------------------


def connected_component_mask(g: Graph, start: int, within: int) -> int:
    """Bitmask of the component of ``start`` inside the induced set ``within``."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        nxt &= within & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def is_connected_mask(g: Graph, mask: int) -> bool:
    """True when the subgraph induced on ``mask`` is connected (or empty)."""
    if mask == 0:
        return True
    start = (mask & -mask).bit_length() - 1
    return connected_component_mask(g, start, mask) == mask


# -- the core operations -----------------------------------------------


def complement(g: Graph) -> Graph:
    full = g.vertex_mask()
    return _graph_unchecked(g.n, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(g.adj)))


def independent_sets(g: Graph) -> list[int]:
    """All independent-set masks of ``g`` (including the empty set), sorted;
    applied to the complement, all clique masks."""
    out = []

    def extend(mask: int, candidates: int) -> None:
        out.append(mask)
        while candidates:
            vbit = candidates & -candidates
            candidates ^= vbit
            v = vbit.bit_length() - 1
            extend(mask | vbit, candidates & ~g.adj[v])

    extend(0, g.vertex_mask())
    return sorted(out)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on ``vertices``, re-indexed 0..k-1 in increasing label
    order.  Returns the new graph and its lift: the kept vertices in
    increasing order, so vertex i of the subgraph is vertex ``lift[i]`` of
    ``g``.

    Each kept row is masked to the kept vertices, then every dropped bit
    position is squeezed out, highest first, so that the lower positions
    still to be squeezed have not moved."""
    lift = tuple(sorted(set(vertices)))
    if lift and not (0 <= lift[0] and lift[-1] < g.n):
        raise PreconditionError("vertex out of range")
    keep = mask_of(lift)
    lows = [(1 << p) - 1 for p in reversed(list(bits(g.vertex_mask() & ~keep)))]
    rows = []
    for v in lift:
        row = g.adj[v] & keep
        for low in lows:
            row = (row & low) | ((row >> 1) & ~low)
        rows.append(row)
    return _graph_unchecked(len(lift), tuple(rows)), lift


def delete_vertices(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the complement of ``vertices``, with its lift as in
    ``induced_subgraph``."""
    drop = set(vertices)
    if drop and not (0 <= min(drop) and max(drop) < g.n):
        raise PreconditionError("vertex out of range")
    return induced_subgraph(g, (v for v in range(g.n) if v not in drop))


# -- graph6 serialization ----------------------------------------------


def emit_graph6(g: Graph) -> str:
    """Encode a labeled graph in graph6: column-major upper-triangle bits,
    packed into 6-bit chunks offset by 63."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise Graph6Error(f"graph6 supports at most {GRAPH6_MAX_N} vertices")
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~"] + [chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional ``>>graph6<<`` header allowed)."""
    s = text.strip()
    if s.startswith(">>"):
        if not s.startswith(">>graph6<<"):
            raise Graph6Error(f"malformed header in {text!r}")
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string")
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise Graph6Error(f"byte {ch!r} out of graph6 range")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graph6 vertex counts above 258047 are not supported")
        if len(s) < 4:
            raise Graph6Error("truncated vertex count")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error(f"truncated bit field: need {need} bytes, got {len(body)}")
    if len(body) > need:
        raise Graph6Error(f"trailing bytes after bit field in {text!r}")
    bitstream = []
    for ch in body:
        val = ord(ch) - 63
        bitstream.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bitstream[nbits:]):
        raise Graph6Error("nonzero padding bits")
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(rows))
