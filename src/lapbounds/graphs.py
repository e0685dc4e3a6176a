"""Simple-graph core: construction, components, degrees, recognizers, IO.

Vertices are 0..n-1. Graphs are simple and undirected; edges are stored as a
canonical sorted tuple of (u, v) pairs with u < v, so equal graphs compare
equal and all iteration orders are deterministic.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import ParseError, SelfLoopError, VertexRangeError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with a canonical edge tuple."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """connected_components(self), computed once per graph."""
        return tuple(tuple(comp) for comp in connected_components(self))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate, dedupe and canonicalize an edge list into a Graph.

    Endpoints that are not integers (operator.index fails) and endpoints
    outside 0..n-1 raise VertexRangeError, self-loops SelfLoopError, each
    edge checked in list order; parallel edges collapse to one. Endpoints
    are stored as plain ints. Each edge is keyed by the int u * n + v with
    u < v, so sorting the keys sorts the edges.
    """
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    keys: set[int] = set()
    for u, v in edges:
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise VertexRangeError(
                f"edge ({u!r}, {v!r}) has a non-integer endpoint") from None
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        keys.add(u * n + v if u < v else v * n + u)
    return Graph(n=n, edges=tuple(map(divmod, sorted(keys),
                                      itertools.repeat(n))))


def complement(g: Graph) -> Graph:
    """Complement graph on the same vertex set."""
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if not g.has_edge(u, v)]
    return Graph(n=g.n, edges=tuple(edges))


def _components(g: Graph, step: Callable[..., set[int]]) -> list[list[int]]:
    """The one component walk: sorted vertex lists, ordered by smallest member.

    From a visited vertex x it reaches the unvisited vertices joined to x in
    one set operation, step(unseen, g.adjacency[x]): set.intersection walks
    G, set.difference its complement.
    """
    unseen = set(range(g.n))
    comps: list[list[int]] = []
    for start in range(g.n):
        if start not in unseen:
            continue
        unseen.discard(start)
        comp = [start]
        for x in comp:  # comp is also the queue: the loop sees what it adds
            if not unseen:
                break
            reached = step(unseen, g.adjacency[x])
            unseen -= reached
            comp.extend(reached)
        comps.append(sorted(comp))
    return comps


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    return _components(g, set.intersection)


def complement_components(g: Graph) -> list[list[int]]:
    """connected_components(complement(g)), without building the complement."""
    return _components(g, set.difference)


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Degrees sorted non-increasing."""
    return tuple(sorted((len(s) for s in g.adjacency), reverse=True))


def conjugate_sequence(d: Sequence[int]) -> tuple[int, ...]:
    """Conjugate of a non-increasing integer sequence, padded to the same length.

    Entry i (1-based) counts how many d_j are >= i. Accepts entries up to
    len(d) so that conjugation composes with itself (it is an involution on
    such sequences).
    """
    n = len(d)
    if n == 0:
        raise ValueError("empty sequence")
    prev = None
    for x in d:
        if not isinstance(x, int):
            raise ValueError(f"non-integer entry {x!r}")
        if x < 0 or x > n:
            raise ValueError(f"entry {x} outside 0..{n}")
        if prev is not None and x > prev:
            raise ValueError("sequence must be non-increasing")
        prev = x
    return tuple(sum(1 for x in d if x >= i) for i in range(1, n + 1))


def first_zagreb(g: Graph) -> int:
    """Sum of squared vertex degrees."""
    return sum(len(s) ** 2 for s in g.adjacency)


def _is_bipartite(g: Graph) -> bool:
    """Traversal 2-colouring; False when an odd cycle exists."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            x = queue.pop()
            for y in g.adjacency[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _is_clique_union(m: int, comps: Sequence[Sequence[int]]) -> bool:
    """A graph with m edges and these components is a union of cliques:
    a component of c vertices has at most c(c-1)/2 edges, so the bound is
    met in total only when it is met by every component."""
    return m == sum(len(comp) * (len(comp) - 1) // 2 for comp in comps)


@dataclass(frozen=True)
class GraphClass:
    """The structural facts the bound catalog reads, of G and of its
    complement."""

    component_count: int
    is_connected: bool
    is_tree: bool
    is_star: bool
    is_complete: bool
    is_clique_union: bool
    is_bipartite: bool
    is_balanced_complete_bipartite: bool
    complement_component_count: int
    # the complement is a clique union
    is_complete_multipartite: bool


def classify(g: Graph) -> GraphClass:
    """Recognize the named families from n, m, the components of G and of
    its complement, and one 2-colouring (no isomorphism).

    K_1 counts as a degenerate star, complete graph and clique union all at
    once; K_2 is both a star and complete.
    """
    n, m = g.n, g.m
    is_connected = len(g.components) == 1
    is_tree = is_connected and m == n - 1
    is_bipartite = _is_bipartite(g)
    co_comps = complement_components(g)
    return GraphClass(
        component_count=len(g.components),
        is_connected=is_connected,
        is_tree=is_tree,
        is_star=is_tree and any(len(s) == n - 1 for s in g.adjacency),
        is_complete=2 * m == n * (n - 1),
        is_clique_union=_is_clique_union(m, g.components),
        is_bipartite=is_bipartite,
        # sides a + b = n give m <= ab <= n^2/4, with equality only for
        # K_{n/2,n/2}
        is_balanced_complete_bipartite=is_bipartite and 4 * m == n * n,
        complement_component_count=len(co_comps),
        is_complete_multipartite=_is_clique_union(
            n * (n - 1) // 2 - m, co_comps),
    )


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    First non-comment line is "n m"; each of the next m non-comment lines is
    "u v". Lines starting with '#' and blank lines are ignored.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise ParseError("empty edge-list document")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be 'n m'", position=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must hold two integers", position=lineno) from None
    if n < 1 or m < 0:
        raise ParseError(f"bad sizes n={n} m={m}", position=lineno)
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(rows) - 1}",
                         position=lineno)
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", position=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers",
                             position=lineno) from None
        edges.append((u, v))
    try:
        g = build_graph(n, edges)
    except (SelfLoopError, VertexRangeError) as exc:
        raise ParseError(str(exc)) from exc
    if g.m != m:
        raise ParseError(f"{m} edges declared but {g.m} distinct edges given")
    return g


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text: header then sorted edges, one per line."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
