"""Simple-graph core: construction, components, degrees, recognizers, IO.

Vertices are 0..n-1. Graphs are simple and undirected. A graph is held as
one int per vertex, its neighbour mask: bit v of masks[u] is set when u and
v are adjacent. Equal graphs have equal masks, so they compare equal. The
component walks, the 2-colouring, degrees, edge tests and the complement
are bit operations on the masks, spectra.laplacian unpacks them into L, and
the edge count is their popcount. The canonical sorted edge tuple is derived
from the masks only where edges are printed.

build_graph checks any edge list and ORs in its bits, and parse_edge_list
goes through it. Graph(n, masks) checks nothing: it is for masks that are
already canonical, which is how families.py builds every graph except its
random trees.
"""
from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import ParseError, SelfLoopError, VertexRangeError, shown


class cached:
    """functools.cached_property without its lock: the first read calls
    func, and the value stored in the instance's __dict__ then hides this
    non-data descriptor. On Python 3.11 cached_property takes an RLock on
    every first read (3.12 dropped it); two threads that read one attribute
    at once at worst both compute it."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Graph:
    """Simple undirected graph held as neighbour masks.

    The masks must already be canonical: n non-negative ints, bit v of
    masks[u] set exactly when bit u of masks[v] is, no bit u in masks[u]
    and none at n or above. build_graph makes any edge list so.

    A Graph is immutable and compares by value. It is a plain class, not a
    tuple: it never equals a tuple of its fields, and it can be weakly
    referenced. The __dict__ slot holds the cached properties.
    """

    __slots__ = ("n", "masks", "__dict__", "__weakref__")
    n: int
    masks: tuple[int, ...]

    def __init__(self, n: int, masks: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", masks)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self):
        return hash((self.n, self.masks))

    def __repr__(self):
        return f"Graph(n={self.n!r}, masks={self.masks!r})"

    def __reduce__(self):  # pickle and copy rebuild it, as __setattr__ refuses
        return Graph, (self.n, self.masks)

    @cached
    def m(self) -> int:
        return sum(map(int.bit_count, self.masks)) // 2

    @cached
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The canonical edge tuple: (u, v) with u < v, sorted."""
        edges = []
        for u, mask in enumerate(self.masks):
            above = mask >> (u + 1)  # neighbour v > u as bit v - u - 1
            while above:
                low = above & -above
                edges.append((u, u + low.bit_length()))
                above ^= low
        return tuple(edges)

    @cached
    def components(self) -> tuple[tuple[int, ...], ...]:
        """connected_components(self), computed once per graph."""
        return tuple(tuple(comp) for comp in connected_components(self))

    def degree(self, v: int) -> int:
        """The degree of v; VertexRangeError when v is outside 0..n-1."""
        if not 0 <= v < self.n:
            raise VertexRangeError(
                f"vertex {shown(v, str)} outside 0..{self.n - 1}")
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u and v are adjacent; False when either is outside
        0..n-1."""
        return (0 <= u < self.n and 0 <= v < self.n
                and self.masks[u] >> v & 1 == 1)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate an edge list and set its bits in the neighbour masks.

    n is read through operator.index, so the graph's n is a plain int; an n
    that is not an integer or is below 1 raises ValueError. An edge that is
    not a pair, endpoints that are not integers (operator.index fails) and
    endpoints outside 0..n-1 raise VertexRangeError, self-loops
    SelfLoopError, each edge checked in list order; parallel edges collapse
    to one.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(
            f"graph needs an integer vertex count, got n={shown(n)}") from None
    if n < 1:
        raise ValueError(
            f"graph needs at least one vertex, got n={shown(n, str)}")
    masks = [0] * n
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise VertexRangeError(
                f"edge {shown(edge)} is not a pair of vertices") from None
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise VertexRangeError(
                f"edge ({shown(u)}, {shown(v)}) has a non-integer endpoint"
            ) from None
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {shown(u)}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexRangeError(
                f"edge ({shown(u)}, {shown(v)}) outside 0..{n - 1}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, tuple(masks))


def complement(g: Graph) -> Graph:
    """Complement graph on the same vertex set."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ mask ^ (1 << u)
                            for u, mask in enumerate(g.masks)))


def _components(masks: Sequence[int], flip: int,
                unseen: int) -> list[list[int]]:
    """The one component walk: sorted vertex lists, ordered by smallest
    member, of G when flip is 0 and of its complement when flip is -1. It
    walks the vertices in the mask unseen only, which must be a union of
    components.

    From a visited vertex x it takes the unvisited vertices joined to x in
    one step, (masks[x] ^ flip) & unseen: with flip = -1 that is ~masks[x],
    the complement's mask full ^ masks[x] ^ (1 << x) read on unseen vertices
    only, and x itself is never unseen.
    """
    comps: list[list[int]] = []
    while unseen:
        low = unseen & -unseen
        unseen ^= low
        comp = [low.bit_length() - 1]
        for x in comp:  # comp is also the queue: the loop sees what it adds
            if not unseen:
                break
            reached = (masks[x] ^ flip) & unseen
            unseen ^= reached
            while reached:
                low = reached & -reached
                comp.append(low.bit_length() - 1)
                reached ^= low
        comp.sort()
        comps.append(comp)
    return comps


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    return _components(g.masks, 0, (1 << g.n) - 1)


def complement_components(g: Graph) -> list[list[int]]:
    """connected_components(complement(g)), without building the complement."""
    return _components(g.masks, -1, (1 << g.n) - 1)


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Degrees sorted non-increasing."""
    return tuple(sorted(map(int.bit_count, g.masks), reverse=True))


def conjugate_sequence(d: Sequence[int]) -> tuple[int, ...]:
    """Conjugate of a non-increasing integer sequence, padded to the same length.

    Entry i (1-based) counts how many d_j are >= i. Accepts entries up to
    len(d) so that conjugation composes with itself (it is an involution on
    such sequences).
    """
    n = len(d)
    if n == 0:
        raise ValueError("empty sequence")
    counts = [0] * (n + 1)  # counts[x]: how many d_j equal x
    prev = None
    for x in d:
        if not isinstance(x, int):
            raise ValueError(f"non-integer entry {x!r}")
        if x < 0 or x > n:
            raise ValueError(f"entry {x} outside 0..{n}")
        if prev is not None and x > prev:
            raise ValueError("sequence must be non-increasing")
        counts[x] += 1
        prev = x
    # entry i is counts[i] + ... + counts[n]: suffix sums, taken from n down
    return tuple(itertools.accumulate(counts[:0:-1]))[::-1]


def first_zagreb(g: Graph) -> int:
    """Sum of squared vertex degrees."""
    degrees = list(map(int.bit_count, g.masks))
    return sum(map(operator.mul, degrees, degrees))


def _is_bipartite(g: Graph) -> bool:
    """Breadth-first 2-colouring by layers of masks; False at the first odd
    cycle.

    Every edge of a component joins two vertices of one layer or of adjacent
    layers, so the component is bipartite exactly when no vertex's mask
    meets its own layer.
    """
    masks = g.masks
    unseen = (1 << g.n) - 1
    while unseen:
        layer = unseen & -unseen
        unseen ^= layer
        while layer:
            reached = 0
            todo = layer
            while todo:
                low = todo & -todo
                todo ^= low
                nbrs = masks[low.bit_length() - 1]
                if nbrs & layer:
                    return False
                reached |= nbrs
            layer = reached & unseen
            unseen ^= layer
    return True


def _is_clique_union(m: int, comps: Sequence[Sequence[int]]) -> bool:
    """A graph with m edges and these components is a union of cliques:
    a component of c vertices has at most c(c-1)/2 edges, so the bound is
    met in total only when it is met by every component."""
    return m == sum(len(comp) * (len(comp) - 1) // 2 for comp in comps)


class GraphClass(NamedTuple):
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
    n, m, masks = g.n, g.m, g.masks
    is_connected = len(g.components) == 1
    is_tree = is_connected and m == n - 1
    is_bipartite = _is_bipartite(g)
    # a vertex of degree n - 1 is a component of its own in the complement:
    # count those, and walk the complement on the other vertices only
    lone = 0
    for v, mask in enumerate(masks):
        if mask.bit_count() == n - 1:
            lone |= 1 << v
    co_comps = _components(masks, -1, ((1 << n) - 1) ^ lone)
    return GraphClass(
        component_count=len(g.components),
        is_connected=is_connected,
        is_tree=is_tree,
        is_star=is_tree and lone != 0,
        is_complete=2 * m == n * (n - 1),
        is_clique_union=_is_clique_union(m, g.components),
        is_bipartite=is_bipartite,
        # sides a + b = n give m <= ab <= n^2/4, with equality only for
        # K_{n/2,n/2}
        is_balanced_complete_bipartite=is_bipartite and 4 * m == n * n,
        complement_component_count=lone.bit_count() + len(co_comps),
        is_complete_multipartite=_is_clique_union(
            n * (n - 1) // 2 - m, co_comps),
    )


def parse_edge_list(
        text: str, check_n: Optional[Callable[[int], object]] = None) -> Graph:
    """Parse the plain edge-list format.

    First non-comment line is "n m"; each of the next m non-comment lines is
    "u v". Lines starting with '#' and blank lines are ignored. check_n, when
    given, is called with n once every line has parsed and before the masks
    are made, so it can reject a huge n before n ints are allocated.
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
    if check_n is not None:
        check_n(n)
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
