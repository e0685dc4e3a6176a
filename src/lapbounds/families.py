"""Named graph families, seeded random generators, and the family DSL.

DSL grammar (one spec per string, one kind per line):

    K:n            complete graph
    S:n            star
    Kme:n          complete graph minus one edge (n >= 2)
    Kab:a:b        complete bipartite
    P:n            path
    C:n            cycle (n >= 3)
    TREE:n:seed    uniform random labeled tree (Prufer decode)
    GNP:n:p:seed   Erdos-Renyi conditioned on connectivity, p in (0, 1]
    CLIQUES:a,b,c  disjoint union of cliques of the listed sizes

For sweeps the n slot accepts a range, e.g. "S:3..10" or "TREE:4..8:9",
which expands to one spec per n. Each kind is declared once, in _KIND_TABLE.

Every generator but random_tree emits each vertex's neighbour mask by bit
arithmetic, so it builds Graph(n, masks) directly, with none of
build_graph's per-edge checks; gnp_connected reads its masks from the rows
that the compiled library's coin block writes. A Prufer decode emits edge
pairs, so random_tree goes through build_graph.
"""
from __future__ import annotations

import itertools
from array import array
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import ParseError, RetryExhaustedError
from .graphs import Graph, build_graph
from .rng import SplitMix64
from .spectra import _library

GNP_RETRY_CAP = 1000


class FamilySpec(NamedTuple):
    """Parameters for one generated graph."""

    kind: str
    n: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    p: Optional[float] = None
    seed: Optional[int] = None
    sizes: Optional[tuple[int, ...]] = None

    def label(self) -> str:
        """Short deterministic display string, DSL-shaped."""
        kind = _kind(self.kind)
        values = (getattr(self, field) for field in kind.fields)
        return ":".join([kind.head] + [
            ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for v in values])

    @property
    def order(self) -> int:
        """Vertex count: the clique sizes' sum, a + b for Kab, else n."""
        return sum(self.sizes) if self.sizes else self.n or self.a + self.b


def _clique_union(sizes: Sequence[int]) -> Graph:
    """Disjoint cliques of the given sizes on consecutive vertices: vertex v
    of a block is joined to the rest of its block."""
    masks: list[int] = []
    for s in sizes:
        lo = len(masks)
        block = ((1 << s) - 1) << lo
        masks.extend(block ^ (1 << v) for v in range(lo, lo + s))
    return Graph(len(masks), tuple(masks))


def _prufer_decode(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree whose Prufer sequence is seq (len n-2)."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    # pointer scan keeps the smallest current leaf without a heap
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf == -1:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return build_graph(1, [])
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    return build_graph(n, _prufer_decode(seq, n))


def gnp_connected(n: int, p: float, seed: int) -> Graph:
    """G(n, p) conditioned on connectivity by rejection sampling.

    An attempt flips one coin per pair u < v, in u-major order, and keeps the
    pairs whose uniform() draw of the seed's stream is below p; the next
    attempt continues the stream. The compiled library draws an attempt as
    one block, in gnp_rows, and writes it as packed mask rows. Raises
    RetryExhaustedError after GNP_RETRY_CAP rejected draws, and
    SolverBuildError when the library cannot be built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    rng = SplitMix64(seed)
    lib = _library()
    width = (n + 7) // 8
    rows = array("B", bytes(n * width))
    for _ in range(GNP_RETRY_CAP):
        lib.gnp_rows(rng.skip(n * (n - 1) // 2), n, p, rows.buffer_info()[0])
        data = rows.tobytes()
        masks = [int.from_bytes(data[i:i + width], "little")
                 for i in range(0, len(data), width)]
        g = Graph(n, tuple(masks))
        if len(g.components) == 1:
            return g
    raise RetryExhaustedError(
        f"no connected G({n}, {p}) draw within {GNP_RETRY_CAP} attempts")


class _Kind(NamedTuple):
    head: str                    # DSL prefix
    fields: tuple[str, ...]      # FamilySpec fields in DSL order
    min_size: int                # smallest legal n, a, b and clique size
    build: Callable[..., Graph]  # takes the field values in DSL order


# Builders look gnp_connected and random_tree up when called, never at
# import, so a wrapper swapped into this module sees every call.
_KIND_TABLE = {
    "complete": _Kind("K", ("n",), 1, lambda n: _clique_union((n,))),
    "star": _Kind("S", ("n",), 1, lambda n: Graph(
        n, ((1 << n) - 2,) + (1,) * (n - 1))),
    # K_n without its last edge (n - 2, n - 1): both ends keep 0..n-3
    "complete_minus_edge": _Kind("Kme", ("n",), 2, lambda n: Graph(
        n, _clique_union((n,)).masks[:-2] + ((1 << (n - 2)) - 1,) * 2)),
    "complete_bipartite": _Kind("Kab", ("a", "b"), 1, lambda a, b: Graph(
        a + b, (((1 << b) - 1) << a,) * a + ((1 << a) - 1,) * b)),
    # vertex v of a path or cycle is joined to v - 1 and v + 1 (mod n for
    # a cycle), where they exist
    "path": _Kind("P", ("n",), 1, lambda n: Graph(n, tuple(
        ((1 << v) >> 1 | 2 << v) & ((1 << n) - 1) for v in range(n)))),
    "cycle": _Kind("C", ("n",), 3, lambda n: Graph(n, tuple(
        (1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)))),
    "random_tree": _Kind("TREE", ("n", "seed"), 1,
                         lambda n, seed: random_tree(n, seed)),
    "gnp_connected": _Kind("GNP", ("n", "p", "seed"), 1,
                           lambda n, p, seed: gnp_connected(n, p, seed)),
    "clique_union": _Kind("CLIQUES", ("sizes",), 1, _clique_union),
}


def _kind(name: str) -> _Kind:
    try:
        return _KIND_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown family kind {name!r}") from None


def _illegal(kind: _Kind, field: str, value) -> Optional[str]:
    """Why value is not a legal `field` of kind, or None when it is."""
    if value is None:
        return f"needs {field}"
    if field == "seed":
        return None
    if field == "p":
        return None if 0.0 < value <= 1.0 else f"needs p in (0, 1], got {value}"
    smallest = min(value, default=0) if field == "sizes" else value
    if smallest < kind.min_size:
        return f"needs {field} >= {kind.min_size}, got {value}"
    return None


def generate(spec: FamilySpec) -> Graph:
    """Construct the graph a FamilySpec describes."""
    kind = _kind(spec.kind)
    values = [getattr(spec, field) for field in kind.fields]
    for field, value in zip(kind.fields, values):
        why = _illegal(kind, field, value)
        if why:
            raise ValueError(f"{spec.kind} {why}")
    return kind.build(*values)


def _parse_int(token: str, pos: int, text: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r} in {text!r}",
                         position=pos) from None


def _parse_field(field: str, token: str, pos: int, text: str,
                 allow_range: bool) -> Sequence:
    """Values of the token at offset pos, ascending: several only for an n
    range, which stays a lazy range."""
    if field == "n":
        lo_s, dots, hi_s = token.partition("..")
        lo = _parse_int(lo_s, pos, text)
        hi = _parse_int(hi_s, pos + len(lo_s) + 2, text) if dots else lo
        if hi < lo:
            raise ParseError(f"empty range {token!r} in {text!r}", position=pos)
        if hi > lo and not allow_range:
            raise ParseError(f"range not allowed here in {text!r}",
                             position=pos)
        return range(lo, hi + 1)
    if field == "p":
        try:
            return [float(token)]
        except ValueError:
            raise ParseError(f"expected a probability, got {token!r} in "
                             f"{text!r}", position=pos) from None
    if field == "sizes":
        tokens = token.split(",")
        starts = itertools.accumulate((len(t) + 1 for t in tokens), initial=pos)
        return [tuple(_parse_int(t, at, text) for t, at in zip(tokens, starts))]
    return [_parse_int(token, pos, text)]


def iter_family(text: str, allow_range: bool = False) -> Iterator[FamilySpec]:
    """Parse one DSL string and yield its specs, n ascending.

    The whole string is checked before this returns, so every ParseError is
    raised here; a range is then expanded one spec at a time, so a caller can
    stop partway through a huge one. With allow_range=False a range token is
    rejected, which is what the single-graph commands use.
    ParseError.position is the offset in text of the token at fault.
    """
    parts = text.strip().split(":")
    starts = list(itertools.accumulate((len(t) + 1 for t in parts),
                                       initial=len(text) - len(text.lstrip())))
    head = parts[0]
    name = next((k for k, kind in _KIND_TABLE.items() if kind.head == head),
                None)
    if name is None:
        raise ParseError(f"unknown family prefix {head!r} in {text!r}",
                         position=starts[0])
    kind = _KIND_TABLE[name]
    if len(parts) - 1 != len(kind.fields):
        raise ParseError(f"{head} takes {':'.join(kind.fields)} in {text!r}",
                         position=starts[0])
    columns = []
    for field, token, pos in zip(kind.fields, parts[1:], starts[1:]):
        values = _parse_field(field, token, pos, text, allow_range)
        # only an n range has several values, and n's rule is a lower bound
        why = _illegal(kind, field, values[0])
        if why:
            raise ParseError(f"{head} {why} in {text!r}", position=pos)
        columns.append(values)
    # n, the only field that takes a range, always comes first; product()
    # would materialise it, so it is iterated lazily on the outside
    first, *rest = columns
    tails = list(itertools.product(*rest))
    return (FamilySpec(name, **dict(zip(kind.fields, (value,) + tail)))
            for value in first for tail in tails)


def parse_family(text: str, allow_range: bool = False) -> list[FamilySpec]:
    """Every spec of one DSL string (singleton unless a range expands);
    see iter_family."""
    return list(iter_family(text, allow_range))
