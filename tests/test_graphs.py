"""Graph core: construction, components, degrees, recognizers, edge-list IO."""
import copy
import pickle
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lapbounds as lb
from lapbounds import ParseError, SelfLoopError, VertexRangeError
from conftest import (clique_union_corpus, gnp_corpus, graph_strategy,
                      named_corpus, tree_corpus)


def fam(text):
    return lb.generate(lb.parse_family(text)[0])


class TestBuildGraph:
    def test_canonicalizes_and_dedupes(self):
        g = lb.build_graph(4, [(2, 0), (0, 2), (3, 1), (1, 3)])
        assert g.edges == ((0, 2), (1, 3))
        assert g.m == 2
        assert g.has_edge(2, 0) and not g.has_edge(0, 1)

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            lb.build_graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(VertexRangeError):
            lb.build_graph(3, [(0, 3)])
        with pytest.raises(VertexRangeError):
            lb.build_graph(3, [(-1, 2)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            lb.build_graph(0, [])

    def test_single_vertex(self):
        g = lb.build_graph(1, [])
        assert g.n == 1 and g.m == 0
        assert lb.degree_sequence(g) == (0,)

    @pytest.mark.parametrize("edge", [(0, 1.5), (1.0, 2), ("1", 2), (0, None),
                                      (np.float64(1), 2)])
    def test_rejects_non_integer_endpoints(self, edge):
        with pytest.raises(VertexRangeError, match="non-integer endpoint"):
            lb.build_graph(3, [(0, 1), edge])

    def test_integer_like_endpoints_stored_as_ints(self):
        g = lb.build_graph(3, [(True, 2), (np.int64(0), np.int8(2))])
        assert g.edges == ((0, 2), (1, 2))
        assert {type(x) for e in g.edges for x in e} == {int}
        assert lb.spectrum(g).mu == lb.spectrum(lb.build_graph(
            3, [(1, 2), (0, 2)])).mu

    @staticmethod
    def tuple_key_build(n, edges):
        """The tuple-keyed build_graph that preceded the integer keys."""
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        canon = set()
        for u, v in edges:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (0 <= u < n) or not (0 <= v < n):
                raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            canon.add((u, v) if u < v else (v, u))
        return tuple(sorted(canon))

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1))
                             .filter(lambda e: e[0] != e[1]), max_size=40))))
    @settings(max_examples=200)
    def test_canonical_edges(self, case):
        n, edges = case
        doubled = edges + [(v, u) for u, v in edges[::2]]
        assert lb.build_graph(n, doubled).edges == tuple(
            sorted({(min(u, v), max(u, v)) for u, v in edges}))

    @given(st.integers(1, 8), st.lists(st.tuples(st.integers(-3, 10),
                                                 st.integers(-3, 10)),
                                       max_size=12))
    @settings(max_examples=300)
    def test_first_invalid_edge_raises_as_before(self, n, edges):
        try:
            expected = self.tuple_key_build(n, edges)
        except (SelfLoopError, VertexRangeError) as exc:
            with pytest.raises(type(exc)) as raised:
                lb.build_graph(n, edges)
            assert str(raised.value) == str(exc)
        else:
            assert lb.build_graph(n, edges).edges == expected


@st.composite
def _edge_lists(draw):
    """n in 1..70, across the 64-bit word boundary, and an edge list with
    repeats and reversed pairs, its endpoints ints, numpy ints and bools."""
    n = draw(st.integers(1, 70) | st.integers(60, 70))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(
        lambda e: e[0] != e[1]), max_size=0 if n == 1 else 80))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=20))
        pairs += [(v, u) if flip else (u, v) for (u, v), flip
                  in zip(again, draw(st.lists(st.booleans(), min_size=len(
                      again), max_size=len(again))))]
    pairs = draw(st.permutations(pairs))
    kinds = draw(st.lists(st.sampled_from([int, np.int64, np.uint8, bool]),
                          min_size=2 * len(pairs), max_size=2 * len(pairs)))
    typed = [kind(x) if kind is not bool or x < 2 else x
             for x, kind in zip((x for e in pairs for x in e), kinds)]
    return n, list(zip(typed[::2], typed[1::2]))


class TestRepresentation:
    """A graph is its neighbour masks; everything else is derived."""

    @given(_edge_lists(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_masks_hold_the_edge_set(self, case, data):
        n, edges = case
        canon = sorted({(min(map(int, e)), max(map(int, e))) for e in edges})
        g = lb.build_graph(n, edges)
        assert g.edges == tuple(canon)
        assert {type(x) for e in g.edges for x in e} <= {int}
        assert g.m == len(g.edges)
        assert len(g.masks) == n
        for u, mask in enumerate(g.masks):
            assert 0 <= mask < 1 << n and not mask >> u & 1
            assert all(g.masks[v] >> u & 1
                       for v in range(n) if mask >> v & 1)

        c = lb.complement(g)
        assert lb.complement(c) == g
        assert c.edges == tuple(sorted(
            {(u, v) for u in range(n) for v in range(u + 1, n)}
            - set(canon)))

        L = np.zeros((n, n), dtype=np.int64)
        for u, v in canon:
            L[u, v] = L[v, u] = -1
        L[np.diag_indices(n)] = -L.sum(axis=1)
        assert lb.laplacian(g) == L.tolist()
        assert all(type(x) is int for row in lb.laplacian(g) for x in row)

        other = data.draw(st.permutations(edges))
        other = other[data.draw(st.integers(0, min(len(other), 2))):]
        h = lb.build_graph(n, other)
        same = {(min(map(int, e)), max(map(int, e))) for e in other} == set(
            canon)
        assert (g == h) == same
        assert not same or hash(g) == hash(h)

    def test_value_semantics(self):
        g = lb.build_graph(3, [(0, 1), (1, 2)])
        assert repr(g) == "Graph(n=3, masks=(2, 5, 2))"
        h = lb.Graph(3, (2, 5, 2))
        assert g == h and hash(g) == hash(h) and g is not h
        assert g != lb.Graph(3, (2, 5, 0)) and g != lb.build_graph(4, [])
        # a Graph is not a tuple: it never equals its own fields
        assert g != (3, (2, 5, 2)) and (3, (2, 5, 2)) != g
        assert pickle.loads(pickle.dumps(g)) == g
        assert copy.deepcopy(g) == g


class TestComponents:
    def test_ordering_by_smallest_member(self):
        g = lb.build_graph(5, [(3, 4), (0, 1)])
        assert lb.connected_components(g) == [[0, 1], [2], [3, 4]]

    def test_connected_complete(self):
        assert lb.connected_components(fam("K:5")) == [[0, 1, 2, 3, 4]]

    @given(graph_strategy())
    @settings(max_examples=60)
    def test_components_partition_vertices(self, g):
        comps = lb.connected_components(g)
        flat = sorted(v for comp in comps for v in comp)
        assert flat == list(range(g.n))
        # no edge crosses component boundaries
        owner = {}
        for idx, comp in enumerate(comps):
            for v in comp:
                owner[v] = idx
        assert all(owner[u] == owner[v] for u, v in g.edges)


def set_adjacency(g):
    """Each vertex's neighbours as a frozenset, read off g's edge tuple."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(frozenset(s) for s in nbrs)


class TestOneComponentWalk:
    """connected_components and complement_components are one walk, over
    the edges of G and over those of its complement."""

    @staticmethod
    def seen_list_dfs(g):
        """The per-neighbour traversal the shared walk replaced."""
        adjacency = set_adjacency(g)
        seen = [False] * g.n
        comps = []
        for start in range(g.n):
            if seen[start]:
                continue
            seen[start] = True
            comp, stack = [start], [start]
            while stack:
                for y in adjacency[stack.pop()]:
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        stack.append(y)
            comps.append(sorted(comp))
        return comps

    @given(graph_strategy(max_n=14))
    @settings(max_examples=200)
    @example(lb.build_graph(1, []))
    @example(lb.build_graph(7, []))
    @example(fam("K:7"))
    def test_matches_the_seen_list_dfs_and_the_complement_graph(self, g):
        assert lb.connected_components(g) == self.seen_list_dfs(g)
        assert lb.complement_components(g) == lb.connected_components(
            lb.complement(g))


class TestMasksMatchTheSetCode:
    """The bitmask structure code against test-local copies of the set-based
    code it replaced, which read a tuple of frozensets."""

    @staticmethod
    def set_components(adjacency, step):
        """The shared walk: step is set.intersection for G, set.difference
        for its complement."""
        unseen = set(range(len(adjacency)))
        comps = []
        for start in range(len(adjacency)):
            if start not in unseen:
                continue
            unseen.discard(start)
            comp = [start]
            for x in comp:
                if not unseen:
                    break
                reached = step(unseen, adjacency[x])
                unseen -= reached
                comp.extend(reached)
            comps.append(sorted(comp))
        return comps

    @staticmethod
    def set_is_bipartite(adjacency):
        color = [-1] * len(adjacency)
        for start in range(len(adjacency)):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                x = queue.pop()
                for y in adjacency[x]:
                    if color[y] == -1:
                        color[y] = 1 - color[x]
                        queue.append(y)
                    elif color[y] == color[x]:
                        return False
        return True

    @given(graph_strategy(max_n=14))
    @settings(max_examples=300)
    @example(lb.build_graph(1, []))
    @example(lb.build_graph(9, []))
    @example(lb.build_graph(64, []))
    @example(fam("K:8"))
    @example(fam("K:64"))
    @example(fam("C:7"))
    @example(fam("C:8"))
    @example(fam("C:63"))
    @example(fam("C:64"))
    @example(fam("GNP:64:0.5:1"))
    @example(fam("GNP:64:0.1:3"))
    @example(fam("CLIQUES:30,1,33"))
    @example(fam("TREE:64:9"))
    @example(fam("P:70"))
    def test_same_answers(self, g):
        adj = set_adjacency(g)
        assert g.masks == tuple(sum(1 << v for v in s) for s in adj)
        assert lb.connected_components(g) == self.set_components(
            adj, set.intersection)
        assert lb.complement_components(g) == self.set_components(
            adj, set.difference)
        assert lb.graphs._is_bipartite(g) == self.set_is_bipartite(adj)
        assert lb.degree_sequence(g) == tuple(sorted(
            (len(s) for s in adj), reverse=True))
        assert lb.first_zagreb(g) == sum(len(s) ** 2 for s in adj)
        assert [g.degree(v) for v in range(g.n)] == [len(s) for s in adj]
        assert all(g.has_edge(u, v) == (v in adj[u])
                   for u in range(g.n) for v in range(g.n))
        assert lb.complement(g).edges == tuple(
            (u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if v not in adj[u])
        L = np.diag([len(s) for s in adj])
        for u, v in g.edges:
            L[u, v] = L[v, u] = -1
        assert lb.laplacian(g) == L.tolist()
        assert all(type(x) is int for row in lb.laplacian(g) for x in row)

    def test_masks_are_the_neighbour_bits(self):
        assert fam("P:3").masks == (0b010, 0b101, 0b010)
        assert fam("K:1").masks == (0,)
        g = fam("S:70")
        assert g.masks[0] == (1 << 70) - 2
        assert g.masks[1:] == (1,) * 69
        assert not g.has_edge(0, -1) and not g.has_edge(1, 70)


class TestDegrees:
    def test_star_degrees(self):
        assert lb.degree_sequence(fam("S:5")) == (4, 1, 1, 1, 1)

    def test_conjugate_of_star(self):
        assert lb.conjugate_sequence((4, 1, 1, 1, 1)) == (5, 1, 1, 1, 0)

    def test_conjugate_validation(self):
        with pytest.raises(ValueError):
            lb.conjugate_sequence(())
        with pytest.raises(ValueError):
            lb.conjugate_sequence((1, 2))
        with pytest.raises(ValueError):
            lb.conjugate_sequence((4, 1))
        with pytest.raises(ValueError):
            lb.conjugate_sequence((2.0, 1))

    def test_conjugate_matches_the_counting_definition(self):
        # every non-increasing sequence of n entries in 0..n, n = 1..8
        # (C(2n, n) each), against entry i as the count of the d_j >= i
        checked = 0
        for n in range(1, 9):
            for d in combinations_with_replacement(range(n, -1, -1), n):
                expected = tuple(sum(1 for x in d if x >= i)
                                 for i in range(1, n + 1))
                assert lb.conjugate_sequence(d) == expected, d
                checked += 1
        assert checked == 17_576

    @given(graph_strategy())
    @settings(max_examples=60)
    def test_conjugate_is_an_involution_on_degrees(self, g):
        d = lb.degree_sequence(g)
        assert lb.conjugate_sequence(lb.conjugate_sequence(d)) == d

    @given(graph_strategy())
    @settings(max_examples=60)
    def test_conjugate_preserves_total(self, g):
        d = lb.degree_sequence(g)
        assert sum(lb.conjugate_sequence(d)) == sum(d) == 2 * g.m

    def test_first_zagreb(self):
        assert lb.first_zagreb(fam("K:4")) == 4 * 9
        assert lb.first_zagreb(fam("S:4")) == 9 + 3
        assert lb.first_zagreb(fam("P:4")) == 1 + 4 + 4 + 1


class TestComplement:
    def test_complement_of_complete_is_empty(self):
        cg = lb.complement(fam("K:5"))
        assert cg.m == 0 and cg.n == 5

    @given(graph_strategy())
    @settings(max_examples=60)
    def test_complement_involution(self, g):
        assert lb.complement(lb.complement(g)) == g

    @given(graph_strategy())
    @settings(max_examples=60)
    def test_complement_edge_count(self, g):
        assert g.m + lb.complement(g).m == g.n * (g.n - 1) // 2


class TestComplementComponents:
    """complement_components finds the complement's components without
    building the complement graph."""

    @staticmethod
    def expected(g):
        return lb.connected_components(lb.complement(g))

    @pytest.mark.parametrize("corpus", [named_corpus, gnp_corpus, tree_corpus,
                                        clique_union_corpus])
    def test_corpora(self, corpus):
        for label, g in corpus():
            assert lb.complement_components(g) == self.expected(g), label

    @given(graph_strategy())
    @settings(max_examples=200)
    def test_matches_the_complement_graph(self, g):
        assert lb.complement_components(g) == self.expected(g)

    def test_degenerate_graphs(self):
        assert lb.complement_components(lb.build_graph(1, [])) == [[0]]
        assert lb.complement_components(lb.build_graph(4, [])) == [
            [0, 1, 2, 3]]
        assert lb.complement_components(fam("K:4")) == [[0], [1], [2], [3]]

    @pytest.mark.parametrize("corpus", [named_corpus, gnp_corpus, tree_corpus,
                                        clique_union_corpus])
    def test_context_complement_class(self, corpus):
        for label, g in corpus():
            cls, co = lb.classify(g), lb.classify(lb.complement(g))
            assert (cls.complement_component_count,
                    cls.is_complete_multipartite) == (
                co.component_count, co.is_clique_union), label

    def test_complement_class_predicts_kf_zt_equality(self):
        # K_{a,b} and the complements of clique unions are exactly the
        # complete multipartite graphs
        graphs = [fam(f"Kab:{a}:{b}") for a in range(1, 6)
                  for b in range(a, 6) if a + b >= 2]
        graphs += [lb.complement(fam(f"CLIQUES:{sizes}"))
                   for sizes in ("1,1", "2,1", "2,2,1", "3,3", "4,2,1",
                                 "3,3,3", "5,1,1,1")]
        for g in graphs:
            assert lb.classify(g).is_complete_multipartite, g
            r = lb.evaluate_bound("KF_ZT", g)
            assert r.verdict == "EQUALITY" and r.predicted_equality, g
        for label in ("P:5", "C:7", "TREE:8:3"):
            g = fam(label)
            assert not lb.classify(g).is_complete_multipartite
            assert lb.evaluate_bound("KF_ZT", g).verdict == "HOLDS"


class TestClassify:
    def test_star(self):
        c = lb.classify(fam("S:6"))
        assert c.is_star and c.is_tree and not c.is_complete

    def test_complete(self):
        c = lb.classify(fam("K:6"))
        assert c.is_complete and c.is_clique_union and not c.is_star

    def test_k1_is_degenerate_everything(self):
        c = lb.classify(fam("K:1"))
        assert c.is_star and c.is_complete and c.is_clique_union and c.is_tree

    def test_k2_is_star_and_complete(self):
        c = lb.classify(fam("K:2"))
        assert c.is_star and c.is_complete

    def test_clique_union(self):
        c = lb.classify(fam("CLIQUES:3,2"))
        assert c.is_clique_union and c.component_count == 2
        assert not c.is_connected
        assert not lb.classify(fam("P:4")).is_clique_union

    def test_path_and_cycle_bipartiteness(self):
        assert lb.classify(fam("P:5")).is_bipartite
        assert lb.classify(fam("C:6")).is_bipartite
        assert not lb.classify(fam("C:5")).is_bipartite

    def test_balanced_complete_bipartite(self):
        assert lb.classify(fam("Kab:3:3")).is_balanced_complete_bipartite
        assert lb.classify(fam("C:4")).is_balanced_complete_bipartite
        assert not lb.classify(fam("Kab:2:3")).is_balanced_complete_bipartite
        assert not lb.classify(fam("C:6")).is_balanced_complete_bipartite

    def test_named_corpus_classes_are_consistent(self):
        for label, g in named_corpus():
            c = lb.classify(g)
            assert c.component_count == len(lb.connected_components(g))
            if label.startswith("K:"):
                assert c.is_complete
            if label.startswith("S:"):
                assert c.is_star
            if label.startswith("CLIQUES:"):
                assert c.is_clique_union
            if label.startswith("Kab:"):
                assert c.is_bipartite


class TestClassifyAgainstNetworkx:
    """classify against networkx's own recognizers on every atlas graph
    (all graphs with 1 to 7 vertices, up to isomorphism)."""

    @staticmethod
    def cliques_only(nx, G):
        return all(nx.is_isomorphic(G.subgraph(comp),
                                    nx.complete_graph(len(comp)))
                   for comp in nx.connected_components(G))

    def test_atlas(self):
        nx = pytest.importorskip("networkx")
        for i, G in enumerate(nx.graph_atlas_g()):
            n = G.number_of_nodes()
            if n == 0:
                continue
            c = lb.classify(lb.build_graph(n, G.edges()))
            co = nx.complement(G)
            balanced = n % 2 == 0 and nx.is_isomorphic(
                G, nx.complete_bipartite_graph(n // 2, n // 2))
            assert c == lb.GraphClass(
                component_count=nx.number_connected_components(G),
                is_connected=nx.is_connected(G),
                is_tree=nx.is_tree(G),
                is_star=nx.is_isomorphic(G, nx.star_graph(n - 1)),
                is_complete=nx.is_isomorphic(G, nx.complete_graph(n)),
                is_clique_union=self.cliques_only(nx, G),
                is_bipartite=nx.is_bipartite(G),
                is_balanced_complete_bipartite=balanced,
                complement_component_count=nx.number_connected_components(
                    co),
                is_complete_multipartite=self.cliques_only(nx, co),
            ), f"atlas graph {i}"


class TestEdgeListIO:
    def test_round_trip(self):
        g = fam("Kme:5")
        assert lb.parse_edge_list(lb.format_edge_list(g)) == g

    @given(graph_strategy())
    @settings(max_examples=60)
    def test_round_trip_random(self, g):
        assert lb.parse_edge_list(lb.format_edge_list(g)) == g

    def test_comments_and_blanks_ignored(self):
        text = "# graph\n\n3 2\n0 1\n# middle\n1 2\n"
        g = lb.parse_edge_list(text)
        assert g.n == 3 and g.m == 2

    def test_header_errors(self):
        with pytest.raises(ParseError):
            lb.parse_edge_list("")
        with pytest.raises(ParseError):
            lb.parse_edge_list("3\n")
        with pytest.raises(ParseError):
            lb.parse_edge_list("a b\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            lb.parse_edge_list("3 2\n0 1\n")
        with pytest.raises(ParseError):
            lb.parse_edge_list("3 1\n0 1\n1 2\n")

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ParseError):
            lb.parse_edge_list("3 2\n0 1\n1 0\n")

    def test_bad_edges_become_parse_errors(self):
        with pytest.raises(ParseError):
            lb.parse_edge_list("3 1\n1 1\n")
        with pytest.raises(ParseError):
            lb.parse_edge_list("3 1\n0 7\n")
        with pytest.raises(ParseError):
            lb.parse_edge_list("3 1\n0 x\n")
