"""Family generators, the DSL parser and the seeded RNG primitives."""
import itertools
import math
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lapbounds as lb
from lapbounds import ParseError, RetryExhaustedError, families, spectra
from lapbounds.rng import SplitMix64, splitmix64
from jacobi_oracle import ORACLE


def fam(text):
    return lb.generate(lb.parse_family(text)[0])


class TestSplitMix:
    def test_indexed_stream_matches_sequential(self):
        seq = SplitMix64(123)
        assert [seq.next_u64() for _ in range(5)] == \
            [splitmix64(123, i) for i in range(5)]

    def test_reference_values(self):
        # published splitmix64 test vector for seed 1234567
        seq = SplitMix64(1234567)
        assert seq.next_u64() == 6457827717110365317
        assert seq.next_u64() == 3203168211198807973

    def test_below_is_in_range_and_deterministic(self):
        rng = SplitMix64(9)
        vals = [rng.below(7) for _ in range(200)]
        assert all(0 <= v < 7 for v in vals)
        rng2 = SplitMix64(9)
        assert vals == [rng2.below(7) for _ in range(200)]

    def test_below_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)

    def test_uniform_in_unit_interval(self):
        rng = SplitMix64(4)
        assert all(0.0 <= rng.uniform() < 1.0 for _ in range(200))

    def test_randrange_inclusive(self):
        rng = SplitMix64(5)
        vals = {rng.randrange(4, 6) for _ in range(200)}
        assert vals == {4, 5, 6}

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
    @pytest.mark.parametrize("k", [0, 1, 2, 7, 2016])
    def test_uniforms_block_equals_successive_uniforms(self, seed, k):
        # the compiled coin block of the smallest G(n, p) attempt with at
        # least k pairs keeps pair i exactly when the i-th uniform() is below
        # p; p at and just above drawn values flips a coin on its last bit;
        # so does the oracle's, which tests put in the library's place
        n = next(n for n in itertools.count(1) if n * (n - 1) // 2 >= k)
        width = (n + 7) // 8
        seq = SplitMix64(seed)
        draws = [seq.uniform() for _ in range(n * (n - 1) // 2)]
        after = seq.next_u64()
        for p in {0.5, 1.0, *draws[:3],
                  *(math.nextafter(d, 1.0) for d in draws[:3])}:
            want = array("B", bytes(n * width))
            pairs = itertools.combinations(range(n), 2)
            for (u, v), draw in zip(pairs, draws):
                if draw < p:
                    want[u * width + v // 8] |= 1 << v % 8
                    want[v * width + u // 8] |= 1 << u % 8
            for lib in (spectra._library(), ORACLE):
                block = SplitMix64(seed)
                rows = array("B", b"\xff" * (n * width))
                lib.gnp_rows(block.skip(len(draws)), n, p,
                             rows.buffer_info()[0])
                assert rows == want, (p, lib)
                assert block.next_u64() == after

    def test_skip_returns_the_state_and_moves_past_the_block(self):
        rng, seq = SplitMix64(99), SplitMix64(99)
        state = rng.skip(5)
        assert SplitMix64(state).next_u64() == seq.next_u64()
        for _ in range(4):
            seq.next_u64()
        assert rng.next_u64() == seq.next_u64()


class TestNamedFamilies:
    def test_complete(self):
        g = fam("K:5")
        assert g.n == 5 and g.m == 10
        assert lb.degree_sequence(g) == (4,) * 5

    def test_star(self):
        g = fam("S:7")
        assert lb.degree_sequence(g) == (6,) + (1,) * 6

    def test_complete_minus_edge(self):
        g = fam("Kme:4")
        assert g.m == 5
        assert lb.degree_sequence(g) == (3, 3, 2, 2)

    def test_kme_2_is_empty_pair(self):
        g = fam("Kme:2")
        assert g.n == 2 and g.m == 0

    def test_complete_bipartite(self):
        g = fam("Kab:2:3")
        assert g.n == 5 and g.m == 6
        assert lb.classify(g).is_bipartite
        assert lb.degree_sequence(g) == (3, 3, 2, 2, 2)

    def test_path_and_cycle(self):
        assert fam("P:6").m == 5
        g = fam("C:6")
        assert g.m == 6 and lb.degree_sequence(g) == (2,) * 6

    def test_clique_union(self):
        g = fam("CLIQUES:4,3,1")
        assert g.n == 8 and g.m == 6 + 3
        assert len(lb.connected_components(g)) == 3


    @pytest.mark.parametrize("label", [f"K:{n}" for n in (1, 2, 3, 9, 64)]
                             + [f"Kme:{n}" for n in (2, 3, 9, 64)]
                             + ["CLIQUES:3,2,1", "CLIQUES:1,5,4"])
    def test_clique_edges_unchanged(self, label):
        def index_pairs(vs):  # the index-loop form of the pairs of vs
            return [(vs[i], vs[j]) for i in range(len(vs))
                    for j in range(i + 1, len(vs))]

        spec = lb.parse_family(label)[0]
        if spec.kind == "clique_union":
            starts = itertools.accumulate(spec.sizes, initial=0)
            edges = [e for s, a in zip(spec.sizes, starts)
                     for e in index_pairs(range(a, a + s))]
        else:
            edges = index_pairs(range(spec.n))
            edges = edges[:-1] if spec.kind == "complete_minus_edge" else edges
        assert lb.generate(spec).edges == tuple(edges)


def _direct_construction_labels(kind):
    """Specs of one kind over n = 1..12 and at n = 64 (C from 3, Kme from 2,
    Kab with a, b <= 6, G(n, p) at p = 0.1, 0.5 and 1.0)."""
    ns = [*range(1, 13), 64]
    if kind in ("K", "S", "P"):
        return [f"{kind}:{n}" for n in ns]
    if kind in ("C", "Kme"):
        return [f"{kind}:{n}" for n in ns if n >= {"C": 3, "Kme": 2}[kind]]
    if kind == "Kab":
        return [f"Kab:{a}:{b}" for a in range(1, 7) for b in range(1, 7)] + [
            "Kab:1:63", "Kab:32:32"]
    if kind == "TREE":
        return [f"TREE:{n}:{n + 5}" for n in ns]
    if kind == "GNP":
        return [f"GNP:{n}:{p}:{n}" for n in ns for p in (0.1, 0.5, 1.0)]
    return ["CLIQUES:" + ",".join(map(str, sizes)) for sizes in (
        (1,), (2,), (1, 1), (1, 1, 1), (1, 2), (2, 1), (3, 1, 2), (1, 4, 1),
        (5, 1, 1, 5), (1,) * 12, (6, 6), (12,), (1,) * 64, (32, 1, 31),
        (8,) * 8)]


class TestDirectConstruction:
    """Every generator but random_tree builds Graph(n, masks) by bit
    arithmetic, with no checks, so each graph it constructs, every rejected
    G(n, p) draw included, must equal what build_graph makes of its edges."""

    @pytest.mark.parametrize("kind", ["K", "S", "Kme", "Kab", "P", "C",
                                      "TREE", "GNP", "CLIQUES"])
    def test_equals_the_checked_build(self, kind, monkeypatch):
        constructed = []
        original_init = lb.Graph.__init__

        def recording(g, *args, **kwargs):
            original_init(g, *args, **kwargs)
            constructed.append(g)

        for label in _direct_construction_labels(kind):
            monkeypatch.setattr(lb.Graph, "__init__", recording)
            g = fam(label)
            monkeypatch.undo()
            assert constructed[-1] is g, label
            for h in constructed:
                assert h == lb.build_graph(h.n, h.edges), label
                assert {type(x) for e in h.edges for x in e} <= {int}, label
            constructed.clear()
            assert g.n == lb.parse_family(label)[0].order, label


def _coin_by_coin_gnp(n, p, seed):
    """G(n, p) drawn one uniform() per pair, and the attempts it took; the
    graph is None when every attempt was disconnected."""
    rng = SplitMix64(seed)
    for attempt in range(1, families.GNP_RETRY_CAP + 1):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.uniform() < p]
        g = lb.build_graph(n, edges)
        if len(g.components) == 1:
            return g, attempt
    return None, families.GNP_RETRY_CAP


class TestRandomFamilies:
    def test_tree_is_a_tree_and_deterministic(self):
        g1 = fam("TREE:12:42")
        g2 = fam("TREE:12:42")
        assert g1 == g2
        assert g1.m == 11
        assert len(lb.connected_components(g1)) == 1
        assert fam("TREE:12:43") != g1

    def test_tree_tiny_sizes(self):
        assert fam("TREE:1:0").n == 1
        assert fam("TREE:2:0").m == 1
        assert fam("TREE:3:5").m == 2
        # the empty Prufer sequence decodes to the one edge at every seed
        assert {lb.random_tree(2, seed) for seed in range(50)} == {
            lb.build_graph(2, [(0, 1)])}

    def test_random_families_reject_n_below_1(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            lb.random_tree(0, 1)
        with pytest.raises(ValueError, match="n must be >= 1"):
            lb.gnp_connected(0, 0.5, 1)

    @given(st.integers(min_value=3, max_value=40),
           st.integers(min_value=0, max_value=2 ** 63))
    @settings(max_examples=60)
    def test_random_tree_always_spanning(self, n, seed):
        g = lb.random_tree(n, seed)
        assert g.n == n and g.m == n - 1
        assert len(lb.connected_components(g)) == 1

    def test_trees_hit_multiple_shapes(self):
        shapes = {lb.degree_sequence(lb.random_tree(5, s)) for s in range(60)}
        # paths, stars and brooms all occur among labeled trees on 5 vertices
        assert (2, 2, 2, 1, 1) in shapes
        assert (4, 1, 1, 1, 1) in shapes
        assert len(shapes) == 3

    def test_gnp_connected_and_deterministic(self):
        g1 = fam("GNP:10:0.5:7")
        assert g1 == fam("GNP:10:0.5:7")
        assert len(lb.connected_components(g1)) == 1

    def test_gnp_p_one_is_complete(self):
        g = fam("GNP:6:1.0:3")
        assert g.m == 15

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 24, 47, 64])
    @pytest.mark.parametrize("p", [0.05, 0.15, 0.5, 0.9, 1.0])
    def test_gnp_equals_coin_by_coin_draws(self, n, p):
        for seed in (0, 7, 2 ** 64 - 1):
            want, _ = _coin_by_coin_gnp(n, p, seed)
            if want is None:
                with pytest.raises(RetryExhaustedError):
                    lb.gnp_connected(n, p, seed)
            else:
                assert lb.gnp_connected(n, p, seed) == want, seed

    def test_gnp_same_with_and_without_the_library(self, monkeypatch):
        # a cap of 8 attempts keeps the coin-by-coin oracle quick, and
        # makes p = 1e-3 exhaust its retries at every n > 2
        monkeypatch.setattr(families, "GNP_RETRY_CAP", 8)
        compiled, coin_by_coin = [], []
        for n, p, seed in itertools.product(range(1, 65),
                                            [1e-3, 0.1, 0.5, 1.0],
                                            [0, 7, 2 ** 64 - 1]):
            try:
                compiled.append(lb.gnp_connected(n, p, seed))
            except RetryExhaustedError:
                compiled.append(None)
            coin_by_coin.append(_coin_by_coin_gnp(n, p, seed)[0])
        assert compiled == coin_by_coin
        assert 0 < compiled.count(None) < len(compiled)

    def test_gnp_stream_continues_across_rejected_attempts(self):
        attempts = []
        for seed in range(8):
            want, tries = _coin_by_coin_gnp(12, 0.15, seed)
            assert lb.gnp_connected(12, 0.15, seed) == want, seed
            attempts.append(tries)
        assert min(attempts) > 1 and max(attempts) > 20

    def test_gnp_retry_exhaustion(self):
        with pytest.raises(RetryExhaustedError):
            lb.gnp_connected(24, 0.001, 5)

    def test_gnp_validates_p(self):
        with pytest.raises(ValueError):
            lb.gnp_connected(5, 0.0, 1)
        with pytest.raises(ValueError):
            lb.gnp_connected(5, 1.5, 1)


class TestGenerate:
    @pytest.mark.parametrize("spec, why", [
        (lb.FamilySpec("nope"), "unknown family kind 'nope'"),
        (lb.FamilySpec("complete"), "complete needs n$"),
        (lb.FamilySpec("cycle", n=2), "cycle needs n >= 3, got 2")])
    def test_rejects_an_illegal_spec(self, spec, why):
        with pytest.raises(ValueError, match=why):
            lb.generate(spec)


class TestParseFamily:
    def test_singletons(self):
        spec = lb.parse_family("K:4")[0]
        assert spec.kind == "complete" and spec.n == 4
        assert spec.label() == "K:4"

    def test_all_labels_round_trip(self):
        for text in ["K:4", "S:9", "Kme:5", "Kab:2:3", "P:7", "C:5",
                     "TREE:6:11", "GNP:8:0.5:3", "CLIQUES:3,2,1"]:
            specs = lb.parse_family(text)
            assert len(specs) == 1
            assert specs[0].label() == text
            lb.generate(specs[0])

    def test_range_expansion(self):
        specs = lb.parse_family("S:3..6", allow_range=True)
        assert [s.label() for s in specs] == ["S:3", "S:4", "S:5", "S:6"]

    def test_range_in_seeded_families(self):
        specs = lb.parse_family("TREE:4..6:9", allow_range=True)
        assert [s.label() for s in specs] == \
            ["TREE:4:9", "TREE:5:9", "TREE:6:9"]
        specs = lb.parse_family("GNP:5..7:0.5:1", allow_range=True)
        assert [s.n for s in specs] == [5, 6, 7]

    def test_iter_family_expands_lazily_and_checks_eagerly(self):
        specs = lb.iter_family("K:3..100000000", allow_range=True)
        assert [s.label() for s in itertools.islice(specs, 3)] == \
            ["K:3", "K:4", "K:5"]
        # errors come from the call itself, before any spec is drawn
        with pytest.raises(ParseError):
            lb.iter_family("C:2..100000000", allow_range=True)
        with pytest.raises(ParseError):
            lb.iter_family("GNP:5..100000000:1.5:1", allow_range=True)

    def test_range_rejected_without_flag(self):
        with pytest.raises(ParseError):
            lb.parse_family("S:3..6")

    def test_empty_range_rejected(self):
        with pytest.raises(ParseError):
            lb.parse_family("S:6..3", allow_range=True)

    def test_range_not_allowed_outside_n_slot(self):
        with pytest.raises(ParseError):
            lb.parse_family("Kab:2..4:3", allow_range=True)

    @pytest.mark.parametrize("bad", [
        "K", "K:", "K:0", "K:x", "S:-2", "Kme:1", "C:2", "Kab:3",
        "Kab:0:2", "TREE:5", "GNP:5:0:1", "GNP:5:1.5:1", "GNP:5:0.5",
        "CLIQUES:", "CLIQUES:3,0", "Z:4", "TREE:0:5", "GNP:0:0.5:1",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            lb.parse_family(bad)

    def test_parse_error_carries_position(self):
        # the offset of the token at fault, not the first match of its text
        for text, position in [("GNP:5:1.5:1", len("GNP:5:")),
                               ("GNP:5:5:1", len("GNP:5:"))]:
            with pytest.raises(ParseError) as exc_info:
                lb.parse_family(text)
            assert exc_info.value.position == position

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_kind_round_trips_through_its_label(self, data):
        name = data.draw(st.sampled_from(sorted(families._KIND_TABLE)))
        kind = families._KIND_TABLE[name]
        field_values = {
            "n": st.integers(min_value=kind.min_size, max_value=10),
            "a": st.integers(min_value=1, max_value=6),
            "b": st.integers(min_value=1, max_value=6),
            "p": st.floats(min_value=0.3, max_value=1.0),
            "seed": st.integers(min_value=0, max_value=2 ** 64 - 1),
            "sizes": st.lists(st.integers(min_value=1, max_value=5),
                              min_size=1, max_size=4).map(tuple),
        }
        spec = lb.FamilySpec(name, **{field: data.draw(field_values[field])
                                      for field in kind.fields})
        assert lb.parse_family(spec.label()) == [spec]
        lb.generate(spec)


class TestKindTableDocs:
    HEADS = [kind.head for kind in families._KIND_TABLE.values()]

    def test_readme_table_matches_kind_table(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("The family DSL accepted by", 1)[1]
        section = section.split("\n\n", 2)[1]
        listed = [line.split("`")[1].split(":")[0]
                  for line in section.splitlines() if line.startswith("| `")]
        assert listed == self.HEADS

    def test_docstring_grammar_matches_kind_table(self):
        grammar = families.__doc__.split("\n\n")[2]
        listed = [line.split(":")[0].strip() for line in grammar.splitlines()]
        assert listed == self.HEADS
