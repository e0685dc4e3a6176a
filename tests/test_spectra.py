"""Eigensolver, spectral invariants and spanning-tree counts.

The Jacobi route is cross-checked against numpy.linalg.eigvalsh and, on a few
small graphs, against exact symbolic eigenvalues. Spanning-tree counts are
cross-checked against brute-force enumeration and the spectral product.
"""
import math
import warnings
from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import lapbounds as lb
from lapbounds import (DisconnectedGraphError, JacobiConvergenceError,
                       NoNonzeroEigenvaluesError, SpectralInconsistencyError,
                       spectra)
from lapbounds.spectra import _round_robin, jacobi_eigenvalues
from conftest import (clique_union_corpus, gnp_corpus, graph_strategy,
                      named_corpus, tree_corpus)


def fam(text):
    return lb.generate(lb.parse_family(text)[0])


def eigvalsh_oracle(g):
    vals = np.linalg.eigvalsh(np.asarray(lb.laplacian(g), dtype=float))
    return sorted(float(v) for v in vals)


def sympy_oracle(g):
    M = sympy.Matrix(lb.laplacian(g).tolist())
    out = []
    for val, mult in M.eigenvals().items():
        out.extend([float(val)] * mult)
    return sorted(out)


def brute_force_spanning_trees(g):
    if g.n == 1:
        return 1
    count = 0
    for subset in combinations(g.edges, g.n - 1):
        h = lb.build_graph(g.n, subset)
        if len(lb.connected_components(h)) == 1:
            count += 1
    return count


class TestJacobi:
    def test_diagonal_passthrough(self):
        a = np.diag([3.0, -1.0, 2.0])
        assert sorted(jacobi_eigenvalues(a)) == [-1.0, 2.0, 3.0]

    def test_one_by_one_and_zero(self):
        assert jacobi_eigenvalues(np.array([[5.0]]))[0] == 5.0
        assert list(jacobi_eigenvalues(np.zeros((4, 4)))) == [0.0] * 4

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.zeros((2, 3)))

    def test_two_by_two_exact(self):
        # eigenvalues of [[2, 1], [1, 2]] are 1 and 3
        vals = sorted(jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert abs(vals[0] - 1.0) < 1e-12 and abs(vals[1] - 3.0) < 1e-12

    def test_matches_numpy_on_random_symmetric(self):
        rs = np.random.RandomState(987)
        for _ in range(30):
            n = rs.randint(1, 13)
            a = rs.randn(n, n) * 10.0
            a = (a + a.T) / 2.0
            ours = sorted(jacobi_eigenvalues(a))
            ref = sorted(np.linalg.eigvalsh(a))
            scale = max(1.0, max(abs(v) for v in ref))
            assert all(abs(x - y) <= 1e-9 * scale for x, y in zip(ours, ref))

    @given(graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_on_laplacians(self, g):
        ours = sorted(float(v) for v in jacobi_eigenvalues(lb.laplacian(g)))
        ref = eigvalsh_oracle(g)
        scale = max(1.0, ref[-1])
        assert all(abs(x - y) <= 1e-9 * scale for x, y in zip(ours, ref))

    def test_matches_symbolic_exactly(self):
        for label in ["P:4", "C:5", "Kme:4", "S:6", "Kab:2:3"]:
            g = fam(label)
            ours = sorted(float(v) for v in jacobi_eigenvalues(lb.laplacian(g)))
            ref = sympy_oracle(g)
            assert all(abs(x - y) <= 1e-10 for x, y in zip(ours, ref))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 64, 65])
    def test_schedule_meets_every_pair_once(self, n):
        pq = _round_robin(n)[0]
        k = n // 2
        assert pq.shape == (n - 1 + n % 2, 2 * k)
        P, Q = pq[:, :k], pq[:, k:]
        assert (P < Q).all()
        assert sorted(zip(P.flat, Q.flat)) == list(combinations(range(n), 2))
        assert all(len(set(row)) == 2 * k for row in pq)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_small_odd_and_even_sizes(self, n):
        rs = np.random.RandomState(n)
        a = rs.randn(n, n)
        a = a + a.T
        ours = sorted(jacobi_eigenvalues(a))
        ref = sorted(np.linalg.eigvalsh(a))
        scale = max(1.0, max(abs(v) for v in ref))
        assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(ours, ref))

    @pytest.mark.parametrize("tiny", [0.0, 5e-324])
    @pytest.mark.parametrize("n", [3, 4])
    def test_zero_and_denormal_off_diagonals_warn_nothing(self, n, tiny):
        # tiny entries on pairs with unequal diagonals, where tau would
        # overflow, while large entries keep the sweeps going
        a = np.array([[1.0, tiny, 1.0, tiny],
                      [tiny, 2.0, tiny, 0.5],
                      [1.0, tiny, 3.0, tiny],
                      [tiny, 0.5, tiny, 3.0]])[:n, :n]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = sorted(jacobi_eigenvalues(a))
        ref = sorted(np.linalg.eigvalsh(a))
        assert all(abs(x - y) <= 1e-12 * 4.0 for x, y in zip(ours, ref))

    @pytest.mark.parametrize("label", ["GNP:64:0.5:1", "K:64", "S:40"])
    def test_large_laplacians_match_numpy(self, label):
        g = fam(label)
        ours = sorted(float(v) for v in jacobi_eigenvalues(lb.laplacian(g)))
        ref = eigvalsh_oracle(g)
        scale = max(1.0, ref[-1])
        assert all(abs(x - y) <= 1e-9 * scale for x, y in zip(ours, ref))

    @pytest.mark.parametrize("label", ["GNP:33:0.5:1", "GNP:64:0.3:2", "S:40"])
    def test_trace_preserved(self, label):
        a = np.asarray(lb.laplacian(fam(label)), dtype=float)
        vals = jacobi_eigenvalues(a)
        assert abs(vals.sum() - np.trace(a)) <= 1e-12 * np.linalg.norm(a)

    def test_convergence_error_after_max_sweeps(self, monkeypatch):
        monkeypatch.setattr(spectra, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(JacobiConvergenceError):
            jacobi_eigenvalues(lb.laplacian(fam("GNP:12:0.5:1")))


class TestJacobiDeterminism:
    def test_repeated_calls_are_bit_identical(self):
        for label in ["GNP:12:0.5:1", "GNP:33:0.5:3", "S:9"]:
            L = lb.laplacian(fam(label))
            first = jacobi_eigenvalues(L).tobytes()
            assert all(jacobi_eigenvalues(L).tobytes() == first
                       for _ in range(3)), label

    def test_other_sizes_in_between_change_no_bits(self):
        a5 = lb.laplacian(fam("GNP:5:0.7:1"))
        a6 = lb.laplacian(fam("GNP:6:0.7:1"))
        before = jacobi_eigenvalues(a5).tobytes()
        jacobi_eigenvalues(a6)
        assert jacobi_eigenvalues(a5).tobytes() == before


def _stack_member(kind, n, seed):
    """Laplacian of one graph of a stack mix at vertex count n."""
    if kind == "gnp":
        g = lb.gnp_connected(n, 0.5, seed)
    elif kind == "tree":
        g = lb.random_tree(n, seed)
    elif kind == "star":
        g = fam(f"S:{n}")
    elif kind == "edgeless":
        g = lb.build_graph(n, [])
    else:
        sizes, rest = [], n
        while rest:
            sizes.append(min(rest, 1 + (seed + len(sizes)) % 5))
            rest -= sizes[-1]
        g = lb.generate(lb.FamilySpec(kind="clique_union", sizes=tuple(sizes)))
    return lb.laplacian(g)


@st.composite
def stack_mix(draw):
    """Laplacians of one n from every kind, and an order to stack them in."""
    n = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 12, 17, 24, 40]))
    members = draw(st.lists(
        st.tuples(st.sampled_from(["gnp", "tree", "star", "edgeless",
                                   "clique_union"]),
                  st.integers(min_value=0, max_value=2 ** 32)),
        min_size=1, max_size=6))
    mats = [_stack_member(kind, n, seed) for kind, seed in members]
    return mats, draw(st.permutations(range(len(mats))))


class TestJacobiStack:
    """A (B, n, n) stack gives each matrix the bits it gets alone."""

    @given(stack_mix())
    @settings(max_examples=40, deadline=None)
    def test_stacked_bits_equal_alone(self, mix):
        mats, order = mix
        stacked = jacobi_eigenvalues(np.stack([mats[i] for i in order]))
        assert stacked.shape == (len(mats), mats[0].shape[0])
        for row, i in zip(stacked, order):
            alone = jacobi_eigenvalues(mats[i])
            assert (row.view(np.int64) == alone.view(np.int64)).all()

    def test_spectra_of_matches_spectrum(self):
        graphs = [g for _, g in named_corpus() + gnp_corpus()[:60]
                  + tree_corpus()[:40] + clique_union_corpus()[:20]]
        groups = {}
        for g in graphs:
            groups.setdefault(g.n, []).append(g)
        for group in groups.values():
            assert lb.spectra_of(group) == [lb.spectrum(g) for g in group]
        assert lb.spectra_of([]) == []

    def test_spectra_of_solves_one_stack_of_one_n(self, monkeypatch):
        graphs = [fam("S:6"), fam("P:6"), fam("K:6")]
        alone = [lb.spectrum(g) for g in graphs]
        shapes = []
        original = spectra.jacobi_eigenvalues

        def counting(matrix):
            shapes.append(np.shape(matrix))
            return original(matrix)

        monkeypatch.setattr(spectra, "jacobi_eigenvalues", counting)
        assert lb.spectra_of(graphs) == alone
        assert shapes == [(3, 6, 6)]
        with pytest.raises(ValueError, match="one vertex count"):
            lb.spectra_of([fam("S:6"), fam("S:7")])

    def test_one_by_one_stack(self):
        stack = np.array([[[5.0]], [[0.0]], [[-2.5]]])
        assert jacobi_eigenvalues(stack).tolist() == [[5.0], [0.0], [-2.5]]
        spec, = lb.spectra_of([fam("K:1")])
        assert spec.mu == (0.0,) and spec.component_count == 1

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3,), (2, 2, 2, 2), ()])
    def test_rejects_non_square_stack(self, shape):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.zeros(shape))

    def test_convergence_error_on_a_stack(self, monkeypatch):
        monkeypatch.setattr(spectra, "JACOBI_MAX_SWEEPS", 1)
        stack = np.stack([np.zeros((12, 12)),
                          lb.laplacian(fam("GNP:12:0.5:1")),
                          np.diag(np.arange(12.0))])
        with pytest.raises(JacobiConvergenceError):
            jacobi_eigenvalues(stack)


class TestSpectrum:
    def test_star_spectrum(self):
        spec = lb.spectrum(fam("S:6"))
        assert spec.h == 5 and spec.component_count == 1
        expected = (6.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(spec.mu, expected))

    def test_complete_spectrum(self):
        spec = lb.spectrum(fam("K:5"))
        assert all(abs(v - 5.0) <= 1e-9 for v in spec.mu[:4])
        assert spec.mu[4] == 0.0

    def test_cycle_four_spectrum(self):
        spec = lb.spectrum(fam("C:4"))
        expected = (4.0, 2.0, 2.0, 0.0)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(spec.mu, expected))

    def test_disconnected_zero_multiplicity(self):
        spec = lb.spectrum(fam("CLIQUES:3,2"))
        assert spec.component_count == 2 and spec.h == 3
        assert spec.mu[3] == 0.0 and spec.mu[4] == 0.0
        expected = (3.0, 3.0, 2.0)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(spec.mu[:3], expected))

    def test_empty_graph(self):
        spec = lb.spectrum(lb.build_graph(4, []))
        assert spec.mu == (0.0,) * 4 and spec.h == 0

    def test_values_are_plain_floats(self):
        spec = lb.spectrum(fam("P:5"))
        assert all(type(v) is float for v in spec.mu)

    @given(graph_strategy())
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, g):
        spec = lb.spectrum(g)
        cc = len(lb.connected_components(g))
        assert spec.component_count == cc
        assert spec.h == g.n - cc
        assert sum(1 for v in spec.mu if v == 0.0) == cc
        assert abs(sum(spec.mu) - 2.0 * g.m) <= 1e-9 * max(1.0, 2.0 * g.m)
        assert all(spec.mu[i] >= spec.mu[i + 1] for i in range(g.n - 1))
        assert all(v <= g.n + 1e-9 for v in spec.mu)
        if cc == 1 and g.n >= 2:
            d1 = lb.degree_sequence(g)[0]
            assert spec.mu[0] >= d1 + 1 - 1e-9


class TestSumInvariants:
    def test_s_alpha_star(self):
        spec = lb.spectrum(fam("S:4"))
        assert abs(lb.s_alpha(spec, 2.0) - 18.0) <= 1e-7
        assert abs(lb.s_alpha(spec, -1.0) - 2.25) <= 1e-9
        assert abs(lb.s_alpha(spec, 0.5) - 4.0) <= 1e-9
        assert lb.s_alpha(spec, 0.0) == 3.0

    def test_s_alpha_skips_structural_zeros(self):
        spec = lb.spectrum(fam("CLIQUES:3,2"))
        # only the three non-zero eigenvalues 3, 3, 2 contribute
        assert abs(lb.s_alpha(spec, -1.0) - (1 / 3 + 1 / 3 + 1 / 2)) <= 1e-9
        assert lb.s_alpha(spec, 0.0) == 3.0

    def test_s_alpha_empty_spectrum(self):
        spec = lb.spectrum(lb.build_graph(3, []))
        assert lb.s_alpha(spec, 2.0) == 0.0
        with pytest.raises(NoNonzeroEigenvaluesError):
            lb.s_alpha(spec, 0.0)
        with pytest.raises(NoNonzeroEigenvaluesError):
            lb.s_alpha(spec, -1.0)

    def test_s_alpha_rejects_non_finite(self):
        spec = lb.spectrum(fam("K:3"))
        with pytest.raises(ValueError):
            lb.s_alpha(spec, float("nan"))

    def test_moments(self):
        g = fam("Kme:5")
        spec = lb.spectrum(g)
        assert lb.moment(spec, 0) == 5.0
        assert abs(lb.moment(spec, 1) - 2.0 * g.m) <= 1e-9 * g.m
        t2 = lb.first_zagreb(g) + 2.0 * g.m
        assert abs(lb.moment(spec, 2) - t2) <= 1e-7 * t2
        with pytest.raises(ValueError):
            lb.moment(spec, -1)
        with pytest.raises(ValueError):
            lb.moment(spec, 1.5)

    @given(graph_strategy())
    @settings(max_examples=40, deadline=None)
    def test_second_moment_equals_zagreb_plus_degrees(self, g):
        spec = lb.spectrum(g)
        t2 = lb.first_zagreb(g) + 2.0 * g.m
        assert abs(lb.moment(spec, 2) - t2) <= 1e-7 * max(1.0, t2)


class TestKirchhoff:
    def test_known_values(self):
        assert abs(lb.kirchhoff(lb.spectrum(fam("K:3"))) - 2.0) <= 1e-9
        assert abs(lb.kirchhoff(lb.spectrum(fam("S:4"))) - 9.0) <= 1e-8
        assert abs(lb.kirchhoff(lb.spectrum(fam("K:4"))) - 3.0) <= 1e-9
        assert abs(lb.kirchhoff(lb.spectrum(fam("C:4"))) - 5.0) <= 1e-9
        assert abs(lb.kirchhoff(lb.spectrum(fam("P:4"))) - 10.0) <= 1e-8

    def test_single_vertex(self):
        assert lb.kirchhoff(lb.spectrum(fam("K:1"))) == 0.0

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            lb.kirchhoff(lb.spectrum(fam("CLIQUES:3,2")))


class TestComplementSpectrum:
    """mu_i(complement) = n - mu_{n-i}(G) against a direct solve."""

    def test_matches_direct_solve(self):
        disconnected = set()
        for corpus in (named_corpus, gnp_corpus, tree_corpus,
                       clique_union_corpus):
            for label, g in corpus():
                cg = lb.complement(g)
                direct = lb.spectrum(cg)
                derived = lb.complement_spectrum(
                    lb.spectrum(g), g.m, len(lb.connected_components(cg)))
                assert derived.h == direct.h, label
                assert derived.component_count == direct.component_count, label
                zeros = derived.mu[derived.h:]
                assert zeros == (0.0,) * derived.component_count, label
                for a, b in zip(derived.mu[:derived.h], direct.mu[:direct.h]):
                    assert abs(a - b) <= 1e-12 * g.n, (label, a, b)
                if direct.component_count > 1:
                    disconnected.add(label)
        # complete graphs, complete bipartite graphs and stars have
        # disconnected complements, so their zeros come from the count
        assert {"K:2", "K:7", "Kab:2:3", "Kab:3:3", "S:6"} <= disconnected

    def test_single_vertex(self):
        spec = lb.complement_spectrum(lb.spectrum(fam("K:1")), 0, 1)
        assert spec.mu == (0.0,) and spec.h == 0

    @pytest.mark.parametrize("label, m, cc, message", [
        # K_4's complement is edgeless: its three values n - 4 are zeros
        ("K:4", 6, 1, "too small for a non-zero eigenvalue"),
        # P_4's complement is P_4: one component, not three
        ("P:4", 3, 3, "should be a structural zero"),
        # P_4 has 3 edges, so its complement has 3, not 4
        ("P:4", 2, 1, "does not match 2m"),
    ])
    def test_inconsistent_inputs_raise(self, label, m, cc, message):
        with pytest.raises(SpectralInconsistencyError, match=message):
            lb.complement_spectrum(lb.spectrum(fam(label)), m, cc)


class TestLee:
    def test_known_values(self):
        assert lb.lee(lb.spectrum(fam("K:1"))) == 1.0
        spec = lb.spectrum(fam("K:2"))
        assert abs(lb.lee(spec) - (math.exp(2) + 1.0)) <= 1e-9
        spec = lb.spectrum(fam("S:4"))
        expected = math.exp(4) + 2.0 * math.e + 1.0
        assert abs(lb.lee(spec) - expected) <= 1e-9

    def test_series_identity(self):
        # against the power-sum series: n + sum_k s_k / k!
        for label, g in named_corpus():
            spec = lb.spectrum(g)
            series = float(g.n)
            fact = 1.0
            for k in range(1, 81):
                fact *= k
                series += lb.s_alpha(spec, float(k)) / fact
            direct = lb.lee(spec)
            assert abs(direct - series) <= 1e-9 * max(1.0, direct), label


class TestSpanningTrees:
    def test_known_counts(self):
        assert lb.spanning_trees_exact(fam("K:4")) == 16
        assert lb.spanning_trees_exact(fam("K:5")) == 125
        assert lb.spanning_trees_exact(fam("C:4")) == 4
        assert lb.spanning_trees_exact(fam("C:7")) == 7
        assert lb.spanning_trees_exact(fam("K:1")) == 1
        assert lb.spanning_trees_exact(fam("P:9")) == 1

    def test_disconnected_is_zero(self):
        for g in (fam("CLIQUES:3,2"), lb.build_graph(2, []),
                  lb.build_graph(3, []), lb.build_graph(4, [])):
            assert lb.spanning_trees_exact(g) == 0
            assert brute_force_spanning_trees(g) == 0

    def test_cayley_formula_exactly(self):
        for n in range(2, 10):
            assert lb.spanning_trees_exact(fam(f"K:{n}")) == n ** (n - 2)

    def test_complete_bipartite_count(self):
        # t(K_{a,b}) = a^(b-1) * b^(a-1)
        assert lb.spanning_trees_exact(fam("Kab:2:3")) == 2 ** 2 * 3 ** 1
        assert lb.spanning_trees_exact(fam("Kab:3:3")) == 3 ** 2 * 3 ** 2
        assert lb.spanning_trees_exact(fam("Kab:2:2")) == 4

    def test_matches_brute_force(self):
        for label, g in list(gnp_corpus())[:25]:
            if g.n <= 7:
                assert lb.spanning_trees_exact(g) == \
                    brute_force_spanning_trees(g), label

    @given(graph_strategy(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_random(self, g):
        assert lb.spanning_trees_exact(g) == brute_force_spanning_trees(g)

    def test_spectral_cross_check(self):
        for label, g in named_corpus():
            spec = lb.spectrum(g)
            if spec.component_count != 1:
                with pytest.raises(DisconnectedGraphError):
                    lb.spanning_trees_spectral(spec)
                continue
            exact = lb.spanning_trees_exact(g)
            approx = lb.spanning_trees_spectral(spec)
            assert abs(approx - exact) <= 1e-6 * max(1.0, exact), label


class TestLogSpanningTrees:
    """The catalog's tree count: log t from the spectrum, never Bareiss."""

    @staticmethod
    def close(value, expected):
        return abs(value - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_matches_exact_count_on_corpora(self):
        for label, g in named_corpus() + gnp_corpus() + tree_corpus():
            spec = lb.spectrum(g)
            if spec.component_count != 1:
                continue
            exact = math.log(lb.spanning_trees_exact(g))
            assert self.close(lb.log_spanning_trees(spec), exact), label

    def test_cayley_formula(self):
        for n in range(3, 65):
            value = lb.log_spanning_trees(lb.spectrum(fam(f"K:{n}")))
            assert self.close(value, (n - 2) * math.log(n)), n

    def test_complete_bipartite(self):
        # t(K_{a,b}) = a^(b-1) * b^(a-1)
        for a in range(1, 9):
            for b in range(a, 9):
                value = lb.log_spanning_trees(lb.spectrum(fam(f"Kab:{a}:{b}")))
                expected = (b - 1) * math.log(a) + (a - 1) * math.log(b)
                assert self.close(value, expected), (a, b)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            lb.log_spanning_trees(lb.spectrum(fam("CLIQUES:3,2")))


class TestBareissAgainstSymbolic:
    @given(graph_strategy(max_n=7))
    @settings(max_examples=25, deadline=None)
    def test_reduced_laplacian_determinant(self, g):
        if g.n == 1:
            return
        L = lb.laplacian(g)
        reduced = sympy.Matrix([[int(L[i, j]) for j in range(1, g.n)]
                                for i in range(1, g.n)])
        # the determinant route counts spanning trees for disconnected
        # graphs too (it is zero there), so no connectivity guard is needed
        assert lb.spanning_trees_exact(g) == int(reduced.det())
