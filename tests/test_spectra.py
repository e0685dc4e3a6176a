"""Eigensolver, spectral invariants and spanning-tree counts.

The Jacobi route is cross-checked against numpy.linalg.eigvalsh and, on a few
small graphs, against exact symbolic eigenvalues. Spanning-tree counts are
cross-checked against brute-force enumeration and the spectral product.
"""
import ctypes
import hashlib
import math
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import warnings
from array import array
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import lapbounds as lb
from lapbounds import (DisconnectedGraphError, JacobiConvergenceError,
                       NoNonzeroEigenvaluesError, SpectralInconsistencyError,
                       cli, spectra)
from lapbounds.spectra import jacobi_eigenvalues
from conftest import (clique_union_corpus, gnp_corpus, graph_strategy,
                      named_corpus, tree_corpus)
from jacobi_oracle import (ORACLE, laplacian_stack, numpy_sweep, round_robin,
                           solve_stack)


def fam(text):
    return lb.generate(lb.parse_family(text)[0])


def eigvalsh_oracle(g):
    vals = np.linalg.eigvalsh(np.asarray(lb.laplacian(g), dtype=float))
    return sorted(float(v) for v in vals)


def sympy_oracle(g):
    M = sympy.Matrix(lb.laplacian(g))
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
        for matrix in (np.zeros((2, 3)), np.zeros((3, 2)),
                       [[1.0, 2.0], [3.0]]):
            with pytest.raises(ValueError, match="square"):
                jacobi_eigenvalues(matrix)

    def test_rows_of_any_kind_give_the_same_bits(self):
        # laplacian(g)'s int lists, int64 and float64 arrays and float
        # tuples are read alike, entry by entry
        L = lb.laplacian(fam("GNP:24:0.5:1"))
        want = jacobi_eigenvalues(L)
        assert isinstance(want, array) and want.typecode == "d"
        for rows in (np.array(L), np.array(L, dtype=float),
                     [tuple(map(float, row)) for row in L]):
            assert jacobi_eigenvalues(rows).tobytes() == want.tobytes()

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
        pq = round_robin(n)
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
        assert abs(np.sum(vals) - np.trace(a)) <= 1e-12 * np.linalg.norm(a)

    def test_convergence_error_after_max_sweeps(self, monkeypatch):
        monkeypatch.setattr(spectra, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(JacobiConvergenceError):
            jacobi_eigenvalues(lb.laplacian(fam("GNP:12:0.5:1")))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_raises_before_any_sweep(self, monkeypatch,
                                                     bad):
        # an infinite off-diagonal entry makes the convergence target
        # infinite, so the unrotated diagonal would pass as converged, and a
        # NaN never meets its target: both are rejected before a sweep, which
        # would have rotated the stack the solve was given
        good = np.array([[2.0, 0.5, 0.5], [0.5, 3.0, 1.0], [0.5, 1.0, 1.0]])
        for i, j in [(0, 1), (1, 1)]:
            a = good.copy()
            a[i, j] = a[j, i] = bad
            with pytest.raises(JacobiConvergenceError, match="non-finite"):
                solve_stack(np.stack([good, a]))
            _assert_raises_unswept(monkeypatch, np.stack([good, a]),
                                   "non-finite")

    def test_overflowing_norm_raises_before_any_sweep(self, monkeypatch):
        # the target 1e-12 * inf is inf, so the unrotated diagonal would
        # pass as converged; the eigenvalues are 5.86e199 and 3.41e200
        a = np.array([[1e200, 1e200], [1e200, 3e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(JacobiConvergenceError, match="overflows"):
                jacobi_eigenvalues(a)
            _assert_raises_unswept(monkeypatch, a[None], "overflows")

    def test_entries_near_1e150_solve(self):
        rs = np.random.RandomState(150)
        a = rs.randn(8, 8)
        a = (a + a.T) * 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = sorted(jacobi_eigenvalues(a))
        ref = sorted(np.linalg.eigvalsh(a))
        assert all(abs(x - y) <= 1e-12 * abs(y) for x, y in zip(ours, ref))

    @pytest.mark.parametrize("kernel", ["compiled_kernel", "numpy"])
    def test_any_memory_layout(self, request, monkeypatch, kernel):
        # a Fortran-ordered matrix and a transposed view give the bits of
        # the same values in C order
        lib = ORACLE if kernel == "numpy" else request.getfixturevalue(kernel)
        rs = np.random.RandomState(23)
        x = rs.randn(9, 9)
        m = x + x.T
        for c_order, other in [(m, np.asfortranarray(m)), (m, m.T)]:
            assert not other.flags.c_contiguous
            assert _same_bits(_solve_with(monkeypatch, lib, other),
                              _solve_with(monkeypatch, lib, c_order))


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
    """Laplacian of one graph of a stack mix at vertex count n, as an int64
    array."""
    return np.array(lb.laplacian(_stack_graph(kind, n, seed)))


def _stack_graph(kind, n, seed):
    """One graph of a stack mix at vertex count n."""
    if kind == "gnp":
        g = lb.gnp_connected(n, 0.5, seed)
    elif kind == "tree":
        g = lb.random_tree(n, seed)
    elif kind == "star":
        g = fam(f"S:{n}")
    elif kind == "edgeless":
        g = lb.build_graph(n, [])
    elif kind == "complete":
        g = fam(f"K:{n}")
    else:
        sizes, rest = [], n
        while rest:
            sizes.append(min(rest, 1 + (seed + len(sizes)) % 5))
            rest -= sizes[-1]
        g = lb.generate(lb.FamilySpec(kind="clique_union", sizes=tuple(sizes)))
    return g


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
        stacked = solve_stack(np.stack([mats[i] for i in order]))
        assert stacked.shape == (len(mats), mats[0].shape[0])
        for row, i in zip(stacked, order):
            assert _same_bits(row, jacobi_eigenvalues(mats[i]))

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
            shapes.append((matrix.count, matrix.n, matrix.n))
            return original(matrix)

        monkeypatch.setattr(spectra, "jacobi_eigenvalues", counting)
        assert lb.spectra_of(graphs) == alone
        assert shapes == [(3, 6, 6)]
        # mixed n: one stack per n, in the order each n first appears
        shapes.clear()
        mixed = [fam(label) for label in ("S:6", "S:7", "P:6", "K:7", "K:1")]
        solved = lb.spectra_of(mixed)
        assert shapes == [(2, 6, 6), (2, 7, 7), (1, 1, 1)]
        assert solved == [lb.spectrum(g) for g in mixed]

    def test_one_by_one_stack(self):
        stack = np.array([[[5.0]], [[0.0]], [[-2.5]]])
        assert solve_stack(stack).tolist() == [[5.0], [0.0], [-2.5]]
        spec, = lb.spectra_of([fam("K:1")])
        assert spec.mu == (0.0,) and spec.component_count == 1

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3,), (2, 2, 2, 2), ()])
    def test_rejects_non_square_stack(self, shape):
        with pytest.raises(ValueError):
            solve_stack(np.zeros(shape))

    def test_convergence_error_on_a_stack(self, monkeypatch):
        monkeypatch.setattr(spectra, "JACOBI_MAX_SWEEPS", 1)
        stack = np.stack([np.zeros((12, 12)),
                          lb.laplacian(fam("GNP:12:0.5:1")),
                          np.diag(np.arange(12.0))])
        with pytest.raises(JacobiConvergenceError):
            solve_stack(stack)


def _stacked_round_robin(n, b):
    """The round-robin schedule of a stack of b matrices laid out as
    x[row, j, col], as the stacked numpy round took it: per round, the
    columns P then Q of the (n, b * n) view, the rows P then Q of the
    (n * b, n) view, the flat indices of a[P, P], a[Q, Q] and a[P, Q], and
    those of a[P, Q] and a[Q, P]."""
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    i = np.arange(m // 2)
    u, v = (r + i) % (m - 1), (r - i) % (m - 1)
    v[:, 0] = m - 1
    if n % 2:
        u, v = u[:, 1:], v[:, 1:]
    rounds, k = u.shape
    pq = np.array((np.minimum(u, v), np.maximum(u, v))).transpose(1, 0, 2)
    pq, qp = pq[:, :, None], pq[:, ::-1, None]
    j = np.arange(b)[:, None]
    bn = b * n
    diag = np.concatenate((pq * (bn + 1), pq[:, :1] * bn + qp[:, :1]),
                          axis=1) + j * n
    return ((pq + j * n).reshape(rounds, -1), (pq * b + j).reshape(rounds, -1),
            diag.reshape(rounds, 3, b * k),
            (pq * bn + qp + j * n).reshape(rounds, -1))


def _temporaries_jacobi(matrix):
    """jacobi_eigenvalues with the round written as one expression per
    quantity, as it was before the round was computed in place."""
    a = np.array(matrix, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    n = a.shape[1]
    out = np.zeros(a.shape[:2])
    ids = range(len(a))
    targets = [spectra.JACOBI_REL_TOL * float(np.linalg.norm(m)) for m in a]
    x = a.transpose(1, 0, 2).take(ids, axis=1)
    sign = np.array([[-1.0], [1.0]])
    b = 0
    for sweep in range(spectra.JACOBI_MAX_SWEEPS + 1):
        keep = []
        for j, i in enumerate(ids):
            m = x[:, j]
            if float(np.linalg.norm(m - np.diag(m.diagonal()))) <= targets[j]:
                out[i] = m.diagonal()
            else:
                keep.append(j)
        if not keep:
            return out[0] if single else out
        assert sweep < spectra.JACOBI_MAX_SWEEPS
        if len(keep) < len(ids):
            x = x.take(keep, axis=1)
            ids = [ids[j] for j in keep]
            targets = [targets[j] for j in keep]
        if len(ids) != b:
            b = len(ids)
            cols_view, rows_view = x.reshape(n, b * n), x.reshape(n * b, n)
            flat = x.reshape(-1)
            schedule = list(zip(*_stacked_round_robin(n, b)))
        for cols_pq, rows_pq, diag, off in schedule:
            app, aqq, apq = flat.take(diag)
            half = 0.5 * (aqq - app)
            den = np.abs(half) + np.hypot(half, apq)
            t = apq / np.copysign(den + (den == 0.0), half)
            c = 1.0 / np.hypot(1.0, t)
            s = sign * (t * c)
            cols = cols_view[:, cols_pq].reshape(n, 2, -1)
            cols_view[:, cols_pq] = (cols * c
                                     + cols[:, ::-1] * s).reshape(n, -1)
            rows = rows_view[rows_pq].reshape(2, -1, n)
            rows_view[rows_pq] = (rows * c[:, None]
                                  + rows[::-1] * s[:, :, None]).reshape(-1, n)
            flat.put(off, 0.0)


def _same_bits(a, b):
    """a and b, ndarrays or array('d')s, hold the same doubles bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and (a.view(np.int64) == b.view(np.int64)).all()


class TestJacobiRoundInPlace:
    """The in-place round gives the bits of the round with temporaries."""

    def test_stacks_of_every_kind(self):
        kinds = ("gnp", "tree", "star", "complete", "edgeless", "clique_union")
        for n in range(2, 65):
            stack = np.stack([_stack_member(kind, n, 7 * n + 1)
                              for kind in kinds])
            assert _same_bits(solve_stack(stack),
                              _temporaries_jacobi(stack)), n

    @pytest.mark.parametrize("tiny", [0.0, -0.0, 5e-324, -5e-324])
    def test_zero_and_subnormal_off_diagonals(self, tiny):
        # tiny off-diagonals between equal diagonal entries: rotations with
        # den == 0 (tiny = +-0) or den == 5e-324, under any warning
        mats = [
            [[1.0, tiny, 1.0], [tiny, 1.0, 0.0], [1.0, 0.0, 2.0]],
            [[2.0, tiny, 0.0, 1.0], [tiny, 2.0, 1.0, 0.0],
             [0.0, 1.0, 3.0, tiny], [1.0, 0.0, tiny, 3.0]],
            [[1.0, tiny, tiny, 2.0], [tiny, 1.0, 2.0, tiny],
             [tiny, 2.0, 1.0, tiny], [2.0, tiny, tiny, 1.0]],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in mats:
                a = np.array(m)
                assert _same_bits(jacobi_eigenvalues(a),
                                  _temporaries_jacobi(a)), m
                stack = np.stack([a, a[::-1, ::-1]])
                assert _same_bits(solve_stack(stack),
                                  _temporaries_jacobi(stack)), m


@pytest.fixture
def numpy_kernel(monkeypatch):
    """Solves and draws with the numpy oracle in the library's place."""
    monkeypatch.setattr(spectra, "_lib", ORACLE)


@pytest.fixture
def compiled_kernel():
    """The compiled library."""
    return spectra._load_library()


@pytest.mark.usefixtures("numpy_kernel")
class TestJacobiStackNumpyKernel(TestJacobiStack):
    """TestJacobiStack under the numpy oracle."""

    # Hypothesis runs a given test from one class only, so it is wrapped
    # anew; the inner test keeps its settings
    test_stacked_bits_equal_alone = given(stack_mix())(
        TestJacobiStack.test_stacked_bits_equal_alone.hypothesis.inner_test)


@pytest.mark.usefixtures("numpy_kernel")
class TestJacobiDeterminismNumpyKernel(TestJacobiDeterminism):
    """TestJacobiDeterminism under the numpy oracle."""


@pytest.mark.usefixtures("numpy_kernel")
class TestJacobiRoundInPlaceNumpyKernel(TestJacobiRoundInPlace):
    """TestJacobiRoundInPlace under the numpy oracle."""


@pytest.mark.usefixtures("numpy_kernel")
class TestJacobiConvergenceNumpyKernel:
    """TestJacobi's convergence-error test under the numpy oracle."""

    test_convergence_error_after_max_sweeps = (
        TestJacobi.test_convergence_error_after_max_sweeps)


@pytest.fixture(scope="session")
def portable_library(tmp_path_factory):
    """The library as a host that is not x86-64 builds it, portable sweep
    only: _jacobi.c with defined(__x86_64__) replaced by 0, built and loaded
    by _load_library() from a copy in a temporary directory."""
    root = tmp_path_factory.mktemp("portable")
    source = Path(spectra.__file__).with_name("_jacobi.c").read_text()
    (root / "_jacobi.c").write_text(
        source.replace("defined(__x86_64__)", "0"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "__file__", str(root / "spectra.py"))
        return spectra._load_library()


@pytest.fixture(params=["built", "portable"])
def compiled_variant(request):
    """The library as _load_library() builds it here, and its portable
    build, whose sweep hosts without AVX2 run."""
    return (spectra._load_library() if request.param == "built"
            else request.getfixturevalue("portable_library"))


def _solve_with(monkeypatch, lib, matrix):
    """jacobi_eigenvalues(matrix) with lib's jacobi_solve; lib is a
    compiled library or ORACLE."""
    monkeypatch.setattr(spectra, "_lib", lib)
    return jacobi_eigenvalues(matrix)


def _exits_with(monkeypatch, lib, stack):
    """The eigenvalue bits and the exit sweep of each matrix, as _solve
    gives them with lib, a compiled library or ORACLE. stack is a (B, n, n)
    array, or a list of graphs of one n, whose masks the solve fills its
    stack from."""
    monkeypatch.setattr(spectra, "_lib", lib)
    if isinstance(stack, list):
        b, n = len(stack), stack[0].n
        values, sweeps = spectra._solve(None, b, n,
                                        spectra._Laplacians(stack))
    else:
        b, n = stack.shape[:2]
        a = array("d", np.ascontiguousarray(stack, dtype=float).tobytes())
        values, sweeps = spectra._solve(a, b, n)
    return values.tobytes(), sweeps.tolist()


def _assert_raises_unswept(monkeypatch, stack, match):
    """The compiled solve and the oracle each raise on stack before their
    first sweep: the buffer each was given is untouched."""
    for lib in (spectra._library(), ORACLE):
        monkeypatch.setattr(spectra, "_lib", lib)
        a = array("d", stack.tobytes())
        with pytest.raises(JacobiConvergenceError, match=match):
            spectra._solve(a, *stack.shape[:2])
        assert a.tobytes() == stack.tobytes(), lib


def _sweep_of(lib):
    """lib's jacobi_sweep, with numpy_sweep's signature."""
    def sweep(a, pq):
        assert a.flags.c_contiguous and a.dtype == np.float64
        assert pq.flags.c_contiguous and pq.dtype == np.intp
        assert lib.jacobi_sweep(
            ctypes.c_void_p(a.ctypes.data), ctypes.c_ssize_t(len(a)),
            ctypes.c_ssize_t(a.shape[1]), ctypes.c_void_p(pq.ctypes.data),
            ctypes.c_ssize_t(len(pq)), ctypes.c_ssize_t(pq.shape[1] // 2)) == 0
    return sweep


class TestCompiledKernel:
    """The compiled solve gives the numpy oracle's bits, and retires each
    matrix after the same sweep; its sweep gives numpy_sweep's bits."""

    def test_stacks_of_every_kind(self, monkeypatch, compiled_kernel):
        kinds = ("gnp", "tree", "star", "complete", "edgeless", "clique_union")
        for n in range(2, 65):
            graphs = [_stack_graph(kind, n, 3 * n + 2) for kind in kinds]
            stack = np.stack([lb.laplacian(g) for g in graphs])
            want = _exits_with(monkeypatch, ORACLE, stack)
            assert _exits_with(monkeypatch, compiled_kernel, stack) == want, n
            # filled from the masks
            assert _exits_with(monkeypatch, compiled_kernel, graphs) == want

    def test_named_families_from_masks(self, monkeypatch, compiled_kernel):
        exits = {}
        for kind in "KSPC":
            graphs = [fam(f"{kind}:{n}") for n in range(2 + (kind == "C"), 65)]
            for g in graphs:
                got = _exits_with(monkeypatch, compiled_kernel, [g])
                assert got == _exits_with(monkeypatch, ORACLE, [g]), g
                exits[kind, g.n] = got[1][0]
        # K_64 converges after one sweep, S:40 after eight
        assert exits["K", 64] == 1 and exits["S", 40] == 8

    def test_max_sweeps_below_the_exit_sweep_raises(self, monkeypatch,
                                                    compiled_kernel):
        # S:40 needs 8 sweeps; with 2 allowed both solves give up on it
        monkeypatch.setattr(spectra, "JACOBI_MAX_SWEEPS", 2)
        for lib in (compiled_kernel, ORACLE):
            monkeypatch.setattr(spectra, "_lib", lib)
            with pytest.raises(JacobiConvergenceError, match="after 2 sweeps"):
                lb.spectrum(fam("S:40"))
            with pytest.raises(JacobiConvergenceError, match="after 2 sweeps"):
                jacobi_eigenvalues(lb.laplacian(fam("S:40")))
            # the raw solve names S:40 as unconverged and still writes K:40
            b, n = 2, 40
            values, sweeps = array("d", [0.0]) * 80, array("i", [7]) * b
            laplacians = spectra._Laplacians([fam("S:40"), fam("K:40")])
            code = lib.jacobi_solve(None, b, n, laplacians.rows, 2,
                                    spectra.JACOBI_REL_TOL,
                                    values.buffer_info()[0],
                                    sweeps.buffer_info()[0])
            assert (code, sweeps.tolist()) == (1, [-1, 1])
            k40, = jacobi_eigenvalues(spectra._Laplacians([fam("K:40")]))
            assert values[40:].tobytes() == k40.tobytes()

    def test_fuzz_small_stacks_at_seed_7(self, monkeypatch, compiled_kernel,
                                         tmp_path, capsys):
        # the 27 calls of perfbench's fuzz-small pass, one stack each
        stacks = []
        original = spectra.jacobi_eigenvalues

        def recording(matrix):
            stacks.append(matrix)
            return original(matrix)

        monkeypatch.setattr(spectra, "jacobi_eigenvalues", recording)
        for model in ("gnp", "tree", "clique-union"):
            for n in range(4, 13):
                cli.main(["fuzz", "--model", model, "--seed", "7",
                          "--count", "12", "--n-min", str(n), "--n-max",
                          str(n), "--p", "0.5",
                          "--out-dir", str(tmp_path / f"{model}-{n}")])
        capsys.readouterr()
        assert [(s.count, s.n, s.n) for s in stacks] == [
            (12, n, n) for _ in range(3) for n in range(4, 13)]
        for laplacians in stacks:
            stack = laplacian_stack(laplacians.rows, laplacians.count,
                                    laplacians.n)
            want = _exits_with(monkeypatch, ORACLE, stack)
            assert _exits_with(monkeypatch, compiled_kernel, stack) == want
            monkeypatch.setattr(spectra, "_lib", compiled_kernel)
            assert (b"".join(v.tobytes() for v in original(laplacians))
                    == want[0])

    @pytest.mark.parametrize("bad, i, j", [(np.nan, 0, 0), (np.nan, 1, 2),
                                           (np.inf, 1, 1), (-np.inf, 1, 1),
                                           (np.inf, 1, 2), (-np.inf, 1, 2)])
    def test_nan_and_inf_alike(self, monkeypatch, compiled_kernel,
                                     bad, i, j):
        # (0, 3) is a pair of the first round and a[0, 3] == 0, so after
        # that round a NaN at a[0, 0] shows whether the clamp of den
        # propagates it
        a = np.array([[2.0, 1.0, 0.5, 0.0], [1.0, 3.0, 1.0, 1.0],
                      [0.5, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 4.0]])
        a[i, j] = a[j, i] = bad
        swept = []
        with np.errstate(invalid="ignore"):
            for lib in (compiled_kernel, ORACLE):
                with pytest.raises(JacobiConvergenceError):
                    _solve_with(monkeypatch, lib, a)
                swept.append(a[None].copy())
                sweep = numpy_sweep if lib is ORACLE else _sweep_of(lib)
                sweep(swept[-1], round_robin(4)[:1])
        assert np.array_equal(*swept, equal_nan=True)

    @pytest.mark.parametrize("b", [1, 3])
    def test_any_schedule_of_disjoint_pairs(self, compiled_variant, b):
        rng = np.random.default_rng(18 + b)
        sweep = _sweep_of(compiled_variant)
        for n in [2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 31, 40, 64, 65]:
            for k in sorted({1, n // 2, int(rng.integers(1, n // 2 + 1))}):
                pq = _random_schedule(rng, n, k, rounds=12)
                x = rng.standard_normal((b, n, n))
                x += x.transpose(0, 2, 1)
                swept = [x.copy(), x.copy()]
                sweep(swept[0], pq)
                numpy_sweep(swept[1], pq)
                assert _same_bits(*swept), (n, k, pq)

    @pytest.mark.parametrize("n", [*range(2, 10), 63, 64, 65, 66, 97, 128,
                                   129])
    def test_sizes_on_both_sides_of_the_cli_cap(self, monkeypatch,
                                                compiled_variant, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, n, n))
        stack = np.concatenate((x + x.transpose(0, 2, 1),
                                _stack_member("gnp", n, n)[None]))
        assert (_exits_with(monkeypatch, compiled_variant, stack)
                == _exits_with(monkeypatch, ORACLE, stack))

    def test_input_at_any_offset_is_read_only(self, monkeypatch,
                                               compiled_kernel):
        # the solve copies its input to a 64-byte aligned stack of its own,
        # so where the input sits changes no bit, and the input is unchanged
        stack = np.stack([_stack_member(kind, 33, 4) for kind in
                          ("gnp", "tree", "clique_union")]).astype(float)
        want = _exits_with(monkeypatch, ORACLE, stack)
        base = np.zeros(stack.nbytes + 128, np.uint8)
        start = -base.ctypes.data % 64
        for offset in (0, 8, 16, 24, 32, 48):
            at = start + offset
            placed = base[at:at + stack.nbytes].view(float).reshape(
                stack.shape)
            placed[...] = stack
            assert placed.ctypes.data % 64 == offset
            monkeypatch.setattr(spectra, "_lib", compiled_kernel)
            assert _same_bits(solve_stack(placed),
                              np.frombuffer(want[0]).reshape(3, 33)), offset
            values, sweeps = np.zeros((3, 33)), np.zeros(3, np.intc)
            assert compiled_kernel.jacobi_solve(
                placed.ctypes.data, 3, 33, None, spectra.JACOBI_MAX_SWEEPS,
                spectra.JACOBI_REL_TOL, values.ctypes.data,
                sweeps.ctypes.data) == 0
            assert (values.tobytes(), sweeps.tolist()) == want, offset
            assert _same_bits(placed, stack), offset

    def test_early_returns_free_the_stack(self):
        # 100,000 solves of each kind that returns before a sweep, in a
        # child process: a leaked stack of one 8 x 8 matrix would add more
        # than 50 MB to its peak resident set
        done = subprocess.run(
            [sys.executable, "-c", _LEAK_PROBE], capture_output=True,
            text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(Path(spectra.__file__)
                                                 .parent.parent)})
        assert done.returncode == 0, done.stderr
        codes, grown = done.stdout.split()
        assert codes == "-3,-2,0"
        assert int(grown) < 5 * 1024  # KiB


# Runs 100,000 solves of an 8 x 8 stack with a NaN (-2), of one whose norm
# overflows (-3) and of an empty stack (b = 0), after a warm-up of 1,000 of
# each; prints the return codes and the growth of ru_maxrss in KiB.
_LEAK_PROBE = """
import resource
from array import array
from lapbounds import spectra
lib = spectra._library()
nan, huge = array("d", [1.0]) * 64, array("d", [1e200]) * 64
nan[9] = float("nan")
values, sweeps = array("d", [0.0]) * 8, array("i", [0])
out = values.buffer_info()[0], sweeps.buffer_info()[0]

def solves(count):
    return {lib.jacobi_solve(a.buffer_info()[0], b, 8, None, 64, 1e-12, *out)
            for a, b in ((nan, 1), (huge, 1), (nan, 0)) for _ in range(count)}

solves(1000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
codes = sorted(solves(100000))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(",".join(map(str, codes)), after - before)
"""


def _random_schedule(rng, n, k, rounds):
    """rounds rounds of k disjoint pairs of indices below n, as a pq array.

    Each round places, in random order, random pairs with P on either side
    of Q, and a stretch of consecutive pairs in which P and Q each step by
    +1 or -1, in each of the four directions in turn and as long as the free
    indices allow. So the kernel sees runs of many pairs (P and Q step in
    opposite directions), stretches that are runs of one pair each (P and Q
    step the same way), pairs on their own and indices that sit out."""
    pq = np.empty((rounds, 2 * k), dtype=np.intp)
    for r in range(rounds):
        length = int(rng.integers(0, k + 1))
        dp, dq = ((1, 1), (1, -1), (-1, 1), (-1, -1))[r % 4]
        # the run takes the blocks [p0, p0 + length) and [q0, q0 + length)
        start = int(rng.integers(0, n - 2 * length + 1))
        p0, q0 = start, start + length
        if r % 8 >= 4:
            p0, q0 = q0, p0
        run_p = [p0 + (i if dp > 0 else length - 1 - i) for i in range(length)]
        run_q = [q0 + (i if dq > 0 else length - 1 - i) for i in range(length)]
        rest = [int(x) for x in rng.permutation(
            sorted(set(range(n)) - set(run_p) - set(run_q)))]
        pairs = [(rest[2 * i], rest[2 * i + 1]) for i in range(k - length)]
        at = int(rng.integers(0, len(pairs) + 1))
        pairs[at:at] = zip(run_p, run_q)
        pq[r] = [p for p, _ in pairs] + [q for _, q in pairs]
    return pq


# Solves one stack in a fresh interpreter that imports the package from the
# directory argv[1], and solve_stack from the directory argv[3]. Prints
# "ready", waits for a line on stdin, then prints the sha256 of the
# eigenvalues' bits.
_BUILD_PROBE = """
import hashlib, sys
sys.path[:0] = [sys.argv[1], sys.argv[3]]
import numpy as np
from lapbounds import spectra
from jacobi_oracle import solve_stack
if not spectra.__file__.startswith(sys.argv[1]):
    sys.exit("imported " + spectra.__file__)
print("ready", flush=True)
sys.stdin.readline()
vals = solve_stack(np.load(sys.argv[2]))
print(hashlib.sha256(vals.tobytes()).hexdigest(), flush=True)
"""

# Runs the CLI in a fresh interpreter that imports the package from the
# directory argv[1], with sysconfig's CC set to argv[2] unless it is "", on
# the argv that follows; exits with the CLI's exit code.
_CLI_PROBE = """
import sys, sysconfig
sys.path.insert(0, sys.argv[1])
if sys.argv[2]:
    sysconfig.get_config_vars()["CC"] = sys.argv[2]
from lapbounds import cli
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit("imported " + cli.__file__)
sys.exit(cli.main(sys.argv[3:]))
"""

_NO_COMPILER = "no-such-compiler-lapbounds"


def _build_failure(code, out, err, compiler, cache):
    """The stderr lines after the error: line of a check that failed to
    build the library: check exited 1, printed one error: line, naming the
    compiler, and no traceback, and left no library and no .tmp file in the
    cache directory."""
    assert (code, out) == (1, ""), err
    first, *rest = err.splitlines()
    assert first.startswith("error: ") and compiler in first, err
    assert not [line for line in rest if line.startswith("error:")], err
    assert "Traceback" not in err
    assert not list(cache.glob("_jacobi*"))
    return rest


class TestKernelBuild:
    """The library is built on the first solve into the package's
    __pycache__; when that fails, the CLI exits 1 with one error: line."""

    @pytest.fixture
    def package(self, tmp_path):
        """A copy of the package with no __pycache__, and a stack file."""
        shutil.copytree(Path(spectra.__file__).parent, tmp_path / "lapbounds",
                        ignore=shutil.ignore_patterns("__pycache__"))
        stack = np.stack([_stack_member(kind, 24, 5)
                          for kind in ("gnp", "tree", "clique_union")])
        np.save(tmp_path / "stack.npy", stack)
        digest = hashlib.sha256(solve_stack(stack).tobytes())
        return tmp_path, digest.hexdigest()

    @staticmethod
    def _probes(root, count):
        """Start count probes, let them solve at once, return their output."""
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        procs = [subprocess.Popen(
            [sys.executable, "-c", _BUILD_PROBE, str(root),
             str(root / "stack.npy"), str(Path(__file__).parent)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env)
            for _ in range(count)]
        try:
            for proc in procs:
                assert proc.stdout.readline() == "ready\n"
            for proc in procs:
                proc.stdin.write("go\n")
                proc.stdin.flush()
            results = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
                proc.wait(timeout=10)
        assert [proc.returncode for proc in procs] == [0] * count
        return results

    @staticmethod
    def _check_k4(root, compiler=""):
        """Exit code, stdout and stderr of check --family K:4 run by the
        package copy under root."""
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-c", _CLI_PROBE, str(root), compiler,
             "check", "--family", "K:4"],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def test_compiled_kernel_runs_when_a_compiler_is_on_path(self):
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
        if shutil.which(cc) is None:
            pytest.skip(f"no C compiler {cc!r} on PATH")
        assert spectra._load_library() is not None
        assert spectra._library() is not None

    @pytest.mark.parametrize("host", ["this", "not x86-64"])
    def test_source_compiles_without_warnings(self, tmp_path, host):
        # the library's own build tolerates warnings; this keeps the source
        # clean of them under the library's flags, also where the AVX2
        # variant is left out and only the plain sweep is built, and under
        # strict C11, which declares aligned_alloc
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        if shutil.which(cc[0]) is None:
            pytest.skip(f"no C compiler {cc[0]!r} on PATH")
        source = Path(spectra.__file__).with_name("_jacobi.c").read_text()
        if host == "not x86-64":  # what the preprocessor keeps on such a host
            assert source.count("defined(__x86_64__)") == 1
            source = source.replace("defined(__x86_64__)", "0")
        (tmp_path / "_jacobi.c").write_text(source)
        library = tmp_path / "_jacobi.so"
        for std in ([], ["-std=c11"]):
            done = subprocess.run(
                [*cc, *spectra._CFLAGS, *std, "-Wall", "-Wextra", "-Werror",
                 "-o", str(library), str(tmp_path / "_jacobi.c")],
                capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, (std, done.stderr)
        lib = ctypes.CDLL(str(library))
        assert all(hasattr(lib, name)
                   for name in ("jacobi_solve", "jacobi_sweep", "gnp_rows"))
        if host == "not x86-64":  # and no AVX2 code: no 256-bit register
            objdump = shutil.which("objdump")
            if objdump is None:
                pytest.skip("no objdump on PATH")
            code = subprocess.run([objdump, "-d", str(library)], check=True,
                                  capture_output=True, text=True, timeout=60)
            assert "%ymm" not in code.stdout

    def test_rotation_loops_are_vectorized(self, tmp_path):
        # the sweep's speed rests on gcc vectorizing the rotation loops and
        # the loop of hypots, at both of its calls in coefficients; an edit
        # that turns one back into scalar code, or into a loop checked for
        # aliasing at run time, changes no bit and would pass every other
        # test
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        if shutil.which(cc[0]) is None:
            pytest.skip(f"no C compiler {cc[0]!r} on PATH")
        version = subprocess.run([*cc, "--version"], capture_output=True,
                                 text=True, timeout=60).stdout
        if "Free Software Foundation" not in version:  # clang says none
            pytest.skip(f"{cc[0]!r} is not gcc")
        source = Path(spectra.__file__).with_name("_jacobi.c")
        lines = source.read_text().splitlines()
        loops = {}
        calls = {"rotate_run": 1, "rotate_run4": 1, "rotate_rows": 1,
                 "hypots": 2}
        for helper in calls:
            start = next(i for i, line in enumerate(lines)
                         if line.startswith(f"INLINE void {helper}("))
            loops[helper] = next(i + 1 for i in range(start, len(lines))
                                 if lines[i].lstrip().startswith("for ("))
        done = subprocess.run(
            [*cc, *spectra._CFLAGS, "-fopt-info-vec-optimized",
             "-o", str(tmp_path / "_jacobi.so"), str(source)],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        target = subprocess.run([*cc, "-dumpmachine"], capture_output=True,
                                text=True, timeout=60).stdout
        for helper, line in loops.items():
            report = [r for r in done.stderr.splitlines()
                      if f"_jacobi.c:{line}:" in r]
            assert sum("loop vectorized" in r
                       for r in report) >= calls[helper], helper
            if target.startswith("x86_64"):  # the AVX2 body
                assert sum("using 32 byte vectors" in r
                           for r in report) >= calls[helper], helper
            assert not any("versioned for vectorization because of possible "
                           "aliasing" in r for r in report), helper

    def test_hypot_is_libm_scalar_hypot(self):
        # gcc may call a libmvec vector variant (_ZGV...) for a loop of
        # libm calls; its hypot need not round as libm's does, and the
        # coefficient phases would then lose the oracle's bits
        lib = spectra._load_library()
        tool = shutil.which("nm") or shutil.which("objdump")
        if tool is None:
            pytest.skip("no nm or objdump on PATH")
        flag = "-D" if Path(tool).name == "nm" else "-T"
        table = subprocess.run([tool, flag, lib._name], check=True,
                               capture_output=True, text=True,
                               timeout=60).stdout
        names = {line.split()[-1].split("@")[0]
                 for line in table.splitlines() if line.strip()}
        assert "hypot" in names
        assert not [name for name in names if name.startswith("_ZGV")]

    def test_library_exports_its_three_functions(self):
        # the inlined hypot and every other helper stay out of the ABI
        lib = spectra._load_library()
        nm = shutil.which("nm")
        if nm is None:
            pytest.skip("no nm on PATH")
        table = subprocess.run([nm, "-D", "--defined-only", lib._name],
                               check=True, capture_output=True, text=True,
                               timeout=60).stdout
        assert sorted(line.split()[-1] for line in table.splitlines()
                      if line.split()[1] == "T") == [
            "gnp_rows", "jacobi_solve", "jacobi_sweep"]

    def test_build_removes_stale_libraries(self, tmp_path, monkeypatch,
                                           compiled_kernel):
        # a library of an older source, compiler or flags is never loaded
        # again; a build in progress (a mkstemp .tmp name) is left alone
        shutil.copy(Path(spectra.__file__).with_name("_jacobi.c"), tmp_path)
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "_jacobi-0.so").write_bytes(b"")
        (cache / "_jacobi-building.tmp").write_bytes(b"")
        monkeypatch.setattr(spectra, "__file__", str(tmp_path / "spectra.py"))
        assert spectra._load_library() is not None
        built = sorted(cache.iterdir(), key=lambda p: p.suffix)
        assert [p.suffix for p in built] == [".so", ".tmp"]
        assert built[0].name != "_jacobi-0.so"
        assert built[1].name == "_jacobi-building.tmp"

    @staticmethod
    def _check_k4_here(tmp_path, monkeypatch, capsys, compiler):
        """Exit code, stdout and stderr of check --family K:4 run in this
        process, building from a copy of _jacobi.c in tmp_path with
        sysconfig's CC set to compiler."""
        shutil.copy(Path(spectra.__file__).with_name("_jacobi.c"), tmp_path)
        monkeypatch.setattr(spectra, "__file__", str(tmp_path / "spectra.py"))
        monkeypatch.setitem(sysconfig.get_config_vars(), "CC", compiler)
        monkeypatch.setattr(spectra, "_lib", None)
        code = cli.main(["check", "--family", "K:4"])
        return (code, *capsys.readouterr())

    def test_damaged_library_is_rebuilt(self, package, monkeypatch, capsys):
        # the first build runs in a child, so this process never maps the
        # file that is then truncated
        root, _ = package
        first = self._check_k4(root)
        assert first[0] in (0, 2, 3) and first[2] == ""
        library, = (root / "lapbounds" / "__pycache__").glob("_jacobi*")
        with library.open("r+b") as f:
            f.truncate(100)
        with pytest.raises(OSError):
            ctypes.CDLL(str(library))
        assert self._check_k4_here(
            root / "lapbounds", monkeypatch, capsys,
            sysconfig.get_config_var("CC") or "cc") == first
        assert list(library.parent.glob("_jacobi*")) == [library]
        assert ctypes.CDLL(str(library)).jacobi_solve

    def test_missing_compiler_fails_in_process(self, tmp_path, monkeypatch,
                                               capsys):
        # the probes run the CLI in a child process; this runs it here
        run = self._check_k4_here(tmp_path, monkeypatch, capsys,
                                  _NO_COMPILER)
        assert _build_failure(*run, _NO_COMPILER,
                              tmp_path / "__pycache__") == []
        with pytest.raises(lb.SolverBuildError, match=_NO_COMPILER):
            spectra._library()

    def test_compiler_error_gives_its_stderr(self, tmp_path, monkeypatch,
                                             capsys):
        compiler = shlex.join([
            *shlex.split(sysconfig.get_config_var("CC") or "cc"),
            "-include", "no-such-header-lapbounds.h"])
        run = self._check_k4_here(tmp_path, monkeypatch, capsys, compiler)
        stderr = _build_failure(*run, compiler, tmp_path / "__pycache__")
        assert "no-such-header-lapbounds.h" in "\n".join(stderr)

    def test_missing_compiler_fails(self, package):
        root, _ = package
        cache = root / "lapbounds" / "__pycache__"
        assert _build_failure(*self._check_k4(root, _NO_COMPILER),
                              _NO_COMPILER, cache) == []

    def test_unwritable_pycache_fails(self, package):
        root, _ = package
        # a file where the directory should be: not writable, even for root
        cache = root / "lapbounds" / "__pycache__"
        cache.write_text("")
        compiler = shlex.join(shlex.split(
            sysconfig.get_config_var("CC") or "cc"))
        assert _build_failure(*self._check_k4(root), compiler, cache) == []

    def test_concurrent_cold_builds_both_load(self, package, compiled_kernel):
        root, digest = package
        results = self._probes(root, 2)
        assert results == [(f"{digest}\n", "")] * 2
        built = sorted(p.name for p in (root / "lapbounds"
                                         / "__pycache__").iterdir())
        assert len(built) == 1 and built[0].startswith("_jacobi-")
        assert built[0].endswith(".so")


# _jacobi.c's hypots on count pairs, k at a time, as coefficients calls
# it: h[i] = hypot(x[i], y[i]), or hypot(1, y[i]) when x is NULL; portable,
# and on x86-64 also built for AVX2.
_HYPOT_PROGRAM = """
#include "_jacobi.c"

static const double unit = 1.0;

INLINE void batches(double *h, const double *x, const double *y,
                    ptrdiff_t count, ptrdiff_t k)
{
    for (ptrdiff_t i = 0; i < count; i += k) {
        ptrdiff_t len = count - i < k ? count - i : k;
        if (x == NULL)
            hypots(h + i, &unit, 0, y + i, len);
        else
            hypots(h + i, x + i, 1, y + i, len);
    }
}

void hypots_portable(double *h, const double *x, const double *y,
                     ptrdiff_t count, ptrdiff_t k)
{
    batches(h, x, y, count, k);
}

#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("avx2")))
void hypots_avx2(double *h, const double *x, const double *y,
                 ptrdiff_t count, ptrdiff_t k)
{
    batches(h, x, y, count, k);
}

int has_avx2(void)
{
    return __builtin_cpu_supports("avx2");
}
#endif
"""

_PAIRS = 1_000_000


def _doubles(rng, lo, hi, count=_PAIRS):
    """count doubles of random sign, 1 + u times 2^e with e in lo..hi."""
    return (np.ldexp(1.0 + rng.random(count), rng.integers(lo, hi + 1, count))
            * rng.choice([-1.0, 1.0], count))


def _near(rng, power, count=_PAIRS):
    """2^power, a quarter of them exactly and the rest times 0.5..2, each
    moved by -2..2 ulps at random."""
    x = np.ldexp(np.where(rng.random(count) < 0.25, 1.0,
                          rng.uniform(0.5, 2.0, count)), power)
    return _steps(rng, x, count)


def _steps(rng, x, count=_PAIRS):
    """x moved by -2..2 ulps, at random."""
    for _ in range(2):
        x = np.where(rng.random(count) < 0.5, x,
                     np.nextafter(x, np.where(rng.random(count) < 0.5,
                                              np.inf, -np.inf)))
    return x


def _hypot_pairs(kind, rng):
    """_PAIRS seeded (x, y) of one class; x None means x = 1."""
    count = _PAIRS
    if kind == "zeros":  # +-0 beside anything, and both zero
        x = rng.choice([0.0, -0.0], count)
        y = np.where(rng.random(count) < 0.1, -x, _doubles(rng, -1074, 1023))
    elif kind == "subnormal":  # each, or both, below 2^-1022
        x = (rng.integers(1, 1 << 52, count, dtype=np.uint64).view(float)
             * rng.choice([-1.0, 1.0], count))
        y = np.where(rng.random(count) < 0.5, x[::-1],
                     _doubles(rng, -1074, 1023))
    elif kind == "tiny":  # the smaller each side of 2^-459, not negligible
        y = _near(rng, -459)
        x = y * rng.uniform(1.0, 2.0 ** 53, count)
    elif kind == "huge":  # the larger each side of 2^511
        x = _near(rng, 511)
        y = x * np.ldexp(1.0, -rng.integers(0, 60, count))
    elif kind == "negligible":  # hi / lo at 2^54 +- 1 and 2 ulps
        y = _doubles(rng, -1000, 900)
        x = _steps(rng, y * 2.0 ** 54)
    elif kind == "equal":
        x = _doubles(rng, -1074, 1023)
        y = x * rng.choice([-1.0, 1.0], count)
    elif kind == "one":  # hypot(1, t), t tiny to 1, as the second phase
        x, y = None, _doubles(rng, -1074, 0)
    elif kind == "non-finite":  # +-inf and NaNs, quiet and signaling
        x = rng.choice([np.inf, -np.inf, np.nan, -np.nan], count)
        x[::3] = (rng.integers(0x7FF0_0000_0000_0001, 0x7FFF_FFFF_FFFF_FFFF,
                               count, dtype=np.uint64)[::3].view(float))
        y = np.where(rng.random(count) < 0.2, x[::-1],
                     _doubles(rng, -1074, 1023))
    elif kind == "any":  # every exponent, and arbitrary bit patterns
        x = _doubles(rng, -1074, 1023)
        y = rng.integers(0, 1 << 64, count, dtype=np.uint64).view(float)
    if x is not None:  # either argument first
        swap = rng.random(count) < 0.5
        x, y = np.where(swap, y, x), np.where(swap, x, y)
    return x, y


class TestInlineHypot:
    """_jacobi.c's inlined hypot gives the bits of the host libm's hypot.

    The reference is np.hypot, which calls libm's hypot on each element, as
    jacobi_oracle.py does; math.hypot is CPython's own, correctly rounded
    algorithm, and differs from libm's. The inlined one follows glibc's
    (2.35 and later, without FMA), so on another libm these tests show
    where the two differ."""

    @pytest.fixture(scope="class")
    def bodies(self, tmp_path_factory):
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        if shutil.which(cc[0]) is None:
            pytest.skip(f"no C compiler {cc[0]!r} on PATH")
        root = tmp_path_factory.mktemp("hypot")
        (root / "hypots.c").write_text(_HYPOT_PROGRAM)
        library = root / "hypots.so"
        subprocess.run(
            [*cc, *spectra._CFLAGS, "-I",
             str(Path(spectra.__file__).parent), "-o", str(library),
             str(root / "hypots.c")], check=True, timeout=120)
        lib = ctypes.CDLL(str(library))
        bodies = [lib.hypots_portable]
        if hasattr(lib, "has_avx2") and lib.has_avx2():
            bodies.append(lib.hypots_avx2)
        for body in bodies:
            body.argtypes = (ctypes.c_void_p,) * 3 + (ctypes.c_ssize_t,) * 2
        return bodies

    @pytest.mark.parametrize("kind", ["zeros", "subnormal", "tiny", "huge",
                                      "negligible", "equal", "one",
                                      "non-finite", "any"])
    def test_bits_of_libm(self, bodies, kind):
        rng = np.random.default_rng(list(map(ord, kind)))
        x, y = _hypot_pairs(kind, rng)
        with np.errstate(all="ignore"):
            want = np.hypot(1.0 if x is None else x, y).view(np.int64)
        for body in bodies:
            for k in (32, 7):  # n = 64's rounds, and a ragged remainder
                h = np.empty_like(y)
                body(h.ctypes.data, None if x is None else x.ctypes.data,
                     y.ctypes.data, len(y), k)
                bad = np.flatnonzero(h.view(np.int64) != want)
                assert not len(bad), (body.__name__, k, [
                    (float.hex(float(1.0 if x is None else x[i])),
                     float.hex(float(y[i]))) for i in bad[:5]])


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
                    math.exp(lb.log_spanning_trees(spec))
                continue
            exact = lb.spanning_trees_exact(g)
            approx = math.exp(lb.log_spanning_trees(spec))
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
        # the Laplacian from the edges and the degrees, not laplacian(g)
        L = sympy.diag(*[g.degree(v) for v in range(g.n)])
        for u, v in g.edges:
            L[u, v] = L[v, u] = -1
        # the determinant route counts spanning trees for disconnected
        # graphs too (it is zero there), so no connectivity guard is needed
        assert lb.spanning_trees_exact(g) == int(L[1:, 1:].det())

    def test_networkx_reduced_laplacians_give_the_count(self):
        # the reduced Laplacian built from networkx's edges and degrees
        # gives spanning_trees_exact's count, on every atlas graph
        nx = pytest.importorskip("networkx")
        for G in nx.graph_atlas_g()[1:]:
            n = G.number_of_nodes()
            g = lb.build_graph(n, G.edges())
            reduced = [[G.degree(u) if u == v else -int(G.has_edge(u, v))
                        for v in range(1, n)] for u in range(1, n)]
            assert (lb.spanning_trees_exact(g)
                    == spectra._bareiss_determinant(reduced)), G.edges()

    def test_named_families_to_64(self):
        # Cayley's n^(n-2) for K_n, one tree in S_n and P_n, n in C_n; and
        # 1 for the single vertex, 0 for a disconnected graph
        for n in range(1, 65):
            assert lb.spanning_trees_exact(fam(f"K:{n}")) == n ** max(n - 2, 0)
            assert lb.spanning_trees_exact(fam(f"S:{n}")) == 1
            assert lb.spanning_trees_exact(fam(f"P:{n}")) == 1
            if n >= 3:
                assert lb.spanning_trees_exact(fam(f"C:{n}")) == n
        assert lb.spanning_trees_exact(fam("CLIQUES:32,32")) == 0
