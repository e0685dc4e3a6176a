"""Majorization primitives, Grone-type comparisons, pinch and power sums."""
import pytest
from hypothesis import given, settings, strategies as st

import lapbounds as lb
from lapbounds import (BadPinchError, DisconnectedGraphError,
                       DomainViolationError, LengthMismatchError,
                       NotSortedError, SequenceTooShortError)
from lapbounds.rng import SplitMix64, splitmix64
from conftest import gnp_corpus, named_corpus, tree_corpus


def inputs(g):
    """The (degrees, spectrum) pair the majorization checks take."""
    return lb.degree_sequence(g), lb.spectrum(g)


def fam(text):
    return lb.generate(lb.parse_family(text)[0])


class TestMajorizes:
    def test_basic_holds(self):
        v = lb.majorizes((2.0, 2.0), (3.0, 1.0))
        assert v.holds and v.first_failing_prefix is None and v.sums_equal

    def test_basic_fails_on_prefix(self):
        v = lb.majorizes((3.0, 1.0), (2.0, 2.0))
        assert not v.holds
        assert v.first_failing_prefix == 1
        assert v.prefix_sums_x == (3.0, 4.0)
        assert v.prefix_sums_y == (2.0, 4.0)
        assert v.sums_equal

    def test_total_mismatch(self):
        v = lb.majorizes((2.0, 1.0), (3.0, 1.0))
        assert not v.holds and not v.sums_equal
        assert v.first_failing_prefix is None

    def test_reflexive(self):
        v = lb.majorizes((4.0, 2.0, 1.0), (4.0, 2.0, 1.0))
        assert v.holds

    def test_last_prefix_not_compared(self):
        # only the total constraint applies at the final index
        v = lb.majorizes((1.0, 1.0), (2.0, 0.0))
        assert v.holds

    def test_validation(self):
        with pytest.raises(LengthMismatchError):
            lb.majorizes((1.0,), (1.0, 0.0))
        with pytest.raises(SequenceTooShortError):
            lb.majorizes((), ())
        with pytest.raises(NotSortedError):
            lb.majorizes((1.0, 2.0), (2.0, 1.0))
        with pytest.raises(NotSortedError):
            lb.majorizes((2.0, 1.0), (1.0, 2.0))

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=2,
                    max_size=10))
    @settings(max_examples=60)
    def test_every_sequence_majorized_by_its_own_sort(self, vals):
        x = tuple(sorted((float(v) for v in vals), reverse=True))
        assert lb.majorizes(x, x).holds


class TestGroneSequences:
    def test_grone_sequence_star(self):
        seq, mono = lb.grone_sequence((2, 1, 1))
        assert seq == (3, 1, 0) and mono

    def test_grone_sequence_complete(self):
        seq, mono = lb.grone_sequence((3, 3, 3, 3))
        assert seq == (4, 3, 3, 2) and mono

    def test_grone_too_short(self):
        with pytest.raises(SequenceTooShortError):
            lb.grone_sequence((1,))

    def test_merged_sequence_monotone_case(self):
        seq, mono = lb.merged_grone_sequence((3, 1, 1, 1))
        assert seq == (4, 1, 1) and mono

    def test_merged_sequence_non_monotone_on_regular(self):
        seq, mono = lb.merged_grone_sequence((3, 3, 3, 3))
        assert seq == (4, 3, 5) and not mono

    def test_merged_too_short(self):
        with pytest.raises(SequenceTooShortError):
            lb.merged_grone_sequence((1, 1))

    def test_grone_holds_on_connected_corpus(self):
        for label, g in named_corpus():
            if g.n < 2 or len(lb.connected_components(g)) != 1:
                continue
            assert lb.check_grone(*inputs(g)).holds, label
        for label, g in gnp_corpus():
            assert lb.check_grone(*inputs(g)).holds, label

    def test_check_grone_rejects_bad_graphs(self):
        with pytest.raises(SequenceTooShortError):
            lb.check_grone(*inputs(fam("K:1")))
        with pytest.raises(DisconnectedGraphError):
            lb.check_grone(*inputs(fam("CLIQUES:3,2")))

    def test_grone_merris_on_trees(self):
        for label, g in tree_corpus():
            assert lb.check_grone_merris(*inputs(g)).holds, label

    def test_grone_merris_probe_runs_everywhere(self):
        # exercised on arbitrary graphs as a probe; asserted only on trees
        for label, g in named_corpus():
            v = lb.check_grone_merris(*inputs(g))
            assert v.sums_equal, label


class TestPowerSum:
    def test_values(self):
        assert power_close(lb.power_sum((2.0, 2.0), 2.0), 8.0)
        assert power_close(lb.power_sum((4.0, 1.0), 0.5), 3.0)
        assert power_close(lb.power_sum((2.0, 4.0), -1.0), 0.75)

    def test_domain_errors(self):
        with pytest.raises(DomainViolationError):
            lb.power_sum((-1.0, 2.0), 2.0)
        with pytest.raises(DomainViolationError):
            lb.power_sum((0.0, 2.0), -1.0)
        with pytest.raises(DomainViolationError, match="negative int of"):
            lb.power_sum([-10**5000], 2.0)

    def test_zero_allowed_for_positive_alpha(self):
        assert lb.power_sum((0.0, 3.0), 2.0) == 9.0


def power_close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestPinch:
    def test_moves_mass_and_resorts(self):
        out = lb.pinch((5.0, 1.0), 0, 1, 1.5)
        assert out == (3.5, 2.5)
        assert sum(out) == 6.0

    def test_rejects_bad_indices(self):
        with pytest.raises(BadPinchError):
            lb.pinch((3.0, 1.0), 1, 1, 0.1)
        with pytest.raises(BadPinchError):
            lb.pinch((3.0, 1.0), 0, 2, 0.1)
        with pytest.raises(BadPinchError):
            lb.pinch((3.0, 1.0), 0, 10**5000, 0.1)

    def test_rejects_bad_eps(self):
        with pytest.raises(BadPinchError):
            lb.pinch((3.0, 1.0), 0, 1, 1.0)
        with pytest.raises(BadPinchError):
            lb.pinch((3.0, 1.0), 0, 1, 0.0)

    def test_result_majorized_by_original(self):
        x = (6.0, 3.0, 1.0)
        y = lb.pinch(x, 0, 2, 0.5)
        assert lb.majorizes(y, x).holds
        assert not lb.majorizes(x, y).holds

    def test_strict_schur_ordering_on_seeded_pinches(self):
        """Pinching strictly shrinks convex power sums and grows concave ones."""
        checked = 0
        for trial in range(300):
            rng = SplitMix64(splitmix64(31337, trial))
            n = rng.randrange(3, 8)
            x = tuple(sorted((0.5 + 4.0 * rng.uniform() for _ in range(n)),
                             reverse=True))
            i = rng.below(n - 1)
            j = i + 1 + rng.below(n - i - 1)
            gap = x[i] - x[j]
            if gap < 0.01:
                continue
            eps = 0.25 * gap
            y = lb.pinch(x, i, j, eps)
            for alpha in (-1.0, -0.5, 2.0, 3.0):
                assert lb.power_sum(x, alpha) - lb.power_sum(y, alpha) > 1e-12
            assert lb.power_sum(y, 0.5) - lb.power_sum(x, 0.5) > 1e-12
            checked += 1
        assert checked >= 200
