"""Bound catalog: verdicts, margins, equality predictions, strict mode."""
import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapbounds as lb
from lapbounds import (BadParameterError, DisconnectedGraphError,
                       SequenceTooShortError, UnknownBoundError, cli)
from lapbounds.bounds import CATALOG, GraphContext
from conftest import (clique_union_corpus, gnp_corpus, graph_strategy,
                      named_corpus, tree_corpus)

ALPHAS = (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)
KS = (1, 2, 3, 4)


def fam(text):
    return lb.generate(lb.parse_family(text)[0])


def one(bound_id, graph, param=None, **kw):
    return lb.evaluate_bound(bound_id, graph, param, **kw)


def separation(results):
    """The largest |lhs - rhs| / max(|lhs|, |rhs|), the scale _evaluate
    decides on, among EQUALITY rows, and the smallest among the other
    applicable rows."""
    equal, other = 0.0, math.inf
    for r in results:
        if r.applicable:
            scale = max(abs(r.lhs), abs(r.rhs))
            gap = abs(r.lhs - r.rhs) / scale if scale else 0.0
            if r.verdict == "EQUALITY":
                equal = max(equal, gap)
            else:
                other = min(other, gap)
    return equal, other


class TestCatalogShape:
    def test_seventeen_unique_ids(self):
        assert len(lb.BOUND_IDS) == 17
        assert len(set(lb.BOUND_IDS)) == 17

    def test_catalog_order_is_stable(self):
        assert lb.BOUND_IDS == (
            "P1_LOWER", "P1_UPPER", "P2_LOWER", "KF_NEW", "KF_ZT",
            "KF_COMPARE", "R1_TREE_HIGH", "R1_TREE_LOW", "RP_MOMENT",
            "LEE_DEGREE", "LEE_TREE", "LEE_CLIQUE", "LEE_R2A_M", "LEE_R2A_T",
            "LEE_R2B", "LEE_R2C_M1", "LEE_R2C_T")

    def test_readme_table_matches_catalog(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("## The bound catalog", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|") for line in section.splitlines()
                if line.startswith("| `")]
        listed = [(cells[1].strip().strip("`"), cells[2].strip())
                  for cells in rows]
        assert listed == [(spec.bound_id, spec.direction) for spec in CATALOG]

    def test_unknown_bound(self):
        with pytest.raises(UnknownBoundError):
            one("NOPE", fam("K:4"))
        with pytest.raises(UnknownBoundError):
            lb.evaluate_catalog(fam("K:4"), ALPHAS, KS, bound_ids=("NOPE",))

    def test_catalog_row_counts(self):
        results = lb.evaluate_catalog(fam("K:5"), ALPHAS, KS)
        by_id = {}
        for r in results:
            by_id.setdefault(r.bound_id, []).append(r)
        assert len(by_id["P1_LOWER"]) == 2      # alpha in {2, 3}
        assert len(by_id["P1_UPPER"]) == 1      # alpha = 0.5
        assert len(by_id["P2_LOWER"]) == 3      # negative alphas
        assert len(by_id["R1_TREE_HIGH"]) == 5  # both branches
        assert len(by_id["RP_MOMENT"]) == 4
        assert len(by_id["KF_NEW"]) == 1
        # catalog order with ascending parameters
        assert [r.param for r in by_id["P2_LOWER"]] == [-2.0, -1.0, -0.5]
        ids_in_order = [r.bound_id for r in results]
        assert ids_in_order == sorted(ids_in_order,
                                      key=lb.BOUND_IDS.index)

    def test_catalog_rejects_trivial_alphas(self):
        with pytest.raises(BadParameterError):
            lb.evaluate_catalog(fam("K:4"), (0.0,), KS)
        with pytest.raises(BadParameterError):
            lb.evaluate_catalog(fam("K:4"), (1.0,), KS)
        with pytest.raises(BadParameterError):
            lb.evaluate_catalog(fam("K:4"), ALPHAS, (0,))


class TestParamChecking:
    def test_missing_and_superfluous(self):
        with pytest.raises(BadParameterError):
            one("P1_LOWER", fam("K:4"))
        with pytest.raises(BadParameterError):
            one("KF_ZT", fam("K:4"), 2.0)

    def test_out_of_range_alpha(self):
        g = fam("K:4")
        with pytest.raises(BadParameterError):
            one("P1_LOWER", g, 0.5)
        with pytest.raises(BadParameterError):
            one("P1_UPPER", g, 2.0)
        with pytest.raises(BadParameterError):
            one("P2_LOWER", g, 2.0)
        with pytest.raises(BadParameterError):
            one("R1_TREE_HIGH", fam("P:4"), 0.5)
        with pytest.raises(BadParameterError):
            one("P1_LOWER", g, float("inf"))

    def test_k_must_be_a_real_int(self):
        g = fam("K:4")
        with pytest.raises(BadParameterError):
            one("RP_MOMENT", g, 2.0)
        with pytest.raises(BadParameterError):
            one("RP_MOMENT", g, True)
        with pytest.raises(BadParameterError):
            one("RP_MOMENT", g, 0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_catalog_rejects_non_finite_alpha(self, alpha):
        # NaN is outside every row's range, so only the grid check sees it
        with pytest.raises(BadParameterError):
            lb.evaluate_catalog(fam("K:4"), (alpha,), ())

    def test_equal_grid_values_of_other_types(self):
        g = fam("K:4")
        lb.evaluate_catalog(g, (), (2,))
        for ks in ((2.0,), (True,)):  # hash like legal ks, yet not ints
            with pytest.raises(BadParameterError):
                lb.evaluate_catalog(g, (), ks)
        assert (lb.evaluate_catalog(g, (2,), ())
                == lb.evaluate_catalog(g, (2.0,), ()))

    def test_context_graph_mismatch(self):
        ctx = GraphContext(fam("K:4"))
        with pytest.raises(ValueError):
            one("KF_ZT", fam("K:5"), ctx=ctx)
        r = one("KF_ZT", fam("K:4"), ctx=ctx)
        assert r.verdict == "EQUALITY"


class TestP1:
    def test_star_equality_exact(self):
        r = one("P1_LOWER", fam("S:6"), 2.0)
        assert r.verdict == "EQUALITY" and r.predicted_equality and r.agreement
        assert abs(r.lhs - 40.0) <= 1e-7 * 40
        assert abs(r.rhs - 40.0) <= 1e-12

    def test_complete_holds_with_known_margin(self):
        r = one("P1_LOWER", fam("K:4"), 2.0)
        assert r.verdict == "HOLDS" and not r.predicted_equality
        assert abs(r.lhs - 48.0) <= 1e-7 * 48
        assert abs(r.rhs - 38.0) <= 1e-12
        assert abs(r.margin - 10.0) <= 1e-5

    def test_upper_branch_star_equality(self):
        r = one("P1_UPPER", fam("S:4"), 0.5)
        assert r.verdict == "EQUALITY"
        assert abs(r.lhs - 4.0) <= 1e-7

    def test_equality_exactly_on_stars(self):
        for label, g in named_corpus():
            if not lb.classify(g).is_connected or g.n < 2:
                continue
            for a in (2.0, 3.0):
                r = one("P1_LOWER", g, a)
                assert r.agreement, (label, a, r)
                assert (r.verdict == "EQUALITY") == lb.classify(g).is_star
            r = one("P1_UPPER", g, 0.5)
            assert r.agreement, (label, r)

    def test_not_applicable_when_disconnected(self):
        r = one("P1_LOWER", fam("CLIQUES:3,2"), 2.0)
        assert r.verdict == "NOT_APPLICABLE" and not r.applicable
        assert r.lhs is None and r.rhs is None and r.margin is None
        assert r.agreement and not r.predicted_equality


class TestP2:
    def test_star_and_k3_equality(self):
        for label in ["S:3", "S:6", "S:12", "K:3"]:
            for a in (-2.0, -1.0, -0.5):
                r = one("P2_LOWER", fam(label), a)
                assert r.verdict == "EQUALITY", (label, a, r)
                assert r.predicted_equality and r.agreement

    def test_k4_violated_margin_is_minus_one_thirtieth(self):
        r = one("P2_LOWER", fam("K:4"), -1.0)
        assert r.verdict == "VIOLATED"
        assert abs(r.margin - float(Fraction(-1, 30))) <= 1e-9
        assert abs(r.lhs - 0.75) <= 1e-9
        assert abs(r.rhs - float(Fraction(47, 60))) <= 1e-12

    def test_k7_minus_edge_violated(self):
        r = one("P2_LOWER", fam("Kme:7"), -1.0)
        assert r.verdict == "VIOLATED"
        assert abs(r.margin - float(Fraction(-2, 315))) <= 1e-9

    def test_k5_violated(self):
        # every complete graph from K_4 on has a non-monotone merged sequence
        r = one("P2_LOWER", fam("K:5"), -1.0)
        assert r.verdict == "VIOLATED"
        assert abs(r.margin - float(Fraction(-3, 70))) <= 1e-9

    def test_strict_applicability_masks_the_failures(self):
        r = one("P2_LOWER", fam("K:4"), -1.0, strict_applicability=True)
        assert r.verdict == "NOT_APPLICABLE"
        r = one("P2_LOWER", fam("S:6"), -1.0, strict_applicability=True)
        assert r.verdict == "EQUALITY"

    def test_strict_never_violated_on_random_corpus(self):
        for label, g in gnp_corpus():
            for a in (-2.0, -1.0, -0.5):
                r = one("P2_LOWER", g, a, strict_applicability=True)
                assert r.verdict != "VIOLATED", (label, a)

    def test_violations_only_with_non_monotone_merge(self):
        for label, g in gnp_corpus():
            for a in (-2.0, -1.0, -0.5):
                r = one("P2_LOWER", g, a)
                if r.verdict == "VIOLATED":
                    d = lb.degree_sequence(g)
                    assert not lb.merged_grone_sequence(d)[1], label

    def test_not_applicable_below_n3(self):
        assert one("P2_LOWER", fam("K:2"), -1.0).verdict == "NOT_APPLICABLE"


class TestKirchhoffBounds:
    def test_kf_new_k3_and_star_equality(self):
        assert one("KF_NEW", fam("K:3")).verdict == "EQUALITY"
        for n in (3, 5, 9):
            r = one("KF_NEW", fam(f"S:{n}"))
            assert r.verdict == "EQUALITY" and r.agreement, n

    def test_kf_new_violated_on_k4(self):
        r = one("KF_NEW", fam("K:4"))
        assert r.verdict == "VIOLATED"
        assert abs(r.lhs - 3.0) <= 1e-8
        assert abs(r.rhs - float(Fraction(47, 15))) <= 1e-12
        assert abs(r.margin - float(Fraction(-2, 15))) <= 1e-8
        assert one("KF_NEW", fam("K:4"),
                   strict_applicability=True).verdict == "NOT_APPLICABLE"

    def test_kf_zt_equality_on_complete_multipartite(self):
        for label in ["K:4", "K:7", "S:5", "Kab:2:3", "Kab:3:3", "C:4", "K:2",
                      "Kme:5"]:
            r = one("KF_ZT", fam(label))
            assert r.verdict == "EQUALITY" and r.agreement, label

    def test_kf_zt_strict_elsewhere(self):
        # K_n minus an edge is complete multipartite, so it belongs in the
        # equality test above, not here
        for label in ["P:4", "C:5", "C:6", "TREE:8:3"]:
            r = one("KF_ZT", fam(label))
            assert r.verdict == "HOLDS" and r.agreement, label

    def test_kf_zt_known_values(self):
        r = one("KF_ZT", fam("P:4"))
        assert abs(r.lhs - 10.0) <= 1e-8   # resistance sum of the 4-path
        assert abs(r.rhs - 8.0) <= 1e-12

    def test_kf_zt_agreement_exhaustive_n4_n5(self):
        """Measured equality matches the complement-clique-union class."""
        from itertools import combinations
        for n in (4, 5):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
                g = lb.build_graph(n, edges)
                if len(lb.connected_components(g)) != 1:
                    continue
                r = one("KF_ZT", g)
                assert r.agreement, (n, edges, r)

    def test_kf_compare_never_violated(self):
        for label in ["K:3", "K:6", "S:8", "Kme:5", "Kme:7", "P:6", "C:7"]:
            r = one("KF_COMPARE", fam(label))
            assert r.verdict in ("HOLDS", "EQUALITY"), (label, r)

    def test_kf_compare_crossovers(self):
        # equal on stars and K_3, new side larger on K_n from 4 up,
        # zt side larger on K_n minus an edge until n = 7
        assert one("KF_COMPARE", fam("K:3")).verdict == "EQUALITY"
        assert one("KF_COMPARE", fam("S:7")).verdict == "EQUALITY"
        for n in range(4, 13):
            r = one("KF_COMPARE", fam(f"K:{n}"))
            assert r.margin > 0, n
        for n in range(4, 7):
            assert one("KF_COMPARE", fam(f"Kme:{n}")).margin < 0, n
        for n in range(7, 13):
            assert one("KF_COMPARE", fam(f"Kme:{n}")).margin > 0, n

    def test_kf_compare_record(self):
        cmp = lb.kf_compare(fam("K:4"))
        assert cmp.larger == "new"
        assert not cmp.new_valid and cmp.zt_valid
        assert abs(cmp.kf_actual - 3.0) <= 1e-8
        cmp = lb.kf_compare(fam("S:6"))
        assert cmp.larger == "equal" and cmp.new_valid and cmp.zt_valid
        cmp = lb.kf_compare(fam("Kme:5"))
        assert cmp.larger == "zt" and cmp.new_valid and cmp.zt_valid

    def test_kf_compare_validation(self):
        with pytest.raises(SequenceTooShortError):
            lb.kf_compare(fam("K:2"))
        with pytest.raises(DisconnectedGraphError):
            lb.kf_compare(fam("CLIQUES:3,2"))


class TestTreeBounds:
    def test_path_violates_upper_at_negative_alpha(self):
        r = one("R1_TREE_HIGH", fam("P:4"), -1.0)
        assert r.verdict == "VIOLATED"
        assert abs(r.lhs - 2.5) <= 1e-9
        assert abs(r.rhs - 0.75) <= 1e-12
        assert abs(r.margin - (-1.75)) <= 1e-9

    def test_path_holds_at_positive_alpha(self):
        r = one("R1_TREE_HIGH", fam("P:4"), 2.0)
        assert r.verdict == "HOLDS"
        assert abs(r.lhs - 16.0) <= 1e-6
        assert abs(r.rhs - 20.0) <= 1e-12

    def test_star_equality_both_branches(self):
        for a in (-2.0, -1.0, 2.0, 3.0):
            r = one("R1_TREE_HIGH", fam("S:6"), a)
            assert r.verdict == "EQUALITY" and r.agreement, a
        r = one("R1_TREE_LOW", fam("S:5"), 0.5)
        assert r.verdict == "EQUALITY"
        assert abs(r.lhs - (math.sqrt(5) + 3.0)) <= 1e-7

    def test_lower_branch_on_tree_corpus(self):
        for label, g in tree_corpus():
            r = one("R1_TREE_LOW", g, 0.5)
            assert r.verdict != "VIOLATED", label
            assert r.agreement, label

    def test_upper_branch_positive_alpha_on_tree_corpus(self):
        for label, g in tree_corpus():
            for a in (2.0, 3.0):
                r = one("R1_TREE_HIGH", g, a)
                assert r.verdict != "VIOLATED", (label, a)

    def test_upper_branch_negative_alpha_fails_exactly_off_stars(self):
        for label, g in tree_corpus():
            star = lb.classify(g).is_star
            for a in (-2.0, -1.0, -0.5):
                r = one("R1_TREE_HIGH", g, a)
                if g.n < 2:
                    assert r.verdict == "NOT_APPLICABLE"
                elif star:
                    assert r.verdict == "EQUALITY", (label, a)
                else:
                    assert r.verdict == "VIOLATED", (label, a)

    def test_not_applicable_off_trees(self):
        assert one("R1_TREE_HIGH", fam("K:4"), 2.0).verdict == \
            "NOT_APPLICABLE"
        assert one("R1_TREE_LOW", fam("C:5"), 0.5).verdict == \
            "NOT_APPLICABLE"


class TestMomentBound:
    def test_low_orders_are_identities(self):
        for label, g in named_corpus():
            for k in (1, 2):
                r = one("RP_MOMENT", g, k)
                assert r.verdict == "EQUALITY" and r.agreement, (label, k)

    def test_clique_union_equality_at_k3(self):
        r = one("RP_MOMENT", fam("CLIQUES:3,2"), 3)
        assert r.verdict == "EQUALITY"
        assert abs(r.lhs - 62.0) <= 1e-7 * 62
        assert abs(r.rhs - 62.0) <= 1e-12

    def test_path_strict_at_k3(self):
        r = one("RP_MOMENT", fam("P:3"), 3)
        assert r.verdict == "HOLDS" and r.agreement
        assert abs(r.lhs - 28.0) <= 1e-6
        assert abs(r.rhs - 26.0) <= 1e-12

    def test_higher_orders_tight_exactly_on_clique_unions(self):
        for label, g in clique_union_corpus():
            for k in (3, 4):
                r = one("RP_MOMENT", g, k)
                assert r.verdict == "EQUALITY" and r.agreement, (label, k)
        for label in ["P:5", "C:6", "Kme:4", "Kab:2:3"]:
            for k in (3, 4):
                r = one("RP_MOMENT", fam(label), k)
                assert r.verdict == "HOLDS" and r.agreement, (label, k)

    def test_single_vertex(self):
        r = one("RP_MOMENT", fam("K:1"), 3)
        assert r.verdict == "EQUALITY" and r.lhs == 0.0 and r.rhs == 0.0


class TestLeeBounds:
    def test_degree_bound_star_equality(self):
        r = one("LEE_DEGREE", fam("S:4"))
        assert r.verdict == "EQUALITY"
        expected = math.exp(4) + 2.0 * math.e + 1.0
        assert abs(r.lhs - expected) <= 1e-9 * expected

    def test_degree_bound_on_complete(self):
        r = one("LEE_DEGREE", fam("K:4"))
        assert r.verdict == "HOLDS"
        rhs = math.exp(4) + 2.0 * math.exp(3) + math.exp(2)
        assert abs(r.rhs - rhs) <= 1e-12

    def test_tree_bound(self):
        r = one("LEE_TREE", fam("S:6"))
        assert r.verdict == "EQUALITY"
        r = one("LEE_TREE", fam("P:4"))
        assert r.verdict == "HOLDS"
        rhs = 2.0 + math.exp(4) + math.exp(2)
        assert abs(r.rhs - rhs) <= 1e-12
        assert one("LEE_TREE", fam("K:4")).verdict == "NOT_APPLICABLE"

    def test_clique_bound_tight_on_unions(self):
        r = one("LEE_CLIQUE", fam("CLIQUES:3,2"))
        assert r.verdict == "EQUALITY"
        expected = 2.0 * math.exp(3) + math.exp(2) + 2.0
        assert abs(r.lhs - expected) <= 1e-9 * expected
        assert one("LEE_CLIQUE", fam("K:4")).verdict == "EQUALITY"
        assert one("LEE_CLIQUE", fam("P:4")).verdict == "HOLDS"

    def test_r2a_equalities(self):
        for label in ["K:3", "K:4", "K:8", "S:4", "S:6", "S:12"]:
            for bid in ("LEE_R2A_M", "LEE_R2A_T"):
                r = one(bid, fam(label))
                assert r.verdict == "EQUALITY" and r.agreement, (label, bid)

    def test_r2a_known_value_on_k4(self):
        expected = 1.0 + 3.0 * math.exp(4)
        for bid in ("LEE_R2A_M", "LEE_R2A_T"):
            r = one(bid, fam("K:4"))
            assert abs(r.rhs - expected) <= 1e-9 * expected, bid

    def test_r2a_strict_on_other_graphs(self):
        for label in ["P:4", "C:5", "Kme:5", "Kab:2:3"]:
            for bid in ("LEE_R2A_M", "LEE_R2A_T"):
                r = one(bid, fam(label))
                assert r.verdict == "HOLDS" and r.agreement, (label, bid)

    def test_r2b_strict_inequality(self):
        r = one("LEE_R2B", fam("K:4"))
        assert r.verdict == "HOLDS" and not r.predicted_equality
        lhs = 3.0 * math.exp(4) + 1.0 + 4.0
        rhs = 2.0 + 6.0 * math.exp(2)
        assert abs(r.lhs - lhs) <= 1e-9 * lhs
        assert abs(r.rhs - rhs) <= 1e-9 * rhs
        for label, g in named_corpus():
            if g.n < 2:
                continue
            r = one("LEE_R2B", g)
            assert r.verdict == "HOLDS" and r.margin > 0, label

    def test_r2c_equal_on_balanced_complete_bipartite(self):
        for label in ["Kab:2:2", "Kab:3:3", "C:4"]:
            for bid in ("LEE_R2C_M1", "LEE_R2C_T"):
                r = one(bid, fam(label))
                assert r.verdict == "EQUALITY" and r.agreement, (label, bid)

    def test_r2c_known_value_on_k33(self):
        expected = 1.0 + math.exp(6) + 4.0 * math.exp(3)
        for bid in ("LEE_R2C_M1", "LEE_R2C_T"):
            r = one(bid, fam("Kab:3:3"))
            assert abs(r.rhs - expected) <= 1e-9 * expected, bid

    def test_r2c_strict_on_unbalanced_bipartite(self):
        for label in ["S:5", "Kab:2:4", "P:6", "C:6"]:
            for bid in ("LEE_R2C_M1", "LEE_R2C_T"):
                r = one(bid, fam(label))
                assert r.verdict == "HOLDS" and r.agreement, (label, bid)

    def test_r2c_not_applicable_off_bipartite(self):
        assert one("LEE_R2C_M1", fam("K:4")).verdict == "NOT_APPLICABLE"
        assert one("LEE_R2C_T", fam("C:5")).verdict == "NOT_APPLICABLE"


class TestTreeCountRightHandSides:
    """LEE_R2A_T and LEE_R2C_T take t from the spectrum in the log domain;
    an oracle with the exact integer t must give the same right-hand sides."""

    @staticmethod
    def oracle(bound_id, g):
        n, t = g.n, lb.spanning_trees_exact(g)
        d = lb.degree_sequence(g)
        if bound_id == "LEE_R2A_T":
            expo = (t * n / (1.0 + d[0])) ** (1.0 / (n - 2))
            return 1.0 + math.exp(1 + d[0]) + (n - 2) * math.exp(expo)
        zagreb = lb.first_zagreb(g)
        root = math.sqrt(zagreb / n)
        expo = (t * n * math.sqrt(n) / (2.0 * math.sqrt(zagreb))) \
            ** (1.0 / (n - 2))
        return 1.0 + math.exp(2.0 * root) + (n - 2) * math.exp(expo)

    def check(self, label, g):
        for bid in ("LEE_R2A_T", "LEE_R2C_T"):
            r = one(bid, g)
            if r.applicable:
                expected = self.oracle(bid, g)
                assert abs(r.rhs - expected) <= 1e-12 * expected, (label, bid)

    def test_corpora(self):
        for label, g in named_corpus() + gnp_corpus() + tree_corpus():
            self.check(label, g)

    def test_equality_cases(self):
        labels = [f"K:{n}" for n in range(3, 65)]
        labels += [f"Kab:{a}:{b}" for a in range(1, 9) for b in range(a, 9)
                   if a + b >= 3]
        for label in labels:
            self.check(label, fam(label))

    def test_large_n_does_not_overflow(self):
        # t(K_180) = 180^178 is far beyond the float range
        results = lb.evaluate_catalog(fam("K:180"), (2.0,), (1,))
        r, = [r for r in results if r.bound_id == "LEE_R2A_T"]
        assert r.verdict == "EQUALITY" and r.agreement


class TestAgreementAcrossCorpora:
    def test_full_catalog_agreement_on_named_corpus(self):
        for label, g in named_corpus():
            for r in lb.evaluate_catalog(g, ALPHAS, KS):
                assert r.agreement, (label, r.bound_id, r.param, r.verdict)

    def test_full_catalog_agreement_on_random_corpus(self):
        for label, g in list(gnp_corpus())[:60]:
            for r in lb.evaluate_catalog(g, ALPHAS, KS):
                assert r.agreement, (label, r.bound_id, r.param, r.verdict)

    def test_catalog_reuses_context(self):
        g = fam("K:6")
        ctx = GraphContext(g)
        r1 = lb.evaluate_catalog(g, ALPHAS, KS, ctx=ctx)
        r2 = lb.evaluate_catalog(g, ALPHAS, KS)
        assert r1 == r2


@st.composite
def catalog_graphs(draw):
    """Random G(n, p), tree and clique-union graphs, as the fuzz models."""
    model = draw(st.sampled_from(("gnp", "tree", "clique-union")))
    n = draw(st.integers(min_value=1, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2 ** 64 - 1))
    if model == "gnp":
        p = draw(st.sampled_from((0.3, 0.5, 0.8, 1.0)))
        return lb.gnp_connected(n, p, seed)
    if model == "tree":
        return lb.random_tree(n, seed)
    sizes = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                          max_size=4))
    return lb.generate(lb.FamilySpec(kind="clique_union", sizes=tuple(sizes)))


ALPHA_GRIDS = st.lists(
    st.floats(min_value=-3.0, max_value=3.0).filter(
        lambda a: a not in (0.0, 1.0)) | st.sampled_from(ALPHAS),
    min_size=1, max_size=8)
K_GRIDS = st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                   max_size=6)


class TestOneRowPath:
    """evaluate_catalog and evaluate_bound share one row evaluator, and each
    invariant a row reads is computed once per graph."""

    @given(catalog_graphs(), ALPHA_GRIDS, K_GRIDS, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_catalog_rows_equal_single_evaluations(self, g, alphas, ks,
                                                   strict):
        rows = lb.evaluate_catalog(g, tuple(alphas), tuple(ks),
                                   strict_applicability=strict)
        keys = [(r.bound_id, r.param) for r in rows]
        assert len(set(keys)) == len(keys)
        for r in rows:
            single = lb.evaluate_bound(r.bound_id, g, r.param,
                                       strict_applicability=strict)
            # field for field, floats by ==: the same bits, not a tolerance
            assert r._asdict() == single._asdict()

    def test_each_invariant_once_per_graph(self, monkeypatch):
        calls = []
        bounds = lb.bounds

        def counting(name, original):
            def wrapped(spec, *args):
                calls.append((name,) + args)
                return original(spec, *args)
            return wrapped

        monkeypatch.setattr(bounds, "s_alpha",
                            counting("s_alpha", bounds.s_alpha))
        # the Kirchhoff index reads the shared s_{-1}: neither
        # spectra.kirchhoff nor any other spectra function sums it again
        spectra = lb.spectra
        monkeypatch.setattr(spectra, "kirchhoff",
                            counting("kirchhoff", spectra.kirchhoff))
        monkeypatch.setattr(spectra, "s_alpha",
                            counting("s_alpha", spectra.s_alpha))
        # each comparison sequence is derived once, whatever reads it
        sequences = ("grone_sequence", "merged_grone_sequence",
                     "conjugate_sequence")
        for name in sequences:
            monkeypatch.setattr(bounds, name,
                                counting(name, getattr(bounds, name)))
        # a tree: P1, P2, R1_TREE_*, LEE_* and RP_MOMENT all apply, and
        # alphas 2 and 3 meet the k = 2, 3 moments
        for label in ("TREE:9:4", "S:7", "P:6"):
            calls.clear()
            rows = lb.evaluate_catalog(fam(label), ALPHAS, KS)
            assert {r.bound_id for r in rows if r.applicable} >= {
                "P1_LOWER", "P2_LOWER", "KF_NEW", "KF_ZT", "KF_COMPARE",
                "R1_TREE_HIGH", "R1_TREE_LOW", "RP_MOMENT", "LEE_DEGREE",
                "LEE_TREE"}
            assert Counter(calls) == Counter(
                [(name,) for name in sequences]
                + [("s_alpha", a) for a in {*ALPHAS, *map(float, KS)}]), label

    def test_duplicate_grid_entries_give_one_row(self):
        g = fam("K:4")
        once = lb.evaluate_catalog(g, (2.0, -1.0), (2,))
        assert lb.evaluate_catalog(g, (2.0, -1.0, 2, -1.0), (2, 2)) == once

    def test_grid_types_are_checked_on_every_call(self):
        g = fam("K:4")
        lb.evaluate_catalog(g, ALPHAS, (1, 2))
        for ks in ((True, 2), (1.0, 2)):  # equal to (1, 2), yet not ints
            with pytest.raises(BadParameterError):
                lb.evaluate_catalog(g, ALPHAS, ks)

    def test_bound_result_is_immutable(self):
        r = one("KF_ZT", fam("K:4"))
        with pytest.raises(AttributeError):
            r.lhs = 0.0
        assert r == lb.BoundResult(**r._asdict())

    @pytest.mark.parametrize("make", [
        lambda: fam("K:4"),
        lambda: lb.classify(fam("K:4")),
        lambda: lb.spectrum(fam("K:4")),
        lambda: lb.parse_family("K:4")[0],
        lambda: CATALOG[0],
        lambda: lb.kf_compare(fam("K:4")),
        lambda: lb.check_grone((3, 3, 3, 3), lb.spectrum(fam("K:4"))),
    ], ids=["Graph", "GraphClass", "Spectrum", "FamilySpec", "BoundSpec",
            "KfComparison", "MajorizationVerdict"])
    def test_every_record_is_immutable(self, make):
        record = make()
        fields = getattr(record, "_fields", ("n", "masks"))
        before = [getattr(record, f) for f in fields]
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(record, f, 0)
            with pytest.raises(AttributeError):
                delattr(record, f)
        assert [getattr(record, f) for f in fields] == before
        assert record == make() and hash(record) == hash(make())


class TestAtlasCensus:
    """The catalog on every atlas graph (n = 1..7) through the lazy
    spectrum path, pinned by a digest of its verdicts."""

    def test_census_is_pinned(self):
        nx = pytest.importorskip("networkx")
        rows, results = [], []
        for i, G in enumerate(nx.graph_atlas_g()):
            if G.number_of_nodes() < 1:
                continue
            g = lb.build_graph(G.number_of_nodes(), G.edges())
            results.extend(lb.evaluate_catalog(g, ALPHAS, KS))
            rows.extend([i, r.bound_id, r.param, r.verdict,
                         r.predicted_equality, r.agreement]
                        for r in results[len(rows):])
        assert len({row[0] for row in rows}) == 1252 and len(rows) == 33804
        # solver drift shows here long before a verdict flips: measured
        # 3.9e-15 and 1.5e-3
        equal, other = separation(results)
        assert equal <= 1e-11 and other >= 1e-6, (equal, other)
        assert Counter(row[1] for row in rows if not row[5]) == {
            "P2_LOWER": 6, "KF_NEW": 2}
        assert Counter(row[1] for row in rows if row[3] == "VIOLATED") == {
            "R1_TREE_HIGH": 54, "P2_LOWER": 27, "KF_NEW": 9}
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "ad2060af7fe1970aabfbc1009c05281212f22932e8604b8165e4818be88813b5")


class TestVerdictScale:
    """The 1e-7 band is relative to max(|lhs|, |rhs|) alone, so two sides
    far below 1 that differ by a factor are not EQUALITY."""

    def check(self, label, alpha, capsys):
        code = cli.main(["check", "--family", label, f"--alphas={alpha}",
                         "--bounds", "P2_LOWER"])
        capsys.readouterr()
        return one("P2_LOWER", fam(label), alpha), code

    def test_k7_at_minus_ten_is_violated(self, capsys):
        # K_7: mu = 7 six times; merged sequence (7, 6, 6, 6, 6, 11)
        lhs = 6 * Fraction(7) ** -10
        rhs = Fraction(7) ** -10 + 4 * Fraction(6) ** -10 + Fraction(11) ** -10
        assert lhs < rhs < 1
        r, code = self.check("K:7", -10, capsys)
        assert r.lhs == pytest.approx(float(lhs), rel=1e-12)
        assert r.rhs == pytest.approx(float(rhs), rel=1e-12)
        assert r.verdict == "VIOLATED" and r.agreement and code == 2

    def test_c4_at_minus_thirty_holds(self, capsys):
        # C_4: mu = (4, 2, 2); merged sequence (3, 2, 3)
        lhs = Fraction(4) ** -30 + 2 * Fraction(2) ** -30
        rhs = 2 * Fraction(3) ** -30 + Fraction(2) ** -30
        assert lhs > rhs
        r, code = self.check("C:4", -30, capsys)
        assert r.lhs == pytest.approx(float(lhs), rel=1e-12)
        assert r.rhs == pytest.approx(float(rhs), rel=1e-12)
        assert r.verdict == "HOLDS" and r.agreement and code == 0


def tr_l2(g):
    """tr L^2 as the sum of the squared entries of the Laplacian."""
    return int((lb.laplacian(g) ** 2).sum())


class TestEqualityRule:
    """A majorization row predicts equality exactly when its comparison
    sequence is non-increasing and has the spectrum's sum of squares."""

    @given(graph_strategy(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_grone_identity(self, g):
        if g.n < 2:
            return
        ctx = GraphContext(g)
        d = ctx.degrees
        assert tr_l2(g) == ctx.zagreb + 2 * g.m
        assert sum(x * x for x in ctx.grone.c) - tr_l2(g) == (
            2 * (d[0] - d[-1] + 1 - g.m))

    @staticmethod
    def classes_agree(g):
        ctx = GraphContext(g)
        gc = ctx.gclass
        if not gc.is_connected or g.n < 2:
            return
        assert ctx.grone.monotone
        assert ctx.grone.equal == gc.is_star
        if g.n >= 3 and ctx.merged.monotone:
            assert ctx.merged.equal == (
                gc.is_star or (gc.is_complete and g.n == 3))
        if gc.is_tree:
            assert ctx.conjugate_head.equal == gc.is_star

    def test_classes_on_the_atlas(self):
        nx = pytest.importorskip("networkx")
        for G in nx.graph_atlas_g()[1:]:
            self.classes_agree(lb.build_graph(G.number_of_nodes(), G.edges()))

    @given(graph_strategy(max_n=9))
    @settings(max_examples=80, deadline=None)
    def test_classes_on_drawn_graphs(self, g):
        self.classes_agree(g)

    @given(st.integers(min_value=2, max_value=30),
           st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_classes_on_drawn_trees(self, n, seed):
        self.classes_agree(lb.random_tree(n, seed))

    def test_kme6_has_the_sum_of_squares_yet_is_unequal(self):
        # degrees (5, 5, 5, 5, 4, 4): merged (6, 5, 5, 5, 7) is not
        # non-increasing, and the spectrum is (6, 6, 6, 6, 4)
        g = fam("Kme:6")
        ctx = GraphContext(g)
        assert ctx.merged.c == (6, 5, 5, 5, 7)
        assert sum(x * x for x in ctx.merged.c) == tr_l2(g) == 160
        assert not ctx.merged.monotone and not ctx.merged.equal
        for r in lb.evaluate_catalog(g, ALPHAS, KS,
                                     bound_ids=("P2_LOWER", "KF_NEW")):
            assert r.verdict != "EQUALITY" and not r.predicted_equality

    def test_k122_stays_a_known_disagreement(self):
        # K_{1,2,2}: the spectrum (5, 5, 3, 3) is the merged sequence
        # (5, 3, 3, 5) as a multiset, which is not non-increasing; the rule
        # does not see it, and an exact certificate is still to come
        g = lb.build_graph(5, [(0, v) for v in range(1, 5)]
                           + [(u, v) for u in (1, 2) for v in (3, 4)])
        ctx = GraphContext(g)
        assert ctx.merged.c == (5, 3, 3, 5) and not ctx.merged.monotone
        for r in lb.evaluate_catalog(g, ALPHAS, KS, ctx=ctx,
                                     bound_ids=("P2_LOWER", "KF_NEW")):
            assert r.verdict == "EQUALITY" and not r.predicted_equality
            assert not r.agreement
        r = one("KF_COMPARE", g, ctx=ctx)
        assert r.verdict == "EQUALITY" and r.predicted_equality

    def test_kf_compare_prediction_is_the_fraction_identity(self):
        nx = pytest.importorskip("networkx")
        equal = 0
        for G in nx.graph_atlas_g()[1:]:
            g = lb.build_graph(G.number_of_nodes(), G.edges())
            ctx = GraphContext(g)
            if g.n < 3 or not ctx.gclass.is_connected:
                continue
            n, d = g.n, ctx.degrees
            exact = (n * sum(Fraction(1, x) for x in ctx.merged.c)
                     == (n - 1) * sum(Fraction(1, x) for x in d) - 1)
            assert one("KF_COMPARE", g, ctx=ctx).predicted_equality == exact
            equal += exact
        # the stars, K_3, K_{1,2,2} and the two K_1 joins of 3-regular graphs
        assert equal == 9


class TestAllTrees:
    """The catalog on every tree with n = 4..14, solved in spectra_of
    stacks, pinned by a digest of its verdicts."""

    def test_trees_are_pinned(self):
        nx = pytest.importorskip("networkx")
        rows, results, stars = [], [], set()
        i = 0
        for n in range(4, 15):
            graphs = [lb.build_graph(n, T.edges())
                      for T in nx.nonisomorphic_trees(n)]
            for g, spec in zip(graphs, lb.spectra_of(graphs)):
                ctx = GraphContext(g, spec)
                if ctx.gclass.is_star:
                    stars.add(i)
                results.extend(lb.evaluate_catalog(g, ALPHAS, KS, ctx=ctx))
                rows.extend([i, r.bound_id, r.param, r.verdict,
                             r.predicted_equality, r.agreement]
                            for r in results[len(rows):])
                i += 1
        assert i == 5444 and len(stars) == 11
        assert len(rows) == 146988 and all(row[5] for row in rows)
        assert Counter(row[3] for row in rows) == {
            "HOLDS": 119592, "VIOLATED": 16299, "EQUALITY": 11097}
        high = [row for row in rows
                if row[1] == "R1_TREE_HIGH" and row[2] < 0]
        assert all((row[3] == "VIOLATED") == (row[0] not in stars)
                   for row in high)
        assert sum(row[3] == "VIOLATED" for row in rows) == 16299
        majorization_rows = {"P1_LOWER", "P1_UPPER", "P2_LOWER", "KF_NEW",
                             "R1_TREE_HIGH", "R1_TREE_LOW", "LEE_DEGREE",
                             "LEE_TREE"}
        assert all(row[3] == "EQUALITY" for row in rows
                   if row[0] in stars and row[1] in majorization_rows)
        # measured 1.9e-14 and 3.1e-3
        equal, other = separation(results)
        assert equal <= 1e-11 and other >= 1e-6, (equal, other)
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "bf185a6f87327d594203a4ee0c6169a5ab1358e7c599ec6fe5a87f5cd6726ce1")
