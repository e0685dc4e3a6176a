"""End-to-end acceptance checklist.

Each criterion prints one ACCEPTANCE <id> PASS/FAIL line directly to the
terminal (bypassing capture) and is additionally visible as a test result
under pytest -v. Tolerances and exact values are pinned here on purpose;
when an assertion trips, the right response is to investigate the engine,
not to loosen the check.
"""
import contextlib
import json
import math
from fractions import Fraction

import pytest

import lapbounds as lb
from lapbounds.cli import main
from lapbounds.rng import SplitMix64, splitmix64
from conftest import clique_union_corpus, gnp_corpus, named_corpus, tree_corpus

ALPHAS = (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)
KS = (1, 2, 3, 4)


@pytest.fixture
def criterion(capfd):
    """Context manager that prints one uncaptured PASS/FAIL line."""

    @contextlib.contextmanager
    def _criterion(num, description):
        def emit(outcome):
            with capfd.disabled():
                print(f"ACCEPTANCE {num:02d} {outcome}  {description}",
                      flush=True)

        try:
            yield
        except BaseException:
            emit("FAIL")
            raise
        emit("PASS")

    return _criterion


def all_corpora():
    return (list(named_corpus()) + list(gnp_corpus())
            + list(tree_corpus()) + list(clique_union_corpus()))


def connected_corpora():
    return [(label, g) for label, g in all_corpora()
            if len(lb.connected_components(g)) == 1]


def test_criterion_01_spectrum_invariants(criterion):
    with criterion(1, "spectrum invariants on 200 random and all named graphs"):
        corpus = list(named_corpus()) + list(gnp_corpus(count=200))
        assert len(list(gnp_corpus(count=200))) == 200
        for label, g in corpus:
            spec = lb.spectrum(g)
            cc = len(lb.connected_components(g))
            two_m = 2.0 * g.m
            assert abs(sum(spec.mu) - two_m) <= 1e-9 * max(1.0, two_m), label
            assert sum(1 for v in spec.mu if v == 0.0) == cc, label
            assert spec.component_count == cc and spec.h == g.n - cc, label
            assert all(spec.mu[i] >= spec.mu[i + 1]
                       for i in range(g.n - 1)), label
            assert all(v <= g.n + 1e-9 * g.n for v in spec.mu), label
            if cc == 1 and g.n >= 2:
                d1 = lb.degree_sequence(g)[0]
                assert spec.mu[0] >= d1 + 1 - 1e-9, label


def test_criterion_02_power_sums_and_series(criterion):
    with criterion(2, "s_0 = h, s_1 = 2m, and the exponential series identity"):
        for label, g in all_corpora():
            spec = lb.spectrum(g)
            if spec.h > 0:
                assert lb.s_alpha(spec, 0.0) == float(spec.h), label
            else:
                with pytest.raises(lb.NoNonzeroEigenvaluesError):
                    lb.s_alpha(spec, 0.0)
            s1 = lb.s_alpha(spec, 1.0)
            assert abs(s1 - 2.0 * g.m) <= 1e-9 * max(1.0, 2.0 * g.m), label
            series = float(g.n)
            fact = 1.0
            for k in range(1, 81):
                fact *= k
                series += lb.s_alpha(spec, float(k)) / fact
            direct = lb.lee(spec)
            assert abs(direct - series) <= 1e-9 * max(1.0, direct), label


def test_criterion_03_power_sum_bound_first_family(criterion):
    with criterion(3, "first degree-sequence bound: values and equality class"):
        r = lb.evaluate_bound("P1_LOWER", _fam("S:6"), 2.0)
        assert r.verdict == "EQUALITY"
        assert abs(r.lhs - 40.0) <= 1e-7 * 40 and abs(r.rhs - 40.0) <= 1e-12
        r = lb.evaluate_bound("P1_LOWER", _fam("K:4"), 2.0)
        assert r.verdict == "HOLDS"
        assert abs(r.lhs - 48.0) <= 1e-7 * 48 and abs(r.rhs - 38.0) <= 1e-12
        for label, g in connected_corpora():
            if g.n < 2:
                continue
            is_star = lb.classify(g).is_star
            for a in (2.0, 3.0):
                r = lb.evaluate_bound("P1_LOWER", g, a)
                assert (r.verdict == "EQUALITY") == is_star, (label, a)
                assert r.agreement, (label, a)
            r = lb.evaluate_bound("P1_UPPER", g, 0.5)
            assert (r.verdict == "EQUALITY") == is_star, label
            assert r.agreement, label


def test_criterion_04_negative_exponent_bound_and_strict_mode(criterion):
    with criterion(4, "negative-exponent bound: equalities, the K_4 "
                      "counterexample, strict mode"):
        for n in range(3, 13):
            for a in (-2.0, -1.0, -0.5):
                r = lb.evaluate_bound("P2_LOWER", _fam(f"S:{n}"), a)
                assert r.verdict == "EQUALITY", (n, a)
        for a in (-2.0, -1.0, -0.5):
            assert lb.evaluate_bound("P2_LOWER", _fam("K:3"), a).verdict == \
                "EQUALITY"
        r = lb.evaluate_bound("P2_LOWER", _fam("K:4"), -1.0)
        assert r.verdict == "VIOLATED"
        assert abs(r.margin - float(Fraction(-1, 30))) <= 1e-9
        r = lb.evaluate_bound("P2_LOWER", _fam("K:4"), -1.0,
                              strict_applicability=True)
        assert r.verdict == "NOT_APPLICABLE"
        for label, g in all_corpora():
            for bid, params in (("P2_LOWER", (-2.0, -1.0, -0.5)),
                                ("KF_NEW", (None,))):
                for p in params:
                    r = lb.evaluate_bound(bid, g, p,
                                          strict_applicability=True)
                    assert r.verdict != "VIOLATED", (label, bid, p)


def test_criterion_05_kirchhoff_values_and_bound_pair(criterion):
    with criterion(5, "resistance index values and the two lower bounds"):
        assert abs(lb.kirchhoff(lb.spectrum(_fam("K:3"))) - 2.0) <= 1e-8
        assert abs(lb.kirchhoff(lb.spectrum(_fam("S:4"))) - 9.0) <= 1e-7
        assert abs(lb.kirchhoff(lb.spectrum(_fam("K:4"))) - 3.0) <= 1e-8
        assert lb.evaluate_bound("KF_NEW", _fam("K:4")).verdict == "VIOLATED"
        assert lb.evaluate_bound("KF_ZT", _fam("K:4")).verdict == "EQUALITY"
        assert lb.kf_compare(_fam("K:3")).larger == "equal"
        for n in range(4, 13):
            cmp = lb.kf_compare(_fam(f"K:{n}"))
            assert cmp.larger == "new" and cmp.zt_valid, n
            assert not cmp.new_valid, n
        for n in range(4, 7):
            assert lb.kf_compare(_fam(f"Kme:{n}")).larger == "zt", n
        for n in range(7, 13):
            assert lb.kf_compare(_fam(f"Kme:{n}")).larger == "new", n


def test_criterion_06_moment_bound_tightness(criterion):
    with criterion(6, "moment bound: identities at k = 1, 2 and the "
                      "clique-union equality class at k = 3, 4"):
        corpus = all_corpora()
        for label, g in corpus:
            for k in (1, 2):
                r = lb.evaluate_bound("RP_MOMENT", g, k)
                assert r.verdict == "EQUALITY", (label, k)
        assert len(list(clique_union_corpus())) == 50
        for label, g in corpus:
            is_cu = lb.classify(g).is_clique_union
            for k in (3, 4):
                r = lb.evaluate_bound("RP_MOMENT", g, k)
                assert (r.verdict == "EQUALITY") == is_cu, (label, k)
                assert r.agreement, (label, k)


def test_criterion_07_exponential_lower_and_upper_bounds(criterion):
    with criterion(7, "exponential-index bounds: no violations, equality "
                      "families recognized"):
        ids = ("LEE_DEGREE", "LEE_TREE", "LEE_CLIQUE", "LEE_R2A_M",
               "LEE_R2A_T", "LEE_R2C_M1", "LEE_R2C_T")
        seen_equality = {bid: 0 for bid in ids}
        for label, g in all_corpora():
            for bid in ids:
                r = lb.evaluate_bound(bid, g)
                assert r.verdict != "VIOLATED", (label, bid)
                assert r.agreement, (label, bid)
                if r.verdict == "EQUALITY":
                    seen_equality[bid] += 1
        # every equality family is represented in the corpus
        assert all(seen_equality[bid] > 0 for bid in ids), seen_equality


def test_criterion_08_complement_sum_strict_bound(criterion):
    with criterion(8, "strict complement-sum bound has positive margin "
                      "everywhere"):
        for label, g in all_corpora():
            if g.n < 2:
                continue
            r = lb.evaluate_bound("LEE_R2B", g)
            assert r.verdict == "HOLDS" and r.margin > 0.0, label
            assert not r.predicted_equality


def test_criterion_09_majorization_checks(criterion):
    with criterion(9, "degree-sequence majorization holds; pinches order "
                      "power sums strictly"):
        for label, g in connected_corpora():
            if g.n >= 2:
                degrees, spec = lb.degree_sequence(g), lb.spectrum(g)
                assert lb.check_grone(degrees, spec).holds, label
        trees = list(tree_corpus())
        assert len(trees) == 100
        for label, g in trees:
            degrees, spec = lb.degree_sequence(g), lb.spectrum(g)
            assert lb.check_grone_merris(degrees, spec).holds, label
        accepted = 0
        trial = 0
        while accepted < 1000:
            rng = SplitMix64(splitmix64(90210, trial))
            trial += 1
            n = rng.randrange(3, 8)
            x = tuple(sorted((0.5 + 4.0 * rng.uniform() for _ in range(n)),
                             reverse=True))
            i = rng.below(n - 1)
            j = i + 1 + rng.below(n - i - 1)
            if x[i] - x[j] <= 2e-3:
                continue
            eps = max(1e-3, 0.25 * (x[i] - x[j]))
            y = lb.pinch(x, i, j, eps)
            assert lb.majorizes(y, x).holds
            for a in (-1.0, -0.5, 2.0, 3.0):
                assert lb.power_sum(x, a) - lb.power_sum(y, a) > 1e-12, \
                    (trial, a)
            assert lb.power_sum(y, 0.5) - lb.power_sum(x, 0.5) > 1e-12, trial
            accepted += 1
        assert trial < 3000


def test_criterion_10_spanning_tree_counts(criterion):
    with criterion(10, "exact spanning-tree counts and the spectral "
                       "cross-check"):
        assert lb.spanning_trees_exact(_fam("K:4")) == 16
        assert lb.spanning_trees_exact(_fam("K:5")) == 125
        assert lb.spanning_trees_exact(_fam("C:4")) == 4
        for label, g in tree_corpus():
            assert lb.spanning_trees_exact(g) == 1, label
        for label, g in connected_corpora():
            exact = lb.spanning_trees_exact(g)
            approx = math.exp(lb.log_spanning_trees(lb.spectrum(g)))
            assert abs(approx - exact) <= 1e-6 * max(1.0, exact), label


def test_criterion_11_fuzz_determinism_and_round_trip(criterion, tmp_path, capfd):
    with criterion(11, "seeded fuzzing is byte-identical and violation "
                       "records replay"):
        argv = ["fuzz", "--seed", "7", "--count", "100",
                "--out-dir", str(tmp_path / "a")]
        code1 = main(argv)
        out1 = capfd.readouterr()[0]
        argv[-1] = str(tmp_path / "b")
        code2 = main(argv)
        out2 = capfd.readouterr()[0]
        assert out1.encode() == out2.encode()
        assert code1 == code2
        report = json.loads(out1)
        for v in report["violations"]:
            g = lb.parse_edge_list(
                (tmp_path / "a" / v["file"]).read_text())
            r = lb.evaluate_bound(v["bound_id"], g, v["param"])
            assert r.verdict == "VIOLATED"
            assert abs(r.lhs - v["lhs"]) <= 1e-12 * max(1.0, abs(v["lhs"]))
            assert abs(r.rhs - v["rhs"]) <= 1e-12 * max(1.0, abs(v["rhs"]))


def _fam(text):
    return lb.generate(lb.parse_family(text)[0])
