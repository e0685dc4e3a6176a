"""Catalog of degree-sequence bounds on spectral invariants, with verdicts.

Every catalog entry is evaluated at face value, exactly as stated: validity is
a measured outcome, not an assumption, and a VIOLATED verdict is a result, not
an error. Two entries (P2_LOWER and the Kf bound derived from it, KF_NEW) are
genuinely violated on some dense graphs whose merged degree sequence is not
non-increasing; --strict-applicability narrows them to the monotone case.
The tree bound R1_TREE_HIGH is likewise violated at negative exponents on
non-star trees. The harness reports all of this as-is.

Bound ids are stable strings used by the CLI and in reports. CATALOG below is
the one declaration of every entry: its id, direction, parameter range,
applicability and predicted equality class.

KF_COMPARE is a comparison record, not a bound: lhs is the KF_NEW right-hand
side and rhs the KF_ZT right-hand side, so its margin reports which of the two
Kf lower bounds is larger on this graph. It is never VIOLATED.

Predicted equality. Eight rows are majorization rows: they sum one function f
over the Laplacian spectrum mu and over an integer sequence c taken from the
degrees. P1_LOWER, P1_UPPER and LEE_DEGREE take the Grone sequence, P2_LOWER
and KF_NEW the merged Grone sequence, R1_TREE_HIGH, R1_TREE_LOW and LEE_TREE
the positive conjugate entries; majorization.py declares each sequence, and
GraphContext takes it once per graph, as a Comparison. Such a row predicts
equality exactly when mu, less the zeros c leaves out, is c. When c is
non-increasing it is majorized by mu (Grone; for the merged sequence, the
premise of P2_LOWER) or majorizes it (Grone-Merris), and x^2 is strictly
Schur-convex, so the two are equal exactly when sum c_i^2 = tr L^2 =
sum d_i^2 + 2m: an integer test. KF_COMPARE's two sides are rationals in the
degrees, so its equality is decided exactly. The other rows predict a graph
class.
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, NamedTuple, Optional, Union

from .errors import (BadParameterError, DisconnectedGraphError,
                     SequenceTooShortError, UnknownBoundError)
from .graphs import (Graph, GraphClass, classify, degree_sequence,
                     conjugate_sequence, first_zagreb)
from .majorization import grone_sequence, merged_grone_sequence, power_sum
from .spectra import (Spectrum, complement_spectrum, kirchhoff, lee,
                      log_spanning_trees, s_alpha, spectrum)

EQUALITY_REL_TOL = 1e-7

HOLDS = "HOLDS"
EQUALITY = "EQUALITY"
VIOLATED = "VIOLATED"
NOT_APPLICABLE = "NOT_APPLICABLE"

Param = Union[float, int, None]


class Comparison(NamedTuple):
    """A majorization row's sequence c, whether it is non-increasing, and
    whether the spectrum is c: c non-increasing and sum c_i^2 = tr L^2 =
    sum d_i^2 + 2m (see the module docstring)."""

    c: tuple[int, ...]
    monotone: bool
    equal: bool

    def ends_first(self, f: Callable[[int], float]) -> float:
        """f(c_1) + (f over c_2..c_{k-1}, summed from 0) + f(c_k), the order
        the reports were recorded in; f is exp, or a.__rpow__ for x^a."""
        c = self.c
        return f(c[0]) + sum(map(f, c[1:-1])) + f(c[-1])


class GraphContext:
    """Per-graph cache shared by the evaluators of all catalog entries.

    Every invariant a catalog row reads is computed here, once per graph:
    the rows only combine them. spec, when given, is g's spectrum solved
    beforehand (the CLI solves a chunk of graphs together with spectra_of);
    otherwise it is solved on first use.
    """

    def __init__(self, g: Graph, spec: Optional[Spectrum] = None):
        self.graph = g
        self._s_alpha: dict[float, float] = {}
        if spec is not None:
            self.spec = spec

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return degree_sequence(self.graph)

    @cached_property
    def conjugate(self) -> tuple[int, ...]:
        return conjugate_sequence(self.degrees)

    @cached_property
    def gclass(self) -> GraphClass:
        return classify(self.graph)

    @cached_property
    def spec(self) -> Spectrum:
        return spectrum(self.graph)

    def s_alpha(self, alpha: float) -> float:
        """s_alpha(spec, alpha), computed once per alpha."""
        try:
            return self._s_alpha[alpha]
        except KeyError:
            value = self._s_alpha[alpha] = s_alpha(self.spec, alpha)
            return value

    @cached_property
    def kirchhoff(self) -> float:
        """kirchhoff(spec), from the s_{-1} that the rows share."""
        spec = self.spec
        if spec.component_count == 1 and spec.n > 1:
            return spec.n * self.s_alpha(-1.0)
        return kirchhoff(spec)  # raises, or gives 0.0 for n = 1

    @cached_property
    def grone(self) -> Comparison:
        return self._comparison(*grone_sequence(self.degrees))

    @cached_property
    def merged(self) -> Comparison:
        return self._comparison(*merged_grone_sequence(self.degrees))

    @cached_property
    def conjugate_head(self) -> Comparison:
        return self._comparison(self.conjugate[:self.degrees[0]], True)

    def _comparison(self, c: tuple[int, ...], monotone: bool) -> Comparison:
        return Comparison(c, monotone, monotone and sum(map(mul, c, c))
                          == self.zagreb + 2 * self.graph.m)

    @cached_property
    def kf_new_rhs(self) -> float:
        return self.graph.n * self.merged.ends_first((-1.0).__rpow__)

    @cached_property
    def kf_zt_rhs(self) -> float:
        return -1.0 + (self.graph.n - 1) * sum(1.0 / x for x in self.degrees)

    @cached_property
    def lee_value(self) -> float:
        return lee(self.spec)

    @cached_property
    def complement_lee(self) -> float:
        return lee(complement_spectrum(
            self.spec, self.graph.m, self.gclass.complement_component_count))

    @cached_property
    def log_tree_count(self) -> float:
        return log_spanning_trees(self.spec)

    @cached_property
    def zagreb(self) -> int:
        return first_zagreb(self.graph)


def _alpha_above_1(a: float) -> bool:
    return a > 1.0


def _alpha_unit(a: float) -> bool:
    return 0.0 < a < 1.0


def _alpha_negative(a: float) -> bool:
    return a < 0.0


def _alpha_tree_high(a: float) -> bool:
    return a > 1.0 or a < 0.0


def _connected_n(minimum: int) -> Callable[[GraphContext], bool]:
    return lambda ctx: ctx.gclass.is_connected and ctx.graph.n >= minimum


def _tree(ctx: GraphContext) -> bool:
    return ctx.gclass.is_tree and ctx.graph.n >= 2


def _any_n2(ctx: GraphContext) -> bool:
    return ctx.graph.n >= 2


def _always(ctx: GraphContext) -> bool:
    return True


def _bip_n3(ctx: GraphContext) -> bool:
    return (ctx.gclass.is_connected and ctx.gclass.is_bipartite
            and ctx.graph.n >= 3)


def _rp_rhs(ctx: GraphContext, k: int) -> float:
    return float(sum(x * (1 + x) ** (k - 1) for x in ctx.degrees))


def _lee_clique_rhs(ctx: GraphContext) -> float:
    acc = 0.0
    for x in ctx.degrees:
        acc += x / (1.0 + x) * (math.exp(1.0 + x) - 1.0)
    return ctx.graph.n + acc


def _lee_r2(n: int, a: float, b: float) -> float:
    """1 + e^a + (n - 2) e^b: the right-hand side of every LEE_R2 row but
    LEE_R2B."""
    return 1.0 + math.exp(a) + (n - 2) * math.exp(b)


def _tree_root(ctx: GraphContext, base: float) -> float:
    """(t base)^(1/(n-2)), with the spanning-tree count t only ever in the
    log domain."""
    return math.exp((ctx.log_tree_count + math.log(base)) / (ctx.graph.n - 2))


def _lee_r2a_m_rhs(ctx: GraphContext) -> float:
    n, m = ctx.graph.n, ctx.graph.m
    d1 = ctx.degrees[0]
    return _lee_r2(n, 1 + d1, (2 * m - 1 - d1) / (n - 2))


def _lee_r2a_t_rhs(ctx: GraphContext) -> float:
    n = ctx.graph.n
    d1 = ctx.degrees[0]
    return _lee_r2(n, 1 + d1, _tree_root(ctx, n / (1.0 + d1)))


def _lee_r2b_lhs(ctx: GraphContext) -> float:
    return ctx.lee_value + ctx.complement_lee


def _lee_r2b_rhs(ctx: GraphContext) -> float:
    n = ctx.graph.n
    return 2.0 + 2.0 * (n - 1) * math.exp(n / 2.0)


def _lee_r2c_m1_rhs(ctx: GraphContext) -> float:
    n, m = ctx.graph.n, ctx.graph.m
    root = math.sqrt(ctx.zagreb / n)
    return _lee_r2(n, 2.0 * root, (2 * m - 2.0 * root) / (n - 2))


def _lee_r2c_t_rhs(ctx: GraphContext) -> float:
    n = ctx.graph.n
    root = math.sqrt(ctx.zagreb / n)
    base = n * math.sqrt(n) / (2.0 * math.sqrt(ctx.zagreb))
    return _lee_r2(n, 2.0 * root, _tree_root(ctx, base))


def _eq_kf_compare(ctx: GraphContext, param: Param) -> bool:
    # n sum 1/c over the merged sequence against (n - 1) sum 1/d - 1, both
    # times the common denominator: exact, and cheaper than Fraction
    n, d, c = ctx.graph.n, ctx.degrees, ctx.merged.c
    den = math.lcm(*{*d, *c})
    return (n * sum(map(den.__floordiv__, c))
            == (n - 1) * sum(map(den.__floordiv__, d)) - den)


def _eq_complete_or_star(ctx: GraphContext, param: Param) -> bool:
    return ctx.gclass.is_complete or ctx.gclass.is_star


def _eq_clique_union(ctx: GraphContext, param: Param) -> bool:
    return ctx.gclass.is_clique_union


def _eq_rp(ctx: GraphContext, param: Param) -> bool:
    if param in (1, 2):
        return True
    return ctx.gclass.is_clique_union


def _eq_balanced_bipartite(ctx: GraphContext, param: Param) -> bool:
    return ctx.gclass.is_balanced_complete_bipartite


def _eq_complete_multipartite(ctx: GraphContext, param: Param) -> bool:
    # measured equality family: complement is a union of cliques
    return ctx.gclass.is_complete_multipartite


def _eq_never(ctx: GraphContext, param: Param) -> bool:
    return False


class BoundSpec(NamedTuple):
    """One catalog entry: predicates plus lhs/rhs evaluators."""

    bound_id: str
    direction: str  # "lower" | "upper" | "strict_lower" | "compare"
    param_kind: Optional[str]  # "alpha" | "k" | None
    # the entry's range within the legal parameters; None takes them all
    param_ok: Optional[Callable[[float], bool]]
    applies: Callable[[GraphContext], bool]
    lhs: Callable[[GraphContext, Param], float]
    rhs: Callable[[GraphContext, Param], float]
    predicts_equality: Callable[[GraphContext, Param], bool]
    strict_toggle: bool = False  # --strict-applicability adds the monotone gate


def _lhs_s_alpha(ctx: GraphContext, a: Param) -> float:
    return ctx.s_alpha(float(a))


def _lhs_lee(ctx: GraphContext, param: Param) -> float:
    return ctx.lee_value


CATALOG: tuple[BoundSpec, ...] = (
    BoundSpec("P1_LOWER", "lower", "alpha", _alpha_above_1, _connected_n(2),
              _lhs_s_alpha, lambda ctx, a: ctx.grone.ends_first(a.__rpow__),
              lambda ctx, p: ctx.grone.equal),
    BoundSpec("P1_UPPER", "upper", "alpha", _alpha_unit, _connected_n(2),
              _lhs_s_alpha, lambda ctx, a: ctx.grone.ends_first(a.__rpow__),
              lambda ctx, p: ctx.grone.equal),
    BoundSpec("P2_LOWER", "lower", "alpha", _alpha_negative, _connected_n(3),
              _lhs_s_alpha, lambda ctx, a: ctx.merged.ends_first(a.__rpow__),
              lambda ctx, p: ctx.merged.equal, strict_toggle=True),
    BoundSpec("KF_NEW", "lower", None, None, _connected_n(3),
              lambda ctx, p: ctx.kirchhoff, lambda ctx, p: ctx.kf_new_rhs,
              lambda ctx, p: ctx.merged.equal, strict_toggle=True),
    BoundSpec("KF_ZT", "lower", None, None, _connected_n(2),
              lambda ctx, p: ctx.kirchhoff, lambda ctx, p: ctx.kf_zt_rhs,
              _eq_complete_multipartite),
    BoundSpec("KF_COMPARE", "compare", None, None, _connected_n(3),
              lambda ctx, p: ctx.kf_new_rhs, lambda ctx, p: ctx.kf_zt_rhs,
              _eq_kf_compare),
    BoundSpec("R1_TREE_HIGH", "upper", "alpha", _alpha_tree_high, _tree,
              _lhs_s_alpha, lambda ctx, a: power_sum(ctx.conjugate_head.c, a),
              lambda ctx, p: ctx.conjugate_head.equal),
    BoundSpec("R1_TREE_LOW", "lower", "alpha", _alpha_unit, _tree,
              _lhs_s_alpha, lambda ctx, a: power_sum(ctx.conjugate_head.c, a),
              lambda ctx, p: ctx.conjugate_head.equal),
    BoundSpec("RP_MOMENT", "lower", "k", None, _always,
              _lhs_s_alpha, _rp_rhs, _eq_rp),
    BoundSpec("LEE_DEGREE", "lower", None, None, _connected_n(2),
              _lhs_lee, lambda ctx, p: ctx.grone.ends_first(math.exp),
              lambda ctx, p: ctx.grone.equal),
    BoundSpec("LEE_TREE", "upper", None, None, _tree, _lhs_lee,
              lambda ctx, p: (ctx.graph.n - len(ctx.conjugate_head.c)
                              + sum(map(math.exp, ctx.conjugate_head.c))),
              lambda ctx, p: ctx.conjugate_head.equal),
    BoundSpec("LEE_CLIQUE", "lower", None, None, _any_n2,
              _lhs_lee, lambda ctx, p: _lee_clique_rhs(ctx), _eq_clique_union),
    BoundSpec("LEE_R2A_M", "lower", None, None, _connected_n(3),
              _lhs_lee, lambda ctx, p: _lee_r2a_m_rhs(ctx),
              _eq_complete_or_star),
    BoundSpec("LEE_R2A_T", "lower", None, None, _connected_n(3),
              _lhs_lee, lambda ctx, p: _lee_r2a_t_rhs(ctx),
              _eq_complete_or_star),
    BoundSpec("LEE_R2B", "strict_lower", None, None, _any_n2,
              lambda ctx, p: _lee_r2b_lhs(ctx), lambda ctx, p: _lee_r2b_rhs(ctx),
              _eq_never),
    BoundSpec("LEE_R2C_M1", "lower", None, None, _bip_n3,
              _lhs_lee, lambda ctx, p: _lee_r2c_m1_rhs(ctx),
              _eq_balanced_bipartite),
    BoundSpec("LEE_R2C_T", "lower", None, None, _bip_n3,
              _lhs_lee, lambda ctx, p: _lee_r2c_t_rhs(ctx),
              _eq_balanced_bipartite),
)

BOUND_IDS: tuple[str, ...] = tuple(spec.bound_id for spec in CATALOG)
_BY_ID = {spec.bound_id: spec for spec in CATALOG}


class BoundResult(NamedTuple):
    """Verdict for one (bound, parameter) pair on one graph."""

    bound_id: str
    param: Param
    applicable: bool
    lhs: Optional[float]
    rhs: Optional[float]
    margin: Optional[float]
    verdict: str
    predicted_equality: bool
    agreement: bool


def _legal(kind: str, value) -> Union[float, int, str]:
    """The one legality check of the catalog's inputs; returns value in
    canonical form.

    kind is "alpha", "k" or "bound": an alpha is a finite float other than
    the trivial exponents 0 and 1, a k is an int (not a bool) >= 1, and a
    bound id is one of BOUND_IDS. evaluate_catalog, evaluate_bound and the
    CLI's grid parsers all check each value here.
    """
    if kind == "bound":
        if value not in _BY_ID:
            raise UnknownBoundError(f"unknown bound id {value!r}")
        return value
    if kind == "k":
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise BadParameterError(
                f"k must be an integer >= 1, got {value!r}")
        return value
    alpha = float(value)
    if not math.isfinite(alpha):
        raise BadParameterError(f"alpha must be finite, got {alpha!r}")
    if alpha in (0.0, 1.0):
        raise BadParameterError(
            "alpha grid must avoid the trivial exponents 0 and 1")
    return alpha


def _check_param(spec: BoundSpec, param: Param) -> Param:
    if spec.param_kind is None:
        if param is not None:
            raise BadParameterError(f"{spec.bound_id} takes no parameter")
        return None
    if param is None:
        raise BadParameterError(f"{spec.bound_id} needs a {spec.param_kind}")
    param = _legal(spec.param_kind, param)
    if spec.param_ok is not None and not spec.param_ok(param):
        raise BadParameterError(
            f"parameter {param} outside the legal range of {spec.bound_id}")
    return param


def _context(g: Graph, ctx: Optional[GraphContext]) -> GraphContext:
    if ctx is None:
        return GraphContext(g)
    if ctx.graph is not g and ctx.graph != g:
        raise ValueError("context belongs to a different graph")
    return ctx


def _not_applicable(spec: BoundSpec, param: Param) -> BoundResult:
    return BoundResult(bound_id=spec.bound_id, param=param, applicable=False,
                       lhs=None, rhs=None, margin=None,
                       verdict=NOT_APPLICABLE, predicted_equality=False,
                       agreement=True)


def _evaluate(spec: BoundSpec, param: Param, ctx: GraphContext,
              strict_applicability: bool) -> Optional[BoundResult]:
    """The one row evaluator; param is already checked against spec.

    None when the entry does not apply to the graph: the NOT_APPLICABLE row
    depends on (spec, param) alone, so the caller supplies it.
    """
    # one unpacking: a NamedTuple field read costs more than a local
    (bound_id, direction, _, _, applies, lhs_of, rhs_of, predicts_equality,
     strict_toggle) = spec
    if not applies(ctx):
        return None
    if strict_applicability and strict_toggle and not ctx.merged.monotone:
        return None

    lhs = lhs_of(ctx, param)
    rhs = rhs_of(ctx, param)
    scale = max(abs(lhs), abs(rhs))
    if direction in ("lower", "strict_lower", "compare"):
        margin = lhs - rhs
    else:
        margin = rhs - lhs
    if abs(lhs - rhs) <= EQUALITY_REL_TOL * scale:
        verdict = EQUALITY
    elif margin < -EQUALITY_REL_TOL * scale and direction != "compare":
        verdict = VIOLATED
    else:
        verdict = HOLDS
    predicted = predicts_equality(ctx, param)
    agreement = (verdict == EQUALITY) == predicted
    # positional: a keyword call costs twice as much per row
    return BoundResult(bound_id, param, True, lhs, rhs, margin, verdict,
                       predicted, agreement)


def evaluate_bound(bound_id: str, g: Graph, param: Param = None, *,
                   strict_applicability: bool = False,
                   ctx: Optional[GraphContext] = None) -> BoundResult:
    """Evaluate one catalog entry on a graph.

    Inapplicable graphs yield NOT_APPLICABLE with empty numeric fields; a
    wrong parameter raises BadParameterError; an unknown id raises
    UnknownBoundError.
    """
    spec = _BY_ID[_legal("bound", bound_id)]
    param = _check_param(spec, param)
    return (_evaluate(spec, param, _context(g, ctx), strict_applicability)
            or _not_applicable(spec, param))


@lru_cache(maxsize=32)
def _plan(alphas: tuple[float, ...], ks: tuple[int, ...],
          bound_ids: Optional[tuple[str, ...]]
          ) -> tuple[tuple[BoundSpec, Param, BoundResult], ...]:
    """The (spec, param) rows of a catalog evaluation over grids and a
    filter already passed through _legal, in order, each with its
    NOT_APPLICABLE result."""
    grids = {"alpha": alphas, "k": ks}
    rows = []
    for spec in CATALOG:
        if bound_ids is not None and spec.bound_id not in bound_ids:
            continue
        if spec.param_kind is None:
            params = [None]
        else:
            # a repeated grid entry gives one row
            params = sorted({p for p in grids[spec.param_kind]
                             if spec.param_ok is None or spec.param_ok(p)})
        rows.extend((spec, p, _not_applicable(spec, p)) for p in params)
    return tuple(rows)


def evaluate_catalog(g: Graph, alphas: tuple[float, ...],
                     ks: tuple[int, ...], *,
                     strict_applicability: bool = False,
                     bound_ids: Optional[tuple[str, ...]] = None,
                     ctx: Optional[GraphContext] = None) -> list[BoundResult]:
    """Evaluate the whole catalog over the parameter grids.

    One BoundResult per (bound, distinct legal parameter) pair, in catalog
    order with parameters ascending. An illegal alpha or k raises
    BadParameterError, and an unknown filter id UnknownBoundError, whether
    or not a row would take the value.
    """
    plan = _plan(tuple(_legal("alpha", a) for a in alphas),
                 tuple(_legal("k", k) for k in ks),
                 None if bound_ids is None
                 else tuple(_legal("bound", b) for b in bound_ids))
    ctx = _context(g, ctx)
    return [_evaluate(spec, p, ctx, strict_applicability) or not_applicable
            for spec, p, not_applicable in plan]


class KfComparison(NamedTuple):
    """Side-by-side record of the two Kf lower bounds on one graph.

    larger is "new", "zt" or "equal", as the KF_COMPARE row decides it; a
    validity flag is false exactly when its bound's row is VIOLATED.
    """

    kf_actual: float
    kf_new_rhs: float
    kf_zt_rhs: float
    larger: str
    new_valid: bool
    zt_valid: bool


def kf_compare(g: Graph) -> KfComparison:
    """Compare the two Kf lower bounds (connected, n >= 3), read off the
    KF_NEW, KF_ZT and KF_COMPARE catalog rows."""
    if g.n < 3:
        raise SequenceTooShortError("comparison needs n >= 3")
    if len(g.components) != 1:
        raise DisconnectedGraphError("comparison needs a connected graph")
    new, zt, cmp = evaluate_catalog(
        g, (), (), bound_ids=("KF_NEW", "KF_ZT", "KF_COMPARE"))
    if cmp.verdict == EQUALITY:
        larger = "equal"
    else:
        larger = "new" if cmp.margin > 0 else "zt"
    return KfComparison(
        kf_actual=new.lhs,
        kf_new_rhs=new.rhs,
        kf_zt_rhs=zt.rhs,
        larger=larger,
        new_valid=new.verdict != VIOLATED,
        zt_valid=zt.verdict != VIOLATED,
    )
