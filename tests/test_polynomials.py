"""Independence polynomial tables, criteria, bounds, sequence masses.

The DP tables are checked against direct alternating sums computed
from the definition, and the structural identities are exercised on
random instances with exact rational arithmetic.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_breve, brute_q, subsets
from locallemma.graphs import DependencyGraph, enumerate_independent_sets
from locallemma.polynomials import (
    CriterionParams,
    build_table,
    check_cll,
    check_gll,
    in_shearer_region,
    partition_function,
    predicted_bound,
    predicted_bounds,
    sequence_mass,
    shearer_report,
    shearer_slack,
    singleton_ratio,
)


def make_graph(n, edges):
    g = DependencyGraph(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def random_graph(n, rng, density=0.4):
    g = DependencyGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# table values


def test_single_event_closed_forms():
    g = DependencyGraph(1)
    table = build_table(g, [0.2])
    assert table.q0 == pytest.approx(0.8, abs=1e-15)
    assert table.breve_q([0]) == pytest.approx(0.8)
    assert table.q_of([0]) == pytest.approx(0.2)
    assert table.breve_q([]) == 1.0


def test_path3_uniform_point_two():
    g = make_graph(3, [(0, 1), (1, 2)])
    table = build_table(g, [0.2] * 3)
    # 1 - 3p + p^2 with the single independent pair {0,2}
    assert table.q0 == pytest.approx(0.44, abs=1e-15)
    assert table.q_of([0]) == pytest.approx(0.16)
    assert table.q_of([1]) == pytest.approx(0.2)
    assert table.q_of([0, 2]) == pytest.approx(0.04)
    assert table.q_of([0, 1]) == 0.0


def test_boundary_edge_graph():
    g = make_graph(2, [(0, 1)])
    table = build_table(g, [0.5, 0.5])
    assert table.breve_q([0, 1]) == pytest.approx(0.0, abs=1e-15)
    assert not in_shearer_region(table)
    report = shearer_report(table)
    assert report["boundary"] and not report["in_region"]


def test_brute_force_agreement_fixed_seeds():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randrange(1, 8)
        g = random_graph(n, rng)
        p = [rng.uniform(0.0, 0.4) for _ in range(n)]
        table = build_table(g, p)
        for _ in range(8):
            sub = [i for i in range(n) if rng.random() < 0.5]
            assert table.breve_q(sub) == pytest.approx(
                brute_breve(g, p, sub), abs=1e-12
            )
        for combo in subsets(range(n)):
            if g.is_independent(combo):
                assert table.q_of(combo) == pytest.approx(
                    brute_q(g, p, combo), abs=1e-12
                )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**15 - 1), st.integers(0, 10**9))
def test_brute_force_agreement_exact(n, edge_bits, pseed):
    g = DependencyGraph(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for k, (u, v) in enumerate(pairs):
        if (edge_bits >> k) & 1:
            g.add_edge(u, v)
    rng = random.Random(pseed)
    p = [Fraction(rng.randrange(0, 50), 100) for _ in range(n)]
    table = build_table(g, p, exact=True)
    full = list(range(n))
    assert table.breve_q(full) == brute_breve(g, p, full)
    for combo in subsets(range(n)):
        if g.is_independent(combo):
            assert table.q_of(combo) == brute_q(g, p, combo)


def test_probability_validation():
    g = DependencyGraph(1)
    with pytest.raises(ValueError):
        build_table(g, [1.0])
    with pytest.raises(ValueError):
        build_table(g, [-0.1])


# ---------------------------------------------------------------------------
# identities on random in-region instances


def in_region_instance(rng, n_max=7):
    n = rng.randrange(1, n_max + 1)
    g = random_graph(n, rng)
    x = [rng.uniform(0.05, 0.3) for _ in range(n)]
    p = [
        x[i] * math.prod(1 - x[j] for j in g.neighbors(i))
        for i in range(n)
    ]
    table = build_table(g, p)
    assert in_shearer_region(table)
    return g, p, table


def test_fundamental_recurrence_any_pivot():
    # the table eliminates the lowest index, so re-derive with the highest
    rng = random.Random(7)
    for _ in range(25):
        g, p, table = in_region_instance(rng)
        n = g.n
        for mask in range(1, 1 << n):
            a = mask.bit_length() - 1
            lhs = table.breve_q(mask)
            rhs = table.breve_q(mask ^ (1 << a)) - p[a] * table.breve_q(
                mask & ~table.gamma_plus_mask(a)
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_complement_sum_and_q_sum():
    rng = random.Random(8)
    for _ in range(25):
        g, p, table = in_region_instance(rng)
        n = g.n
        full = (1 << n) - 1
        for mask in range(1 << n):
            total = 0.0
            comp = full & ~mask
            sub = comp
            while True:
                total += table.q_of(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & comp
            assert table.breve_q(mask) == pytest.approx(total, abs=1e-12)
        # S = empty gives the probability normalization
        total = sum(
            table.q_of(c) for c in subsets(range(n)) if g.is_independent(c)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_q_expansion():
    rng = random.Random(9)
    for _ in range(25):
        g, p, table = in_region_instance(rng)
        for combo in subsets(range(g.n)):
            if not g.is_independent(combo):
                continue
            closed = g.closed_neighborhood(combo)
            total = sum(table.q_of(s) for s in subsets(closed))
            coeff = math.prod(p[i] for i in combo)
            assert table.q_of(combo) == pytest.approx(coeff * total, abs=1e-12)


def test_monotone_in_p():
    rng = random.Random(10)
    for _ in range(20):
        g, p, table = in_region_instance(rng)
        smaller = [v * rng.uniform(0.2, 1.0) for v in p]
        table2 = build_table(g, smaller)
        for mask in range(1 << g.n):
            assert table2.breve_q(mask) >= table.breve_q(mask) - 1e-12


def test_log_submodular():
    rng = random.Random(11)
    for _ in range(20):
        g, p, table = in_region_instance(rng)
        n = g.n
        for _ in range(40):
            a = rng.randrange(1 << n)
            b = rng.randrange(1 << n)
            lhs = table.breve_q(a) * table.breve_q(b)
            rhs = table.breve_q(a | b) * table.breve_q(a & b)
            assert lhs >= rhs - 1e-12


# ---------------------------------------------------------------------------
# criteria


def test_gll_single_event_tight():
    g = DependencyGraph(1)
    assert check_gll(g, [0.5], [0.5])
    assert not check_gll(g, [0.5001], [0.5])


def test_gll_triangle():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    # x(1-x)^2 at x = 1/3 is 4/27
    assert check_gll(g, [4 / 27] * 3, [1 / 3] * 3)
    assert not check_gll(g, [4 / 27 + 1e-9] * 3, [1 / 3] * 3)


def test_gll_rejects_bad_x():
    g = DependencyGraph(1)
    with pytest.raises(ValueError):
        check_gll(g, [0.1], [1.0])
    with pytest.raises(ValueError):
        check_gll(g, [0.1], [0.0])


def test_cll_single_and_edge():
    g = DependencyGraph(1)
    assert check_cll(g, [0.5], [1.0])
    assert not check_cll(g, [0.5 + 1e-12], [1.0])
    e = make_graph(2, [(0, 1)])
    # Y over a dependent pair is 1 + y_0 + y_1 = 3
    assert check_cll(e, [1 / 3] * 2, [1.0] * 2)
    assert not check_cll(e, [1 / 3 + 1e-9] * 2, [1.0] * 2)


def test_partition_function_counts_independent_sets():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert partition_function(g, [1.0] * 3, range(3)) == pytest.approx(
        len(enumerate_independent_sets(g))
    )
    assert partition_function(g, [1.0] * 3, [0, 2]) == pytest.approx(4.0)


def test_implication_chain_small():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(1, 7)
        g = random_graph(n, rng)
        x = [rng.uniform(0.05, 0.4) for _ in range(n)]
        p = [
            x[i] * math.prod(1 - x[j] for j in g.neighbors(i)) * rng.uniform(0.5, 1)
            for i in range(n)
        ]
        assert check_gll(g, p, x)
        # y = x/(1-x) converts the product form into the cluster form
        y = [v / (1 - v) for v in x]
        assert check_cll(g, p, y)
        assert in_shearer_region(build_table(g, p))


def test_slack_closed_form():
    g = DependencyGraph(1)
    table = build_table(g, [0.5])
    assert shearer_slack(table) == pytest.approx(0.5)
    e = make_graph(2, [(0, 1)])
    t2 = build_table(e, [0.3, 0.4])
    assert t2.q0 == pytest.approx(0.3)
    assert shearer_slack(t2) == pytest.approx(0.3 / 1.4)


def test_slack_outside_region_raises():
    e = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        shearer_slack(build_table(e, [0.5, 0.5]))


def test_singleton_ratio():
    g = DependencyGraph(1)
    table = build_table(g, [0.2])
    assert singleton_ratio(table, 0) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# predicted bounds


def test_bound_gll_with_slack():
    params = CriterionParams(kind="gll", x=(0.5,), epsilon=0.1)
    expected = (1 / 0.1) * (1.0 + math.log(2))
    assert predicted_bound(params, 1.0) == pytest.approx(expected)


def test_bound_gll_no_slack():
    params = CriterionParams(kind="gll", x=(0.5,))
    expected = 4 * 1.0 * (math.log(2) + 1 + 1.0)
    assert predicted_bound(params, 1.0) == pytest.approx(expected)


def test_bound_cll_with_slack():
    params = CriterionParams(kind="cll", y=(1.0,), epsilon=0.5)
    expected = (2 / 0.5) * (math.log(2) + 1.0)
    assert predicted_bound(params, 1.0) == pytest.approx(expected)


def test_bound_cll_no_slack():
    params = CriterionParams(kind="cll", y=(1.0,))
    expected = 4 * 1.0 * (math.log(2) + 1 + 1.0)
    assert predicted_bound(params, 1.0) == pytest.approx(expected)


def test_bound_shearer_no_slack_uses_table():
    g = DependencyGraph(1)
    table = build_table(g, [0.2])
    params = CriterionParams(kind="shearer")
    expected = 4 * 0.25 * (math.log(1.25) + 1 + 1.0)
    assert predicted_bound(params, 1.0, table=table) == pytest.approx(expected)


def test_bound_shearer_with_slack_rebuilds():
    g = DependencyGraph(1)
    table = build_table(g, [0.2])
    params = CriterionParams(kind="shearer", epsilon=0.5)
    # q0 at 0.3 is 0.7
    expected = (2 / 0.5) * (math.log(1 / 0.7) + 1.0)
    assert predicted_bound(params, 1.0, table=table) == pytest.approx(expected)


def test_bound_shearer_slack_outside_region_raises():
    g = DependencyGraph(1)
    table = build_table(g, [0.6])
    params = CriterionParams(kind="shearer", epsilon=1.0)
    with pytest.raises(ValueError):
        predicted_bound(params, 1.0, table=table)


def test_bounds_increase_with_t():
    for params in (
        CriterionParams(kind="gll", x=(0.3, 0.2)),
        CriterionParams(kind="cll", y=(0.5, 0.1), epsilon=0.2),
    ):
        assert predicted_bound(params, 5.0) > predicted_bound(params, 1.0)


def single_bound(params, t, table=None):
    """One tail bound by the formulas in predicted_bound's docstring, written out."""
    eps = params.epsilon
    if params.kind == "gll":
        log_sum = sum(math.log(1 / (1 - xi)) for xi in params.x)
        if eps > 0:
            return (t + log_sum) / eps
        return 4 * sum(xi / (1 - xi) for xi in params.x) * (log_sum + 1 + t)
    if params.kind == "cll":
        log_sum = sum(math.log1p(yi) for yi in params.y)
        if eps > 0:
            return 2 * (log_sum + t) / eps
        return 4 * sum(params.y) * (log_sum + 1 + t)
    if eps > 0:
        scaled = build_table(table.graph, [float(pi) * (1 + eps) for pi in table.p])
        return 2 * (math.log(1 / float(scaled.q0)) + t) / eps
    ratios = [singleton_ratio(table, i) for i in range(table.n)]
    return 4 * sum(ratios) * (sum(math.log1p(r) for r in ratios) + 1 + t)


def test_predicted_bounds_equal_single_bounds_exactly():
    rng = random.Random(17)
    g = random_graph(8, rng)
    table = build_table(g, [rng.uniform(0.01, 0.05) for _ in range(8)])
    x = tuple(rng.uniform(0.05, 0.4) for _ in range(300))
    y = tuple(rng.uniform(1e-6, 0.3) for _ in range(300))
    ts = (1.0, math.log(1e4), 0.0, 7.25)
    cases = [(CriterionParams(kind=kind, x=x if kind == "gll" else None,
                              y=y if kind == "cll" else None, epsilon=eps), table)
             for kind in ("gll", "cll", "shearer") for eps in (0.0, 0.05)]
    for params, tab in cases:
        values = predicted_bounds(params, ts, table=tab)
        assert values == [single_bound(params, t, tab) for t in ts], params.kind
        assert values == [predicted_bound(params, t, table=tab) for t in ts]


def test_params_validation():
    with pytest.raises(ValueError):
        CriterionParams(kind="nope")
    with pytest.raises(ValueError):
        CriterionParams(kind="gll", x=(0.5,), epsilon=-1.0)


# ---------------------------------------------------------------------------
# sequence masses


def test_sequence_mass_geometric():
    g = DependencyGraph(1)
    assert sequence_mass(g, [0.2], [0], 3) == pytest.approx(0.248)
    assert sequence_mass(g, [0.2], [0], 200) == pytest.approx(0.25)


def test_sequence_mass_empty_and_overflow():
    g = DependencyGraph(2)
    assert sequence_mass(g, [0.1, 0.1], [], 5) == 1.0
    assert sequence_mass(g, [0.1, 0.1], [0, 1], 1) == 0.0


def test_sequence_mass_rejects_dependent_start():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        sequence_mass(g, [0.1, 0.1], [0, 1], 5)


def test_sequence_mass_monotone_and_bounded():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randrange(1, 5)
        g = random_graph(n, rng)
        p = [rng.uniform(0.01, 0.2) for _ in range(n)]
        table = build_table(g, p)
        if not in_shearer_region(table):
            continue
        for combo in subsets(range(n)):
            if not combo or not g.is_independent(combo):
                continue
            prev = 0.0
            for budget in (len(combo), 5, 10, 40):
                mass = sequence_mass(g, p, combo, budget)
                assert mass >= prev - 1e-15
                prev = mass
            limit = table.q_of(combo) / table.q0
            assert prev <= limit + 1e-12
            assert prev >= limit * 0.99
