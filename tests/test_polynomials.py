"""Independence polynomial tables, criteria, bounds, sequence masses.

The DP tables are checked against direct alternating sums computed
from the definition, and the structural identities are exercised on
random instances with exact rational arithmetic.
"""

import json
import math
import random
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_breve, brute_q, q_by_mask, scalar_build_table, subsets
from locallemma import polynomials
from locallemma.cli import main
from locallemma.graphs import DependencyGraph, independent_subset_masks
from locallemma.polynomials import (
    EXACT_CAP,
    CriterionParams,
    Uniform,
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
    tail_bounds,
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


def test_exact_tables_stop_at_their_cap():
    path = make_graph(EXACT_CAP + 1, [(i, i + 1) for i in range(EXACT_CAP)])
    with pytest.raises(ValueError, match="EXACT_CAP"):
        build_table(path, [Fraction(1, 100)] * (EXACT_CAP + 1), exact=True)


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


def witness_instance(n, rng):
    """Random graph with p under an x-witness bound, hence inside the region."""
    density = rng.uniform(0.2, 0.4)
    g = random_graph(n, rng, density)
    x = [rng.uniform(0.05, 0.3) for _ in range(n)]
    scale = rng.uniform(0.4, 1.0)
    p = []
    for i in range(n):
        bound = scale * x[i]
        for j in g.neighbors(i):
            bound *= 1 - x[j]
        p.append(bound)
    return g, p


def test_table_equals_the_scalar_recurrence_bit_for_bit():
    rng = random.Random(404)
    cases = []
    for _ in range(50):
        n = rng.randrange(0, 15)
        g = random_graph(n, rng, density=rng.uniform(0.1, 0.6))
        # some entries zero, some instances outside the region
        p = [rng.choice([0.0, rng.uniform(0.0, 0.5)]) for _ in range(n)]
        cases.append((g, p))
    cases.append(witness_instance(20, random.Random(41)))
    outside = 0
    for g, p in cases:
        table = build_table(g, p)
        breve, q = scalar_build_table(g, p)
        assert table.breve.dtype == np.float64
        assert [v.hex() for v in table.breve.tolist()] == [v.hex() for v in breve]
        table_q = q_by_mask(table)
        assert table_q.keys() == q.keys()
        assert all(table_q[m].hex() == q[m].hex() for m in q)
        on_demand = [table.q_of(m) for m in range(1 << g.n)]
        assert all(type(v) is float for v in on_demand)
        assert [v.hex() for v in on_demand] == [
            q.get(m, 0.0).hex() for m in range(1 << g.n)]
        lo = min(breve)
        assert in_shearer_region(table) == all(v > 0 for v in breve)
        assert shearer_report(table) == {
            "in_region": lo > 0, "min_breve_q": lo, "boundary": abs(lo) <= 1e-12}
        outside += lo <= 0
    assert 0 < outside < len(cases)


def test_exact_table_equals_the_scalar_recurrence():
    rng = random.Random(405)
    for _ in range(20):
        n = rng.randrange(0, 9)
        g = random_graph(n, rng)
        p = [Fraction(rng.randrange(0, 60), 100) for _ in range(n)]
        table = build_table(g, p, exact=True)
        breve, q = scalar_build_table(g, p, exact=True)
        assert table.breve.dtype == object
        assert table.breve.tolist() == breve
        assert all(type(v) is Fraction for v in table.breve.tolist())
        assert q_by_mask(table) == q
        on_demand = [table.q_of(m) for m in range(1 << n)]
        assert all(type(v) is Fraction for v in on_demand)
        assert on_demand == [q.get(m, Fraction(0)) for m in range(1 << n)]
        lo = min(breve)
        assert shearer_report(table) == {
            "in_region": lo > 0, "min_breve_q": float(lo),
            "boundary": abs(lo) <= 1e-12}


def test_tables_and_reports_enumerate_no_independent_sets(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("independent sets enumerated")

    monkeypatch.setattr(polynomials, "independent_subset_masks", refuse)
    g, p = witness_instance(12, random.Random(406))
    table = build_table(g, p)
    assert shearer_report(table)["in_region"]
    assert 0 < shearer_slack(table) < math.inf
    assert all(singleton_ratio(table, i) > 0 for i in range(g.n))
    assert set(tail_bounds(CriterionParams("shearer"), table)) == {"t=1", "t=ln(1e4)"}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"kind": "custom-graph", "graph": g.to_json(), "p": p}))
    assert main(["criteria", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["singleton_ratios"]) == g.n


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
            closed = set(combo).union(*map(g.neighbors, combo))
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
        len(independent_subset_masks(g.adjacency_masks(), 0b111))
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


def test_uniform_is_a_sequence_of_one_value():
    u = Uniform(0.25, 3)
    assert isinstance(u, Sequence) and len(u) == 3
    assert [u[0], u[1], u[2], u[-1], u[-3]] == [0.25] * 5
    for i in (3, -4, 10**20, -10**20):
        with pytest.raises(IndexError):
            u[i]
    with pytest.raises(TypeError):
        u[1.0]
    assert list(u) == [0.25] * 3 and tuple(u) == (0.25,) * 3
    assert list(reversed(u)) == [0.25] * 3 and 0.25 in u and 0.5 not in u
    assert u == Uniform(0.25, 3) and hash(u) == hash(Uniform(0.25, 3))
    assert u != Uniform(0.25, 4) and u != Uniform(0.5, 3) and u != (0.25,) * 3
    empty = Uniform(0.25, 0)
    assert len(empty) == 0 and list(empty) == []
    with pytest.raises(IndexError):
        empty[0]
    with pytest.raises(ValueError):
        Uniform(0.25, -1)


def sums_hex(params):
    return [(type(s), float(s).hex()) for s in params.bound_sums]


def test_uniform_bound_sums_equal_the_tuple_sums():
    rng = random.Random(23)
    values = [0.5, 0.1, 1e-300, rng.uniform(1e-6, 0.3), rng.uniform(0.3, 0.95)]
    for value in values:
        for n in (0, 1, 2, 7, 1000, 65537):
            for kind, field in (("gll", "x"), ("cll", "y")):
                for eps in (0.0, 0.05):
                    closed = CriterionParams(kind=kind, epsilon=eps,
                                             **{field: Uniform(value, n)})
                    loop = CriterionParams(kind=kind, epsilon=eps, **{field: (value,) * n})
                    assert sums_hex(closed) == sums_hex(loop), (kind, value, n)
                    assert predicted_bounds(closed, (1.0, 7.25)) == \
                        predicted_bounds(loop, (1.0, 7.25))
    # An empty vector sums to nothing, whatever its value (rainbow matching
    # on K_2 has y < 0, outside log1p's domain).
    for kind, field, value in (("cll", "y", -2.0), ("gll", "x", 1.0)):
        closed = CriterionParams(kind=kind, **{field: Uniform(value, 0)})
        loop = CriterionParams(kind=kind, **{field: ()})
        assert sums_hex(closed) == sums_hex(loop), (kind, value)


def test_params_validation():
    with pytest.raises(ValueError):
        CriterionParams(kind="nope")
    with pytest.raises(ValueError):
        CriterionParams(kind="gll", x=(0.5,), epsilon=-1.0)
    for epsilon in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            CriterionParams(kind="gll", x=(0.5,), epsilon=epsilon)


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
