"""Acceptance suite: every advertised guarantee at its stated size and tolerance.

Each test exercises one numbered acceptance item end to end and prints a
single PASS line on success; pytest -v adds its own verdict per item.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from locallemma.apps import (
    GAMMA_TREE,
    build_latin_instance,
    build_rainbow_matching_instance,
    build_rainbow_tree_instance,
    random_color_matrix,
    random_edge_coloring,
    solve,
)
from locallemma.engine import log_follows, maximal_set_resample
from locallemma.graphs import DependencyGraph, validate_sequence
from locallemma.polynomials import (
    build_table,
    check_cll,
    check_gll,
    in_shearer_region,
    partition_function,
    predicted_bound,
    sequence_mass,
    shearer_slack,
    singleton_ratio,
)
from locallemma.synth import ExplicitBundle
from locallemma.verify import (
    appendix_a_bundle,
    derive_seed,
    exhaustive_r2,
    measure_consecutive_runs,
)
from locallemma.verify import test_r1 as run_r1
from locallemma.verify import test_r2 as run_r2

from helpers import (
    acceptance_fixtures,
    matching_fixture,
    permutation_fixture,
    q_by_mask,
    three_bit_space,
    tree_fixture,
    two_bit_space,
    variable_fixture,
)

TOL = 1e-12


def announce(number, label):
    print(f"acceptance {number:02d} {label}: PASS")


def random_graph(n, rng, density):
    g = DependencyGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.add_edge(u, v)
    return g


def gll_instance(rng, n_max, x_hi):
    """Random graph plus p dominated by an x-witness bound, hence in-region."""
    n = rng.randrange(1, n_max + 1)
    g = random_graph(n, rng, rng.uniform(0.15, 0.7))
    x = [rng.uniform(0.05, x_hi) for _ in range(n)]
    u = rng.uniform(0.4, 1.0)
    p = [
        u * x[i] * math.prod(1 - x[j] for j in g.neighbors(i))
        for i in range(n)
    ]
    return g, p, x


def subset_sums(values):
    # zeta transform: out[mask] = sum of values over all submasks of mask
    out = list(values)
    n = (len(out) - 1).bit_length()
    for b in range(n):
        bit = 1 << b
        for mask in range(len(out)):
            if mask & bit:
                out[mask] += out[mask ^ bit]
    return out


def test_criterion_01_polynomial_identity_suite():
    rng = random.Random(11)
    started = time.time()
    for trial in range(200):
        g, p, _ = gll_instance(rng, 10, 0.3)
        n = g.n
        exact = trial % 10 == 0 and n <= 7
        if exact:
            # floor to a rational grid: smaller p stays inside the region
            p = [Fraction(math.floor(v * 4096), 4096) for v in p]
        table = build_table(g, p, exact=exact)
        assert in_shearer_region(table)
        tol = 0 if exact else TOL
        one = Fraction(1) if exact else 1.0
        breve = table.breve
        full = table.full_mask

        # fundamental recurrence, checked at every pivot of every subset
        for mask in range(1, 1 << n):
            m = mask
            while m:
                a = (m & -m).bit_length() - 1
                m &= m - 1
                rhs = breve[mask ^ (1 << a)] - p[a] * breve[
                    mask & ~table.gamma_plus_mask(a)
                ]
                assert abs(breve[mask] - rhs) <= tol

        # complement sums and total mass, via one zeta transform over q
        qvec = [one * 0] * (1 << n)
        for mask, val in q_by_mask(table).items():
            qvec[mask] = val
        qsos = subset_sums(qvec)
        assert abs(qsos[full] - 1) <= tol
        for mask in range(1 << n):
            assert abs(breve[mask] - qsos[full ^ mask]) <= tol

        # q expands as p^I times the q-mass of the closed neighborhood
        for mask, val in q_by_mask(table).items():
            gp = 0
            coeff = one
            m = mask
            while m:
                a = (m & -m).bit_length() - 1
                m &= m - 1
                gp |= table.gamma_plus_mask(a)
                coeff *= p[a]
            assert abs(val - coeff * qsos[gp]) <= tol

        # monotone in p, and log-submodular over subset pairs
        pf = [float(v) for v in p]
        base = build_table(g, pf) if exact else table
        smaller = build_table(g, [v * rng.uniform(0.2, 1.0) for v in pf])
        for mask in range(1 << n):
            assert smaller.breve[mask] >= base.breve[mask] - TOL
        if n <= 5:
            pairs = [(a, b) for a in range(1 << n) for b in range(1 << n)]
        else:
            pairs = [
                (rng.randrange(1 << n), rng.randrange(1 << n))
                for _ in range(300)
            ]
        for a, b in pairs:
            lhs = base.breve[a] * base.breve[b]
            assert lhs >= base.breve[a | b] * base.breve[a & b] - TOL

    assert time.time() - started < 60
    announce(1, "polynomial identity suite")


def test_criterion_02_criterion_implications():
    rng = random.Random(22)
    for _ in range(500):
        g, p, x = gll_instance(rng, 8, 0.45)
        assert check_gll(g, p, x)
        table = build_table(g, p)
        assert in_shearer_region(table)
        for a in range(g.n):
            assert singleton_ratio(table, a) <= x[a] / (1 - x[a]) + TOL
    for _ in range(500):
        n = rng.randrange(1, 9)
        g = random_graph(n, rng, rng.uniform(0.15, 0.7))
        adj = g.adjacency_masks()
        y = [rng.uniform(0.05, 0.6) for _ in range(n)]
        p = [
            rng.uniform(0.5, 1.0) * y[i]
            / partition_function(g, y, adj[i] | (1 << i))
            for i in range(n)
        ]
        assert check_cll(g, p, y)
        table = build_table(g, p)
        assert in_shearer_region(table)
        for a in range(n):
            assert singleton_ratio(table, a) <= y[a] + TOL
    announce(2, "x-witness and y-witness imply region membership")


def test_criterion_03_automatic_slack():
    rng = random.Random(33)
    for _ in range(200):
        g, p, _ = gll_instance(rng, 10, 0.35)
        table = build_table(g, p)
        assert in_shearer_region(table)
        eps = shearer_slack(table)
        bumped = build_table(g, [(1 + eps) * v for v in p])
        assert in_shearer_region(bumped)
        assert bumped.q0 >= table.q0 / 2 - TOL
    announce(3, "automatic slack keeps the region and half of q0")


def test_criterion_04_oracle_distribution_tests():
    started = time.time()
    for k, bundle in enumerate(acceptance_fixtures()):
        rep = run_r1(bundle, 0, samples=1_000_000, seed=derive_seed(44, k))
        assert rep.passed, (k, rep.chi_square, rep.threshold)

    # spanning tree edge marginals: every edge appears with probability 2/n
    rng = random.Random(derive_seed(44, 9))
    bundle = tree_fixture()
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    hits = dict.fromkeys(edges, 0)
    n_samples = 1_000_000
    for _ in range(n_samples):
        for e in bundle.sample(rng):
            hits[e] += 1
    sigma = math.sqrt(0.4 * 0.6 / n_samples)
    for e in edges:
        assert abs(hits[e] / n_samples - 2 / 5) <= 4 * sigma, (e, hits[e])

    assert time.time() - started < 600
    announce(4, "measure restoration at a million samples per oracle")


def test_criterion_05_oracle_containment_tests():
    cases = [
        permutation_fixture(),
        matching_fixture(),
        tree_fixture(),
        variable_fixture(),
    ]
    for k, bundle in enumerate(cases):
        assert run_r2(bundle, 0, trials=1_000_000, seed=derive_seed(55, k)) == 0
    for space in (two_bit_space(), three_bit_space()):
        bundle = ExplicitBundle(space)
        for event in range(bundle.n):
            assert exhaustive_r2(bundle, event) == 0
    announce(5, "no oracle switches on a free event")


def test_criterion_06_coupling_bound():
    bundle = ExplicitBundle(three_bit_space())
    g = bundle.graph
    seqs = [
        [{0}],
        [{1}],
        [{2}],
        [{0, 2}],
        [{0}, {0}],
        [{0}, {1}],
        [{1}, {0, 2}],
        [{0, 2}, {1}],
        [{1}, {2}, {1}],
        [{0}, {1}, {0, 2}],
    ]
    for seq in seqs:
        assert validate_sequence(g, seq)
        assert all(seq)
        assert sum(len(s) for s in seq) <= 4

    runs = 100_000
    follows = [0] * len(seqs)
    for r in range(runs):
        _, log = maximal_set_resample(bundle, derive_seed(66, r))
        for k, seq in enumerate(seqs):
            if log_follows(log, seq):
                follows[k] += 1
    for k, seq in enumerate(seqs):
        total = sum(len(s) for s in seq)
        p_seq = 0.5 ** total
        se = math.sqrt(p_seq * (1 - p_seq) / runs)
        assert follows[k] / runs <= p_seq + 3 * se, (seq, follows[k])
    announce(6, "follow frequency bounded by the sequence mass")


def test_criterion_07_sequence_mass_bound():
    rng = random.Random(77)
    budgets = [1, 2, 3, 5, 8, 12, 20, 30, 40]
    for _ in range(12):
        n = rng.randrange(1, 5)
        g = random_graph(n, rng, 0.5)
        p = [rng.uniform(0.02, 0.2) for _ in range(n)]
        table = build_table(g, p)
        assert in_shearer_region(table)
        for mask, qval in q_by_mask(table).items():
            if mask == 0:
                continue
            start = [i for i in range(n) if mask >> i & 1]
            ratio = float(qval / table.q0)
            prev = 0.0
            for budget in budgets:
                mass = sequence_mass(g, p, start, budget)
                assert mass >= prev - TOL
                assert mass <= ratio + TOL
                prev = mass
            assert prev >= 0.99 * ratio
    announce(7, "truncated sequence mass monotone, bounded, convergent")


def test_criterion_08_rainbow_matching_end_to_end():
    within = 0
    for r in range(100):
        coloring = random_edge_coloring(128, 13, random.Random(derive_seed(88, r)))
        assert coloring.multiplicity <= 13
        bundle, params = build_rainbow_matching_instance(coloring)
        rep = solve(bundle, params, seed=derive_seed(89, r))
        assert rep.validated, r
        if rep.total_resamples <= predicted_bound(params, math.log(100)):
            within += 1
    assert within >= 99
    announce(8, "rainbow perfect matchings on 128 vertices, 100 seeds")


def test_criterion_09_latin_transversals_end_to_end():
    started = time.time()
    for r in range(20):
        matrix = random_color_matrix(128, 6, random.Random(derive_seed(99, r)))
        assert matrix.multiplicity <= 6
        bundle, params = build_latin_instance(matrix, 6)
        rep = solve(bundle, params, seed=derive_seed(100, r))
        assert rep.validated, r
        assert rep.total_resamples <= predicted_bound(params, math.log(20))
    assert time.time() - started < 1800
    announce(9, "six disjoint transversals of order 128, 20 seeds")


def test_criterion_10_rainbow_trees_end_to_end():
    t = math.floor(GAMMA_TREE * 256)
    assert t == 3
    for r in range(20):
        coloring = random_edge_coloring(256, 3, random.Random(derive_seed(110, r)))
        assert coloring.multiplicity <= 3
        bundle, params = build_rainbow_tree_instance(coloring, t)
        rep = solve(bundle, params, seed=derive_seed(111, r))
        assert rep.validated, r
    announce(10, "three disjoint rainbow trees on 256 vertices, 20 seeds")


def test_criterion_11_long_streaks_occur():
    report = measure_consecutive_runs(appendix_a_bundle(64, 6), runs=10_000, seed=121)
    assert report.budget_exhausted == 0
    assert report.frequency_at_least(64) >= 0.10, report.frequency_at_least(64)
    announce(11, "streaks of length 64 at constant frequency")


def test_criterion_12_byte_identical_output(tmp_path):
    import json

    instance = {
        "kind": "explicit-space",
        "space": {
            "states": 8,
            "prob": ["1/8"] * 8,
            "events": [
                sorted(s for s in range(8) if not s >> i & 1) for i in range(3)
            ],
            "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
        },
    }
    path = str(tmp_path / "instance.json")
    with open(path, "w") as fh:
        json.dump(instance, fh)
    commands = [
        [sys.executable, "-m", "locallemma.cli", "criteria", path],
        [sys.executable, "-m", "locallemma.cli", "run", path, "--seed", "3"],
        [
            sys.executable, "-m", "locallemma.cli", "rainbow-matching",
            "--n", "12", "--multiplicity", "2",
            "--instance-seed", "1", "--seed", "7",
        ],
    ]
    for cmd in commands:
        first = subprocess.run(cmd, capture_output=True, timeout=300)
        second = subprocess.run(cmd, capture_output=True, timeout=300)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
    announce(12, "reruns with one seed are byte identical")
