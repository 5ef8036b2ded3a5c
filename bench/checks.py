"""Output checks written apart from the program's own validators.

Every check re-derives the property from raw data (colours, bits, exact
fractions, an own enumeration of independent sets) and never calls the
program's ``validate_*`` helpers, event predicates or oracles.  Each
returns a list of problems; an empty list means the output is right.
This module imports nothing from the program, so its tests run without it.
"""

from __future__ import annotations

from fractions import Fraction

#: Largest allowed gap between a table's q0 and the own alternating sum.
Q0_TOLERANCE = 1e-12


def check_transversals(rows, t: int, perms) -> list[str]:
    """t permutations of [n], each hitting n distinct colours, no shared cell."""
    n = len(rows)
    if len(perms) != t:
        return [f"expected {t} transversals, got {len(perms)}"]
    problems = []
    cells: set[tuple[int, int]] = set()
    for k, pi in enumerate(perms):
        if sorted(pi) != list(range(n)):
            problems.append(f"transversal {k} is not a permutation of [{n}]")
            continue
        if len({rows[u][pi[u]] for u in range(n)}) != n:
            problems.append(f"transversal {k} repeats a colour")
        for u in range(n):
            if (u, pi[u]) in cells:
                problems.append(f"transversal {k} reuses cell ({u}, {pi[u]})")
            cells.add((u, pi[u]))
    return problems


def _edge_key(edge, n: int):
    u, v = edge
    if not (0 <= u < n and 0 <= v < n) or u == v:
        return None
    return (u, v) if u < v else (v, u)


def check_rainbow_trees(n: int, color: dict, t: int, trees) -> list[str]:
    """t spanning trees of K_n, each rainbow, pairwise edge-disjoint."""
    if len(trees) != t:
        return [f"expected {t} trees, got {len(trees)}"]
    problems = []
    used: set[tuple[int, int]] = set()
    for k, tree in enumerate(trees):
        edges = [_edge_key(e, n) for e in tree]
        if None in edges:
            problems.append(f"tree {k} has an edge outside K_{n}")
            continue
        if len(edges) != n - 1:
            problems.append(f"tree {k} has {len(edges)} edges, not {n - 1}")
        parent = list(range(n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        parts = n
        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                problems.append(f"tree {k} closes a cycle at ({u}, {v})")
                break
            parent[ru] = rv
            parts -= 1
        if parts != 1:
            problems.append(f"tree {k} leaves {parts} components")
        if len({color[e] for e in edges}) != len(edges):
            problems.append(f"tree {k} repeats a colour")
        for e in edges:
            if e in used:
                problems.append(f"tree {k} reuses edge {e}")
            used.add(e)
    return problems


def check_rainbow_matching(n: int, color: dict, edges) -> list[str]:
    """A perfect matching of K_n whose edges carry distinct colours."""
    keys = [_edge_key(e, n) for e in edges]
    if None in keys:
        return ["matching has an edge outside K_n"]
    problems = []
    covered = [v for e in keys for v in e]
    if len(keys) != n // 2 or sorted(covered) != list(range(n)):
        problems.append("matching is not perfect")
    if len({color[e] for e in keys}) != len(keys):
        problems.append("matching repeats a colour")
    return problems


def check_log(log: dict) -> list[str]:
    """A terminated run log whose resample total is the sum of its iterations."""
    problems = []
    if not log["terminated"]:
        problems.append("run did not terminate")
    iterations = log["iterations"]
    if log["total_resamples"] != sum(len(it) for it in iterations):
        problems.append("total_resamples differs from the sum of iteration sizes")
    if not iterations or iterations[-1]:
        problems.append("log does not end with an empty iteration")
    return problems


def longest_streak(iterations, event: int) -> int:
    """Longest run of consecutive iterations that each resampled the event."""
    best = current = 0
    for it in iterations:
        current = current + 1 if event in it else 0
        best = max(best, current)
    return best


def check_streak_state(k: int, l: int, state) -> list[str]:
    """Final Appendix-A bits: every X and Y is 1 and W is 0.

    Layout X_1..X_k | Y (k*l) | Z_1..Z_k | W.  The bad events are X_i = 0,
    Y_i^j = 0 and W = 1, so a terminated run must leave exactly these bits.
    """
    if len(state) != 2 * k + k * l + 1:
        return [f"state has {len(state)} bits, expected {2 * k + k * l + 1}"]
    problems = []
    if any(b != 1 for b in state[:k]):
        problems.append("some X bit is 0")
    if any(b != 1 for b in state[k:k + k * l]):
        problems.append("some Y bit is 0")
    if state[-1] != 0:
        problems.append("W is 1")
    return problems


def check_kernel(probs, events, neighbors, i: int, rows) -> list[str]:
    """Exact oracle contract for one synthesized kernel, in Fractions.

    probs: state probabilities; events: one set of states per event;
    neighbors: one set of adjacent events per event; rows: source state ->
    ((target, mass), ...).  Checks that the sources are the positive
    states of E_i, that each row sums to 1, that the conditioned measure
    pushed through the kernel is mu, and that no support edge switches on
    an off non-neighbour event.
    """
    problems = []
    sources = sorted(u for u in events[i] if probs[u] > 0)
    if sorted(rows) != sources:
        return [f"kernel {i} rows do not match the states of event {i}"]
    pe = sum((probs[u] for u in sources), Fraction(0))
    pushed = [Fraction(0)] * len(probs)
    free = [j for j in range(len(events)) if j != i and j not in neighbors[i]]
    for u in sources:
        row = rows[u]
        if sum((mass for _, mass in row), Fraction(0)) != 1:
            problems.append(f"kernel {i} row {u} does not sum to 1")
        off = [j for j in free if u not in events[j]]
        for w, mass in row:
            if mass <= 0:
                problems.append(f"kernel {i} row {u} has a non-positive mass")
            pushed[w] += probs[u] / pe * mass
            if any(w in events[j] for j in off):
                problems.append(f"kernel {i} edge {u}->{w} switches on a non-neighbour")
    if pushed != list(probs):
        problems.append(f"kernel {i} does not restore the measure")
    return problems


def alternating_q0(n: int, neighbors, p) -> float:
    """Sum over independent sets I of (-1)^|I| * prod_{i in I} p_i.

    neighbors: one set of adjacent vertices per vertex.  The sets are
    enumerated by extending with higher-numbered vertices only.
    """
    adj = [sum(1 << j for j in neighbors[i]) for i in range(n)]
    total = 0.0
    stack = [(0, 0, 1.0)]  # (set mask, next vertex, signed weight)
    while stack:
        mask, start, weight = stack.pop()
        total += weight
        for v in range(start, n):
            if not adj[v] & mask:
                stack.append((mask | 1 << v, v + 1, -weight * p[v]))
    return total


def check_table(n: int, neighbors, p, q0, in_region: bool) -> list[str]:
    """q0 agrees with the own alternating sum; the x-witness instance is in region."""
    problems = []
    own = alternating_q0(n, neighbors, p)
    if not abs(q0 - own) <= Q0_TOLERANCE:
        problems.append(f"q0 {q0!r} differs from the alternating sum {own!r}")
    if not in_region:
        problems.append("instance drawn from an x-witness reported outside the region")
    return problems
