"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: direct alternating sums, a
determinant-based tree count, and a literal transcription of the
resampling loop that rescans every event after every resample.  Slow
but obviously correct.
"""

import random
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from itertools import combinations

from locallemma.apps import ColoredCompleteGraph, ColorMatrix, _AppBundle
from locallemma.graphs import DependencyGraph, independent_subset_masks
from locallemma.oracles import (
    MatchingBundle,
    OracleEventError,
    PatternEvent,
    PermutationBundle,
    TreeBundle,
    VariableBundle,
    VariableEvent,
    normalize_edge,
)
from locallemma.synth import ExplicitBundle, ExplicitSpace
from locallemma.verify import AppendixABundle


# ---------------------------------------------------------------------------
# fixture colourings


def rainbow_edge_coloring(n: int) -> ColoredCompleteGraph:
    """Every edge its own color."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return ColoredCompleteGraph(n, {e: k for k, e in enumerate(edges)})


def round_robin_coloring(n: int) -> ColoredCompleteGraph:
    """Proper coloring of K_n (n even): each color class a perfect matching.

    Classic circle construction: one vertex stays fixed while the others
    rotate, giving n-1 rounds that partition the edges.
    """
    if n % 2:
        raise ValueError("round-robin coloring needs even n")
    color: dict[tuple[int, int], int] = {}
    m = n - 1
    for r in range(m):
        color[normalize_edge((r, n - 1))] = r
        for k in range(1, n // 2):
            a = (r + k) % m
            b = (r - k) % m
            color[normalize_edge((a, b))] = r
    return ColoredCompleteGraph(n, color)


def distinct_color_matrix(n: int) -> ColorMatrix:
    """Every cell its own color."""
    return ColorMatrix([[u * n + v for v in range(n)] for u in range(n)])


# ---------------------------------------------------------------------------
# the oracle fixtures of acceptance criteria 04 and 05


def permutation_fixture():
    return PermutationBundle(
        4,
        [
            PatternEvent(((0, 0),)),
            PatternEvent(((1, 1),)),
            PatternEvent(((2, 2),)),
        ],
    )


def matching_fixture():
    return MatchingBundle(6, [((0, 1),), ((2, 3),), ((4, 5),)])


def tree_fixture():
    return TreeBundle(5, [((0, 1),), ((2, 3),)])


def variable_fixture():
    events = [
        VariableEvent((0,), lambda b: b == 0),
        VariableEvent((1,), lambda b: b == 0),
    ]
    return VariableBundle([((0, 1), None)] * 2, events)


def two_bit_space():
    probs = tuple(Fraction(1, 4) for _ in range(4))
    events = (frozenset({0, 2}), frozenset({0, 1}))
    return ExplicitSpace(probs, events, DependencyGraph(2))


def three_bit_space():
    probs = tuple(Fraction(1, 8) for _ in range(8))
    events = tuple(
        frozenset(s for s in range(8) if not s >> i & 1) for i in range(3)
    )
    return ExplicitSpace(probs, events, DependencyGraph(3, [(0, 1), (1, 2)]))


def acceptance_fixtures():
    """The five bundles of criterion 04, in its order."""
    return [
        permutation_fixture(),
        matching_fixture(),
        tree_fixture(),
        variable_fixture(),
        ExplicitBundle(two_bit_space()),
    ]


def subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def brute_breve(graph, p, subset):
    """Alternating sum over independent subsets of `subset`, by definition."""
    total = 0.0 if not isinstance(p[0] if p else 0, Fraction) else Fraction(0)
    for combo in subsets(subset):
        if graph.is_independent(combo):
            term = 1 if not combo else None
            if term is None:
                term = 1
                for i in combo:
                    term = term * p[i]
            total += (-1) ** len(combo) * term
    return total


def brute_q(graph, p, ind_set):
    """p^I times the alternating sum outside the closed neighborhood."""
    closed = set(ind_set).union(*map(graph.neighbors, ind_set))
    rest = [v for v in range(graph.n) if v not in closed]
    coeff = 1
    for i in ind_set:
        coeff = coeff * p[i]
    return coeff * brute_breve(graph, p, rest)


def kirchhoff_tree_count(n, edges):
    """Spanning tree count of a multigraph via the matrix-tree determinant.

    Exact rational Gaussian elimination on one cofactor of the
    Laplacian; edges may repeat.
    """
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, size):
                    m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return int(det)


class _Fork(Exception):
    """Raised when a replayed path runs out of prerecorded choices."""

    def __init__(self, probs):
        self.probs = probs


class _Rejected(Exception):
    """Raised when the last draw of a replayed path fails a rejection test."""


class _Bits(int):
    """A getrandbits value.  A rejection loop (``while r >= m``) draws
    again until r < m; here the failing test raises _Rejected, and
    exact_outcomes hands the branch's mass to its accepted siblings,
    which is the law of the value the loop returns."""

    def __ge__(self, m):
        if int(self) >= m:
            raise _Rejected
        return False


class _IntervalDraw:
    """Stands in for one uniform draw; branches lazily on comparisons.

    Successive `< t` checks against the same draw condition on the
    interval the previous answers pinned down, so cumulative-threshold
    scans get exact conditional probabilities.  Scaling by a constant
    is tracked symbolically so `rng.random() * total` works.
    """

    def __init__(self, rng):
        self.rng = rng
        self.lo = Fraction(0)
        self.hi = Fraction(1)
        self.scale = Fraction(1)

    def __mul__(self, other):
        self.scale *= Fraction(other)
        return self

    __rmul__ = __mul__

    def __lt__(self, t):
        ft = Fraction(t) / self.scale
        if ft <= self.lo:
            return False
        if ft >= self.hi:
            return True
        width = self.hi - self.lo
        below = self.rng._choose([(ft - self.lo) / width, (self.hi - ft) / width])
        if below == 0:
            self.hi = ft
            return True
        self.lo = ft
        return False


class ReplayRNG:
    """random.Random look-alike that replays a fixed branch path."""

    def __init__(self, path):
        self.path = path
        self.i = 0

    def _choose(self, probs):
        if self.i == len(self.path):
            raise _Fork(probs)
        k = self.path[self.i]
        self.i += 1
        return k

    def randrange(self, n):
        return self._choose([Fraction(1, n)] * n)

    def getrandbits(self, bits):
        n = 1 << bits
        return _Bits(self._choose([Fraction(1, n)] * n))

    def random(self):
        return _IntervalDraw(self)


def exact_outcomes(fn):
    """Exact output law of fn(rng) by exhausting every RNG branch.

    Only usable when fn consumes boundedly many draws on every path (no
    random-walk loops).  A rejection loop over getrandbits counts as one
    draw: the branches of rejected values are dropped and their mass
    goes to the accepted siblings in proportion.
    """
    def law(path):
        try:
            return {fn(ReplayRNG(path)): Fraction(1)}
        except _Rejected:
            return None
        except _Fork as fork:
            out, kept = {}, Fraction(0)
            for k, pk in enumerate(fork.probs):
                sub = law(path + (k,)) if pk > 0 else None
                if sub is not None:
                    kept += pk
                    for res, pr in sub.items():
                        out[res] = out.get(res, Fraction(0)) + pk * pr
            return {res: pr / kept for res, pr in out.items()}

    return law(())


def reference_resample_run(bundle, seed=0, max_resamples=1_000_000):
    """Literal resampling loop: rescan all events before every pick."""
    rng = random.Random(seed)
    state = bundle.sample(rng)
    iterations = []
    total = 0
    while True:
        picked = []
        while True:
            chosen = None
            for i in range(bundle.n):
                blocked = any(
                    i == j or bundle.graph.adjacent(i, j) for j in picked
                )
                if not blocked and bundle.holds(i, state):
                    chosen = i
                    break
            if chosen is None:
                break
            if total >= max_resamples:
                iterations.append(picked)
                return state, iterations, total, False
            state = bundle.resample(chosen, state, rng)
            total += 1
            picked.append(chosen)
        iterations.append(picked)
        if not picked:
            return state, iterations, total, True


# Pairwise dependency rules, as the bundles evaluated them before they
# carried conflict keys.  Each takes two distinct event indices.


def variable_interferes(bundle, i, j):
    return bool(set(bundle.events[i].variables) & set(bundle.events[j].variables))


def permutation_interferes(bundle, i, j):
    a, b = bundle.events[i].pairs, bundle.events[j].pairs
    return bool({x for x, _ in a} & {x for x, _ in b} or {y for _, y in a} & {y for _, y in b})


def matching_interferes(bundle, i, j):
    union = set(bundle.events[i]) | set(bundle.events[j])
    used = [v for e in union for v in e]
    return len(used) != len(set(used))


def tree_interferes(bundle, i, j):
    verts = [frozenset(v for e in bundle.events[k] for v in e) for k in (i, j)]
    return bool(verts[0] & verts[1])


def appendix_a_interferes(bundle, a, b):
    if a >= bundle.eprime or b >= bundle.eprime:
        return False
    ca = a if a < bundle.k else (a - bundle.k) // bundle.l
    cb = b if b < bundle.k else (b - bundle.k) // bundle.l
    return ca == cb


def app_event_parts(bundle, idx):
    """(copies, vertices) of an app event: every copy and every vertex of
    the event's items, decoded from its payload, never from its keys.  The
    payload is read with its copy indices, which the matching drops."""
    payload = _AppBundle.payload(bundle, idx)
    k = 1 if idx < bundle.n_type1 else 2
    vertices = bundle.family.vertices
    return (frozenset(payload[:k]),
            frozenset(v for item in payload[k:] for v in vertices(item)))


def app_interferes(bundle, a, b):
    copies_a, vertices_a = app_event_parts(bundle, a)
    copies_b, vertices_b = app_event_parts(bundle, b)
    return bool(copies_a & copies_b) and bool(vertices_a & vertices_b)


def color_classes(coloring):
    """Each color of an edge coloring to its edges, in sorted edge order."""
    out = {}
    for edge, color in coloring.color.items():
        out.setdefault(color, []).append(edge)
    return out


# Brute-force solution checks of the three applications, read through the
# colorings' public accessors.  A tree edge is (u, v) with u < v, the
# form ``SpanningTrees`` reads.


def brute_rainbow_matching(coloring, partner):
    n = coloring.n
    if n % 2 or len(partner) != n:
        return False
    for v, w in enumerate(partner):
        if not 0 <= w < n or w == v or partner[w] != v:
            return False
    colors = [coloring.color[(v, w)] for v, w in enumerate(partner) if v < w]
    return len(set(colors)) == len(colors)


def brute_rainbow_trees(coloring, trees):
    n = coloring.n
    used = []
    for tree in trees:
        edges = [tuple(e) for e in tree]
        if len(edges) != n - 1 or len(set(edges)) != len(edges):
            return False
        if any(not 0 <= u < v < n for u, v in edges):
            return False
        # n - 1 distinct edges that reach every vertex from 0 form a tree
        reached, frontier = {0}, [0]
        while frontier:
            u = frontier.pop()
            for a, b in edges:
                w = b if a == u else a if b == u else None
                if w is not None and w not in reached:
                    reached.add(w)
                    frontier.append(w)
        colors = [coloring.color[e] for e in edges]
        if len(reached) != n or len(set(colors)) != len(colors):
            return False
        used += edges
    return len(set(used)) == len(used)


def brute_disjoint_transversals(matrix, perms):
    n = matrix.n
    cells = []
    for pi in perms:
        if sorted(pi) != list(range(n)):
            return False
        if len({matrix.rows[u][v] for u, v in enumerate(pi)}) != n:
            return False
        cells += enumerate(pi)
    return len(set(cells)) == len(cells)


# Scalar and exact-rational kernels as the package computed them before
# the table recurrence ran on arrays and the transport flow on integers.
# Their outputs are the reference the fast kernels must equal exactly.


def scalar_build_table(graph, p, exact=False):
    """(breve, q): breve_q as a list over ascending masks, q by mask."""
    n = graph.n
    if exact:
        pv = [v if isinstance(v, Fraction) else Fraction(v) for v in p]
        one = Fraction(1)
    else:
        pv = [float(v) for v in p]
        one = 1.0
    adj = graph.adjacency_masks()
    gamma_plus = [adj[i] | (1 << i) for i in range(n)]

    breve = [one] * (1 << n)
    for mask in range(1, 1 << n):
        a = (mask & -mask).bit_length() - 1
        breve[mask] = breve[mask ^ (1 << a)] - pv[a] * breve[mask & ~gamma_plus[a]]

    full = (1 << n) - 1
    q = {}
    for mask in sorted(independent_subset_masks(adj, full)):
        weight = one
        gp = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            weight *= pv[i]
            gp |= gamma_plus[i]
            m &= m - 1
        q[mask] = weight * breve[full & ~gp]
    return breve, q


def q_by_mask(table):
    """A PolynomialTable's q over every independent set, by ascending mask."""
    graph = table.graph
    masks = independent_subset_masks(graph.adjacency_masks(), (1 << graph.n) - 1)
    return {m: table.q_of(m) for m in sorted(masks)}


class _FractionFlowNetwork:
    """Edmonds-Karp max flow with exact Fraction capacities.  path_edges
    lists the edge count of each augmenting path, in the order taken."""

    def __init__(self, n):
        self.adj = [[] for _ in range(n)]
        self.to = []
        self.cap = []
        self.path_edges = []

    def add(self, u, v, cap):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(Fraction(0))

    def max_flow(self, s, t):
        total = Fraction(0)
        while True:
            prev_edge = [-1] * len(self.adj)
            prev_edge[s] = -2
            queue = deque([s])
            while queue and prev_edge[t] == -1:
                u = queue.popleft()
                for eid in self.adj[u]:
                    v = self.to[eid]
                    if prev_edge[v] == -1 and self.cap[eid] > 0:
                        prev_edge[v] = eid
                        queue.append(v)
            if prev_edge[t] == -1:
                return total
            bottleneck = None
            v = t
            self.path_edges.append(0)
            while v != s:
                eid = prev_edge[v]
                bottleneck = self.cap[eid] if bottleneck is None else min(bottleneck, self.cap[eid])
                v = self.to[eid ^ 1]
                self.path_edges[-1] += 1
            v = t
            while v != s:
                eid = prev_edge[v]
                self.cap[eid] -= bottleneck
                self.cap[eid ^ 1] += bottleneck
                v = self.to[eid ^ 1]
            total += bottleneck

    def reachable(self, s):
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if v not in seen and self.cap[eid] > 0:
                    seen.add(v)
                    queue.append(v)
        return seen


def fraction_synthesize(space, i):
    """synthesize over a Fraction flow network, full search per path."""
    from locallemma.graphs import non_neighbors
    from locallemma.synth import HallCertificate, SynthesizedOracle, _signature

    pe = space.event_prob(i)
    free = non_neighbors(space.graph, i)
    sources = [u for u in sorted(space.events[i]) if space.probs[u] > 0]
    targets = [w for w in range(space.n_states) if space.probs[w] > 0]
    if not free:
        fresh = tuple((w, space.probs[w]) for w in targets)
        return SynthesizedOracle(event=i, rows={u: fresh for u in sources})
    sig_u = {u: _signature(space, free, u) for u in sources}
    sig_w = {w: _signature(space, free, w) for w in targets}

    source_id = {u: 2 + k for k, u in enumerate(sources)}
    target_id = {w: 2 + len(sources) + k for k, w in enumerate(targets)}
    net = _FractionFlowNetwork(2 + len(sources) + len(targets))
    for u in sources:
        net.add(0, source_id[u], space.probs[u] / pe)
    for w in targets:
        net.add(target_id[w], 1, space.probs[w])
    allowed = {}
    for u in sources:
        row = [w for w in targets if sig_w[w] <= sig_u[u]]
        allowed[u] = row
        for w in row:
            net.add(source_id[u], target_id[w], Fraction(2))

    value = net.max_flow(0, 1)
    if value != 1:
        cut = net.reachable(0)
        blocked = tuple(u for u in sources if source_id[u] in cut)
        reach = {w for u in blocked for w in allowed[u]}
        return HallCertificate(
            event=i,
            states=blocked,
            source_mass=sum((space.probs[u] for u in blocked), Fraction(0)) / pe,
            reachable_mass=sum((space.probs[w] for w in reach), Fraction(0)),
        )

    rows = {}
    for u in sources:
        mass = space.probs[u] / pe
        row = []
        for eid in net.adj[source_id[u]]:
            v = net.to[eid]
            if v != 0 and eid % 2 == 0 and net.cap[eid ^ 1] > 0:
                w = targets[v - 2 - len(sources)]
                row.append((w, net.cap[eid ^ 1] / mass))
        row.sort()
        rows[u] = tuple(row)
    return SynthesizedOracle(event=i, rows=rows)


def linear_scan(cum, r):
    """First index whose cumulative value exceeds r, else the last index."""
    for k, acc in enumerate(cum):
        if r < acc:
            return k
    return len(cum) - 1


# The spanning-tree samplers as the package ran them before their walks
# took closed forms: a general multigraph with bisected walk tables, the
# K_n walk on it, and the conditioned redraw on a contracted multigraph.
# The closed-form samplers must give the same trees from the same stream.


class Multigraph:
    """Undirected multigraph with integer edge multiplicities."""

    def __init__(self, n):
        if n <= 0:
            raise ValueError("multigraph needs at least one vertex")
        self.n = n
        self._weight = [dict() for _ in range(n)]
        self._walk_cache = None

    def add_edge(self, u, v, mult=1):
        if u == v:
            raise ValueError("self-loops are not allowed")
        if mult < 1:
            raise ValueError("multiplicity must be positive")
        self._weight[u][v] = self._weight[u].get(v, 0) + mult
        self._weight[v][u] = self._weight[v].get(u, 0) + mult
        self._walk_cache = None

    def is_connected(self):
        if self.n == 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._weight[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def _walk_tables(self):
        if self._walk_cache is None:
            tables = []
            for u in range(self.n):
                nbrs = []
                cum = []
                acc = 0
                for v, w in sorted(self._weight[u].items()):
                    nbrs.append(v)
                    acc += w
                    cum.append(acc)
                tables.append((nbrs, cum))
            self._walk_cache = tables
        return self._walk_cache

    def step(self, u, rng):
        """One step of the multiplicity-weighted random walk from u."""
        nbrs, cum = self._walk_tables()[u]
        if not nbrs:
            raise ValueError(f"vertex {u} is isolated")
        r = rng.random() * cum[-1]
        return nbrs[bisect_right(cum, r)]


def complete_multigraph(n):
    g = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def uniform_spanning_tree(graph, rng):
    """Spanning tree by loop-erased random walks, weighted by the product
    of its edge multiplicities; raises on a disconnected graph."""
    if not graph.is_connected():
        raise ValueError("spanning tree of a disconnected graph")
    n = graph.n
    succ = [-1] * n
    in_tree = [False] * n
    in_tree[0] = True
    for start in range(1, n):
        u = start
        while not in_tree[u]:
            succ[u] = graph.step(u, rng)
            u = succ[u]
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = succ[u]
    return [(v, succ[v]) for v in range(1, n) if succ[v] >= 0]


def reference_spanning_tree(n, rng, graph=None):
    """Uniform spanning tree of K_n by a walk on its multigraph."""
    graph = graph or complete_multigraph(n)
    return frozenset(tuple(sorted(e)) for e in uniform_spanning_tree(graph, rng))


def reference_tree_resample(tree, event_edges, rng):
    """Conditioned redraw of a spanning tree of K_n on a contracted multigraph."""
    n = len(tree) + 1
    edges = sorted({tuple(sorted(e)) for e in event_edges})
    tset = set(tree)
    assert all(e in tset for e in edges)
    if not edges:
        return tree
    w_verts = sorted({v for e in edges for v in e})
    w_index = {v: k for k, v in enumerate(w_verts)}
    outside = [v for v in range(n) if v not in w_index]
    kept = [e for e in tset if e[0] not in w_index and e[1] not in w_index]
    parent = {v: v for v in outside}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in kept:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for v in outside:
        groups.setdefault(find(v), []).append(v)
    components = sorted(groups.values(), key=lambda c: c[0])

    nw = len(w_verts)
    contracted = Multigraph(nw + len(components))
    for a in range(nw):
        for b in range(a + 1, nw):
            contracted.add_edge(a, b)
    for k, comp in enumerate(components):
        for a in range(nw):
            contracted.add_edge(a, nw + k, mult=len(comp))
    redrawn = []
    for a, b in uniform_spanning_tree(contracted, rng):
        if a > b:
            a, b = b, a
        if b < nw:
            redrawn.append((w_verts[a], w_verts[b]))
        else:
            comp = components[b - nw]
            member = comp[rng.randrange(len(comp))]
            redrawn.append(tuple(sorted((w_verts[a], member))))
    return frozenset(kept) | frozenset(redrawn)


# The streak bundle as the package ran it before its state became bytes:
# a tuple of ints, copied to a list and back on every resample, and an
# occurrence scan that tests every slot.  Layout and graph are the
# package's; the bytes bundle must give the same bits from the same stream.


class TupleAppendixABundle(AppendixABundle):
    def sample(self, rng):
        return tuple(rng.getrandbits(1) for _ in range(self.n_vars))

    def holds(self, i, state):
        if i < self.k:
            return state[i] == 0
        if i < self.eprime:
            return state[self.y_offset + (i - self.k)] == 0
        return state[self.w_slot] == 1

    def occurring(self, state):
        k, l = self.k, self.l
        out = [i for i in range(k) if state[i] == 0]
        yo = self.y_offset
        out.extend(k + j for j in range(k * l) if state[yo + j] == 0)
        if state[self.w_slot] == 1:
            out.append(self.eprime)
        return out

    def resample(self, i, state, rng):
        vals = list(state)
        if i < self.k:
            if vals[i] != 0:
                raise OracleEventError(f"event {i} does not hold")
            vals[i] = rng.getrandbits(1)
        elif i < self.eprime:
            cluster = (i - self.k) // self.l
            zi = self.z_offset + cluster
            yi = self.y_offset + (i - self.k)
            if vals[yi] != 0:
                raise OracleEventError(f"event {i} does not hold")
            x = vals[cluster]
            vals[cluster] = vals[zi]
            vals[yi] = rng.getrandbits(1)
            vals[zi] = x
        else:
            if vals[self.w_slot] != 1:
                raise OracleEventError(f"event {i} does not hold")
            zo = self.z_offset
            vals[self.w_slot] = vals[zo]
            for t in range(self.k - 1):
                vals[zo + t] = vals[zo + t + 1]
            vals[zo + self.k - 1] = rng.getrandbits(1)
        return tuple(vals)

    def exact_distribution(self):
        if self.n_vars > 20:
            raise ValueError("exact enumeration refused beyond 20 variables")
        pr = 1 / (1 << self.n_vars)
        return {tuple(code >> t & 1 for t in range(self.n_vars)): pr
                for code in range(1 << self.n_vars)}
