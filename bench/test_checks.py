"""Each output check accepts a right answer and rejects a corrupted one.

Run with ``python3 -m pytest bench``; nothing here imports the program.
"""

from fractions import Fraction

import checks

# ---------------------------------------------------------------------------
# transversals


ROWS = [[4 * u + v for v in range(4)] for u in range(4)]  # every cell its own colour
PERMS = [[0, 1, 2, 3], [1, 2, 3, 0]]


def test_transversals_accept_disjoint_rainbow_permutations():
    assert checks.check_transversals(ROWS, 2, PERMS) == []


def test_transversals_reject_a_swapped_cell():
    # swapping two images of the second transversal lands it on (0, 0)
    assert checks.check_transversals(ROWS, 2, [PERMS[0], [0, 2, 3, 1]])


def test_transversals_reject_a_repeated_colour():
    rows = [row[:] for row in ROWS]
    rows[1][1] = rows[0][0]
    assert checks.check_transversals(rows, 2, PERMS)


def test_transversals_reject_a_non_permutation_and_a_wrong_count():
    assert checks.check_transversals(ROWS, 2, [PERMS[0], [1, 1, 3, 0]])
    assert checks.check_transversals(ROWS, 3, PERMS)


# ---------------------------------------------------------------------------
# rainbow trees and matchings


K4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
RAINBOW = {e: k for k, e in enumerate(K4)}
STAR = [[0, 1], [0, 2], [0, 3]]
PATH = [[1, 2], [2, 3], [1, 3]]  # closes the cycle 1-2-3 and misses vertex 0


def test_trees_accept_disjoint_rainbow_spanning_trees():
    assert checks.check_rainbow_trees(4, RAINBOW, 1, [STAR]) == []
    assert checks.check_rainbow_trees(4, RAINBOW, 2, [[[0, 1], [1, 2], [2, 3]],
                                                      [[0, 2], [0, 3], [1, 3]]]) == []


def test_trees_reject_a_cycle():
    problems = checks.check_rainbow_trees(4, RAINBOW, 1, [PATH])
    assert any("cycle" in p for p in problems)


def test_trees_reject_a_repeated_colour():
    color = dict(RAINBOW)
    color[(0, 3)] = color[(0, 1)]
    assert checks.check_rainbow_trees(4, color, 1, [STAR])


def test_trees_reject_a_shared_edge_and_a_short_tree():
    problems = checks.check_rainbow_trees(4, RAINBOW, 2, [STAR, [[3, 0], [1, 2], [2, 3]]])
    assert problems == ["tree 1 reuses edge (0, 3)"]
    assert checks.check_rainbow_trees(4, RAINBOW, 1, [STAR[:2]])


def test_matching_accepts_a_rainbow_perfect_matching():
    assert checks.check_rainbow_matching(4, RAINBOW, [[0, 1], [2, 3]]) == []


def test_matching_rejects_a_repeated_colour_and_an_imperfect_matching():
    color = dict(RAINBOW)
    color[(2, 3)] = color[(0, 1)]
    assert checks.check_rainbow_matching(4, color, [[0, 1], [2, 3]])
    assert checks.check_rainbow_matching(4, RAINBOW, [[0, 1], [1, 3]])
    assert checks.check_rainbow_matching(4, RAINBOW, [[0, 1]])


# ---------------------------------------------------------------------------
# run logs and streaks


LOG = {"iterations": [[0, 3], [3], []], "total_resamples": 3, "terminated": True}


def test_log_accepts_a_consistent_log():
    assert checks.check_log(LOG) == []


def test_log_rejects_a_wrong_total_and_an_unfinished_run():
    assert checks.check_log({**LOG, "total_resamples": 4})
    assert checks.check_log({**LOG, "terminated": False})
    assert checks.check_log({**LOG, "iterations": [[0, 3], [3]], "total_resamples": 3})


def test_longest_streak_counts_consecutive_iterations():
    assert checks.longest_streak([[9], [1, 9], [2], [9], [9], [9], []], 9) == 3
    assert checks.longest_streak([[1], []], 9) == 0


def test_streak_state_checks_the_final_bits():
    k, l = 2, 1
    good = [1, 1] + [1, 1] + [0, 1] + [0]  # X | Y | Z | W
    assert checks.check_streak_state(k, l, good) == []
    assert checks.check_streak_state(k, l, good[:-1] + [1])
    assert checks.check_streak_state(k, l, [0] + good[1:])
    assert checks.check_streak_state(k, l, good[:2] + [0] + good[3:])
    assert checks.check_streak_state(k, l, good[:-1])


# ---------------------------------------------------------------------------
# synthesized kernels


# two fair bits as states 0..3 (bit 0 is the low bit); E0 = {bit 0 is 0},
# E1 = {bit 1 is 0}; the events are not adjacent
PROBS = [Fraction(1, 4)] * 4
EVENTS = [frozenset({0, 2}), frozenset({0, 1})]
NEIGHBORS = [set(), set()]
HALF = Fraction(1, 2)
# redraw bit 0 and keep bit 1: the textbook oracle for E0
KERNEL = {0: ((0, HALF), (1, HALF)), 2: ((2, HALF), (3, HALF))}


def test_kernel_accepts_the_variable_oracle():
    assert checks.check_kernel(PROBS, EVENTS, NEIGHBORS, 0, KERNEL) == []


def test_kernel_rejects_a_row_off_by_one_in_256():
    off = Fraction(1, 256)
    rows = {**KERNEL, 0: ((0, HALF + off), (1, HALF))}
    problems = checks.check_kernel(PROBS, EVENTS, NEIGHBORS, 0, rows)
    assert any("sum to 1" in p for p in problems)


def test_kernel_rejects_a_row_that_keeps_its_sum_but_moves_the_measure():
    off = Fraction(1, 256)
    rows = {**KERNEL, 0: ((0, HALF + off), (1, HALF - off))}
    problems = checks.check_kernel(PROBS, EVENTS, NEIGHBORS, 0, rows)
    assert problems == ["kernel 0 does not restore the measure"]


def test_kernel_rejects_waking_an_off_non_neighbour():
    # from state 2 (E1 off) to state 1 (E1 on), balanced by 0 -> 3
    rows = {0: ((1, HALF), (3, HALF)), 2: ((0, HALF), (1, HALF))}
    problems = checks.check_kernel(PROBS, EVENTS, NEIGHBORS, 0, rows)
    assert any("switches on" in p for p in problems)


def test_kernel_rejects_missing_rows():
    assert checks.check_kernel(PROBS, EVENTS, NEIGHBORS, 0, {0: KERNEL[0]})


# ---------------------------------------------------------------------------
# polynomial tables


def test_alternating_sum_matches_a_hand_expansion():
    p = [0.1, 0.2, 0.3]
    path = [{1}, {0, 2}, {1}]  # independent sets: {}, {0}, {1}, {2}, {0, 2}
    expected = 1 - 0.1 - 0.2 - 0.3 + 0.1 * 0.3
    assert abs(checks.alternating_q0(3, path, p) - expected) < 1e-15
    empty = [set(), set(), set()]
    assert abs(checks.alternating_q0(3, empty, p) - 0.9 * 0.8 * 0.7) < 1e-15


def test_table_rejects_a_q0_off_by_more_than_the_tolerance():
    p = [0.1, 0.2, 0.3]
    path = [{1}, {0, 2}, {1}]
    q0 = checks.alternating_q0(3, path, p)
    assert checks.check_table(3, path, p, q0, True) == []
    assert checks.check_table(3, path, p, q0 + 1e-9, True)
    assert checks.check_table(3, path, p, q0, False)
