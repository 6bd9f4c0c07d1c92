"""Textbook values of the benchmark's oracles.

Run from the repository root with ``python3 -m pytest wickbench``.
"""

from fractions import Fraction

import oracles


def D(a, b, exp=1):
    return ("D",) + tuple(sorted((a, b))) + (exp,)


def test_degree_one_graph_counts_are_perfect_matchings():
    counts = [oracles.multigraph_sum([(f"x{i}", 1) for i in range(p)])[1] for p in range(1, 7)]
    assert counts == [0, 1, 0, 3, 0, 15]


def test_four_point_function():
    t, _ = oracles.multigraph_sum([("x1", 1), ("x2", 1), ("x3", 1), ("x4", 1)])
    assert t == {
        (D("x1", "x2"), D("x3", "x4")): 1,
        (D("x1", "x3"), D("x2", "x4")): 1,
        (D("x1", "x4"), D("x2", "x3")): 1,
    }


def test_phi_squared_triangle():
    occurrences = [("x1", 2), ("x2", 2), ("x3", 2)]
    want = {(D("x1", "x2"), D("x1", "x3"), D("x2", "x3")): Fraction(8)}
    assert oracles.multigraph_sum(occurrences) == (want, 1)
    assert oracles.multigraph_sum(occurrences, connected_only=True) == (want, 1)


def test_connected_graphs_drop_disconnected_ones():
    occurrences = [("x1", 1), ("x2", 1), ("x3", 1), ("x4", 1)]
    assert oracles.multigraph_sum(occurrences, connected_only=True) == ({}, 0)
    # bubble: phi^2(x) phi^2(y) has the one graph with a double line
    assert oracles.multigraph_sum([("x", 2), ("y", 2)], connected_only=True) == (
        {(D("x", "y", 2),): Fraction(2)}, 1)


def test_same_point_contraction():
    assert oracles.multigraph_sum([("x", 1), ("x", 1)]) == ({(D("x", "x"),): 1}, 1)


def test_units():
    assert oracles.multigraph_sum([]) == ({(): 1}, 0)
    assert oracles.multigraph_sum([], connected_only=True) == ({}, 0)
    assert oracles.contraction_table_sum([], []) == {(): 1}
    assert oracles.contraction_table_sum([("x", 1)], []) == {}


def test_six_phi_four_graph_count():
    assert oracles.multigraph_sum([(f"x{i}", 4) for i in range(6)])[1] == 3355


def test_vacuum_of_twisted_product():
    # eps(phi^2(x) o phi(y)phi(y)) = 2 D(x,y)^2
    assert oracles.contraction_table_sum([("x", 2)], [("y", 1), ("y", 1)]) == {
        (D("x", "y", 2),): 2}
    # powers must balance
    assert oracles.contraction_table_sum([("x", 2)], [("y", 1)]) == {}


def test_wightman_contractions_are_oriented():
    assert oracles.contraction_table_sum([("y", 1)], [("x", 1)], oracles.ORIENTED) == {
        (("Dplus", "y", "x", 1),): 1}
    assert oracles.contraction_table_sum([("x", 3)], [("y", 3)], oracles.ORIENTED) == {
        (("Dplus", "x", "y", 3),): 6}


def test_contraction_tables_count_matrices_with_margins():
    # 2x2 tables with all margins 2: [[2,0],[0,2]], [[1,1],[1,1]], [[0,2],[2,0]]
    assert len(list(oracles.contraction_tables((2, 2), (2, 2)))) == 3


def test_set_partitions_are_bell_numbers():
    assert [len(list(oracles.set_partitions(list(range(n))))) for n in range(7)] == [
        1, 1, 2, 5, 15, 52, 203]


def test_normal_product_merges_occurrences():
    u = {(("x", 1),): Fraction(1, 2), (): Fraction(3)}
    v = {(("x", 1),): Fraction(2)}
    assert oracles.normal_product(u, v) == {(("x", 1), ("x", 1)): 1, (("x", 1),): 6}
