import itertools
import json
import math
from fractions import Fraction

import pytest

from qftalg.errors import UnsupportedFormat
from qftalg.graphs import (
    AdjacencyTerm,
    DegreeSequence,
    enumerate_adjacency,
    export_graphs,
    is_connected,
    t_connected_via_graphs,
    t_via_graphs,
)
from qftalg.hopf import Element, Monomial
from qftalg.coqts import t_functional
from qftalg.laws import exhaustive_monomials
from qftalg.renorm import connected_T
from qftalg.scalar import D, PropPoly

from qft_oracles import matchings_t, mono

UNIT = Monomial.unit()


def degree_ones(p):
    return DegreeSequence(tuple(f"x{i}" for i in range(1, p + 1)), (1,) * p)


class TestEnumeration:
    def test_two_degree_one_vertices(self):
        terms = enumerate_adjacency(degree_ones(2))
        assert len(terms) == 1
        assert terms[0].matrix == ((0, 1), (1, 0))
        assert terms[0].weight == 1

    def test_odd_total_degree_empty(self):
        assert enumerate_adjacency(degree_ones(3)) == []

    def test_two_degree_two_vertices(self):
        terms = enumerate_adjacency(DegreeSequence(("x1", "x2"), (2, 2)))
        assert len(terms) == 1
        assert terms[0].matrix == ((0, 2), (2, 0))
        assert terms[0].weight == 2

    def test_matching_counts_double_factorial(self):
        expected = {1: 0, 2: 1, 3: 0, 4: 3, 5: 0, 6: 15}
        for p, count in expected.items():
            assert len(enumerate_adjacency(degree_ones(p))) == count

    def test_duplicate_free_row_major_ascending(self):
        seq = DegreeSequence(("x1", "x2", "x3", "x4"), (2, 2, 2, 2))
        terms = enumerate_adjacency(seq)
        encodings = [
            tuple(t.matrix[i][j] for i in range(4) for j in range(i + 1, 4))
            for t in terms
        ]
        assert encodings == sorted(encodings)
        assert len(set(encodings)) == len(encodings)

    def test_margins_hold(self):
        seq = DegreeSequence(("x", "y", "z"), (3, 2, 1))
        for term in enumerate_adjacency(seq):
            for i, degree in enumerate(seq.degrees):
                assert sum(term.matrix[i]) == degree

    def test_weights_are_integers(self):
        # n_1!...n_p! / prod_{i<j} m_ij!, recomputed from each matrix
        for u in exhaustive_monomials(4, 3, include_unit=False):
            seq = DegreeSequence.from_monomial(u.sorted_terms()[0][0])
            numerator = math.prod(map(math.factorial, seq.degrees))
            for term in enumerate_adjacency(seq):
                upper = [v for i, row in enumerate(term.matrix) for v in row[i + 1:]]
                assert type(term.weight) is int, term
                assert term.weight * math.prod(map(math.factorial, upper)) == numerator


class TestTViaGraphs:
    def test_unit(self):
        assert t_via_graphs(UNIT) == PropPoly.one()

    def test_single_edge(self):
        assert t_via_graphs(mono(("x1", 1), ("x2", 1))) == PropPoly.symbol(D("x1", "x2"))

    def test_triangle(self):
        got = t_via_graphs(mono(("x1", 2), ("x2", 2), ("x3", 2)))
        expected = PropPoly.from_symbol_powers(
            [(D("x1", "x2"), 1), (D("x1", "x3"), 1), (D("x2", "x3"), 1)], 8
        )
        assert got == expected

    def test_four_fields_matchings(self):
        got = t_via_graphs(mono(("x1", 1), ("x2", 1), ("x3", 1), ("x4", 1)))
        assert got == matchings_t(["x1", "x2", "x3", "x4"])

    def test_matches_chronological_route_small(self):
        gens = [("x", 1), ("x", 2), ("y", 1), ("y", 2), ("z", 3)]
        for size in range(4):
            for combo in itertools.combinations_with_replacement(gens, size):
                m = mono(*combo)
                assert t_via_graphs(m) == t_functional(Element.from_monomial(m))

    def test_repeated_point_self_propagator(self):
        m = mono(("x", 1), ("x", 1))
        assert t_via_graphs(m) == PropPoly.symbol(D("x", "x"))


class TestConnectivity:
    def test_disconnected_matching(self):
        matrix = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        term = AdjacencyTerm(matrix, Fraction(1), PropPoly.one())
        assert not is_connected(term)

    def test_triangle_connected(self):
        matrix = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert is_connected(AdjacencyTerm(matrix, Fraction(1), PropPoly.one()))

    def test_multi_edge_connected(self):
        assert is_connected(AdjacencyTerm(((0, 3), (3, 0)), Fraction(1), PropPoly.one()))

    def test_single_vertex_connected(self):
        assert is_connected(AdjacencyTerm(((0,),), Fraction(1), PropPoly.one()))


class TestConnectedFunctional:
    def test_four_matchings_all_disconnected(self):
        assert not t_connected_via_graphs(mono(("x1", 1), ("x2", 1), ("x3", 1), ("x4", 1)))

    def test_two_squares_connected(self):
        got = t_connected_via_graphs(mono(("x1", 2), ("x2", 2)))
        assert got == PropPoly.symbol(D("x1", "x2"), 2, 2)

    def test_single_vertex_zero(self):
        for n in range(1, 4):
            assert not t_connected_via_graphs(mono(("x", n)))

    def test_unit_convention(self):
        assert t_connected_via_graphs(UNIT) == PropPoly.zero()

    def test_matches_connected_product_route_small(self):
        # four occurrences are the first with disconnected graphs
        gens = [("x", 1), ("x", 2), ("y", 2), ("z", 1)]
        for size in range(1, 5):
            for combo in itertools.combinations_with_replacement(gens, size):
                m = mono(*combo)
                algebraic = connected_T(Element.from_monomial(m)).counit()
                assert t_connected_via_graphs(m) == algebraic


class TestExport:
    def test_unsupported_format(self):
        with pytest.raises(UnsupportedFormat):
            export_graphs(mono(("x", 1), ("y", 1)), format="xml")

    def test_dot_two_vertices(self):
        text = export_graphs(mono(("x1", 1), ("x2", 1)), format="dot")
        assert text == (
            "graph G_0 {\n"
            '  label="weight 1/1";\n'
            '  "1:phi^1_x1";\n'
            '  "2:phi^1_x2";\n'
            '  "1:phi^1_x1" -- "2:phi^1_x2";\n'
            "}"
        )

    def test_dot_parity_obstruction_empty(self):
        assert export_graphs(mono(("x1", 1), ("x2", 1), ("x3", 1)), format="dot") == ""

    def test_dot_multiplicity_repeats_edges(self):
        text = export_graphs(mono(("x1", 2), ("x2", 2)), format="dot")
        assert text.count('"1:phi^2_x1" -- "2:phi^2_x2";') == 2
        assert 'label="weight 2/1";' in text

    def test_json_connected_triangle(self):
        text = export_graphs(mono(("x1", 2), ("x2", 2), ("x3", 2)), connected_only=True, format="json")
        data = json.loads(text)
        assert data["expansion"] == "one vertex per generator occurrence"
        assert len(data["graphs"]) == 1
        record = data["graphs"][0]
        assert record["weight"] == "8/1"
        assert record["connected"] is True
        assert record["vertices"] == [
            {"index": 1, "point": "x1", "power": 2},
            {"index": 2, "point": "x2", "power": 2},
            {"index": 3, "point": "x3", "power": 2},
        ]
        assert record["edges"] == [
            {"i": 1, "j": 2, "mult": 1},
            {"i": 1, "j": 3, "mult": 1},
            {"i": 2, "j": 3, "mult": 1},
        ]

    def test_json_empty_list(self):
        data = json.loads(export_graphs(mono(("x", 1)), format="json"))
        assert data["graphs"] == []

    def test_self_point_edges_flagged(self):
        data = json.loads(export_graphs(mono(("x", 1), ("x", 1)), format="json"))
        assert data["graphs"][0]["edges"][0]["self_point"] is True
        dot = export_graphs(mono(("x", 1), ("x", 1)), format="dot")
        assert "[style=dashed]" in dot

    def test_json_weight_sum_rebuilds_t(self):
        m = mono(("x1", 2), ("x2", 2), ("x3", 2))
        data = json.loads(export_graphs(m, format="json"))
        total = PropPoly.zero()
        for record in data["graphs"]:
            powers = []
            for edge in record["edges"]:
                a = record["vertices"][edge["i"] - 1]["point"]
                b = record["vertices"][edge["j"] - 1]["point"]
                powers.append((D(a, b), edge["mult"]))
            total = total + PropPoly.from_symbol_powers(powers, Fraction(record["weight"]))
        assert total == t_via_graphs(m)
