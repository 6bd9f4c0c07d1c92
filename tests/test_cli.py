import argparse
import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import qftalg
from qftalg import hopf, laws
from qftalg.cli import build_parser, main
from qftalg.hopf import Generator, Monomial, coproduct


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


GOLDEN_T = "D(x1,x2)*D(x3,x4) + D(x1,x3)*D(x2,x4) + D(x1,x4)*D(x2,x3)\n"

GOLDEN_TRIANGLE = (
    '{"graphs": [{"vertices": [{"index": 1, "point": "x1", "power": 2}, '
    '{"index": 2, "point": "x2", "power": 2}, {"index": 3, "point": "x3", "power": 2}], '
    '"edges": [{"i": 1, "j": 2, "mult": 1}, {"i": 1, "j": 3, "mult": 1}, '
    '{"i": 2, "j": 3, "mult": 1}], "weight": "8/1", "connected": true}], '
    '"expansion": "one vertex per generator occurrence"}\n'
)


# Byte goldens for each rendering branch, recorded before the sums of
# PropPoly, Element and Tensor moved onto one accumulation kernel: a
# multi-term coefficient, a ``-m`` term, a unit term and rational ones, in
# tensors (`` * ``) and elements (``*``), pretty and JSON.
RENDER_EXPR = "(D(x,y)+1)*phi^2(x)-3/2*phi(y)*phi(x)"
T_EXPR = "phi(x1)*phi(x2)*phi^2(x3)-2*phi(x1)+(1+D(x1,x2))*phi(x2)*phi(x3)"

GOLDEN_DELTA_PRIME_NEG = (
    "1/3 * 1 ⊗ 1 + 1 ⊗ phi^2(x)*phi(y) - 1 ⊗ phi(z) + phi^2(x) ⊗ phi(y) "
    "+ phi^2(x)*phi(y) ⊗ 1 + phi(y) ⊗ phi^2(x) - phi(z) ⊗ 1\n"
)

GOLDEN_TR = (
    "1/2*D(x1,x2) + 1/2*phi(x1)*phi(x2) - 3*phi(x1)*phi^2(x2) + 2/3*phi^2(x1) "
    "- 6*D(x1,x2)*phi(x2)\n"
)

GOLDEN_DELTA = (
    '-3/2 * 1 ⊗ phi(x)*phi(y) + (1 + D(x,y)) * 1 ⊗ phi^2(x) + (2 + 2*D(x,y)) * '
    'phi(x) ⊗ phi(x) - 3/2 * phi(x) ⊗ phi(y) - 3/2 * phi(x)*phi(y) ⊗ 1 + (1 + '
    'D(x,y)) * phi^2(x) ⊗ 1 - 3/2 * phi(y) ⊗ phi(x)\n'
)

GOLDEN_DELTA_JSON = (
    '[{"slots": [[], [{"point": "x", "power": 1, "mult": 1}, {"point": "y", '
    '"power": 1, "mult": 1}]], "coeff": [{"coeff": "-3/2", "symbols": []}]}, '
    '{"slots": [[], [{"point": "x", "power": 2, "mult": 1}]], "coeff": '
    '[{"coeff": "1/1", "symbols": []}, {"coeff": "1/1", "symbols": [{"kind": '
    '"D", "a": "x", "b": "y", "pow": 1}]}]}, {"slots": [[{"point": "x", '
    '"power": 1, "mult": 1}], [{"point": "x", "power": 1, "mult": 1}]], '
    '"coeff": [{"coeff": "2/1", "symbols": []}, {"coeff": "2/1", "symbols": '
    '[{"kind": "D", "a": "x", "b": "y", "pow": 1}]}]}, {"slots": [[{"point": '
    '"x", "power": 1, "mult": 1}], [{"point": "y", "power": 1, "mult": 1}]], '
    '"coeff": [{"coeff": "-3/2", "symbols": []}]}, {"slots": [[{"point": "x", '
    '"power": 1, "mult": 1}, {"point": "y", "power": 1, "mult": 1}], []], '
    '"coeff": [{"coeff": "-3/2", "symbols": []}]}, {"slots": [[{"point": "x", '
    '"power": 2, "mult": 1}], []], "coeff": [{"coeff": "1/1", "symbols": []}, '
    '{"coeff": "1/1", "symbols": [{"kind": "D", "a": "x", "b": "y", "pow": '
    '1}]}]}, {"slots": [[{"point": "y", "power": 1, "mult": 1}], [{"point": '
    '"x", "power": 1, "mult": 1}]], "coeff": [{"coeff": "-3/2", "symbols": '
    '[]}]}]\n'
)

GOLDEN_T_MIXED = (
    'D(x1,x2)*D(x2,x3) + 2*D(x1,x3)*D(x2,x3) + D(x2,x3) - 2*phi(x1) + '
    'phi(x1)*phi(x2)*phi^2(x3) + 2*D(x2,x3)*phi(x1)*phi(x3) + (1 + D(x1,x2) + '
    '2*D(x1,x3))*phi(x2)*phi(x3) + D(x1,x2)*phi^2(x3)\n'
)

GOLDEN_T_JSON = (
    '[{"monomial": [], "coeff": [{"coeff": "2/1", "symbols": [{"kind": "D", '
    '"a": "x1", "b": "x3", "pow": 1}, {"kind": "D", "a": "x2", "b": "x3", '
    '"pow": 1}]}]}, {"monomial": [{"point": "x1", "power": 1, "mult": 1}], '
    '"coeff": [{"coeff": "-2/1", "symbols": []}]}, {"monomial": [{"point": '
    '"x1", "power": 1, "mult": 1}, {"point": "x2", "power": 1, "mult": 1}, '
    '{"point": "x3", "power": 2, "mult": 1}], "coeff": [{"coeff": "1/1", '
    '"symbols": []}]}, {"monomial": [{"point": "x1", "power": 1, "mult": 1}, '
    '{"point": "x3", "power": 1, "mult": 1}], "coeff": [{"coeff": "2/1", '
    '"symbols": [{"kind": "D", "a": "x2", "b": "x3", "pow": 1}]}]}, '
    '{"monomial": [{"point": "x2", "power": 1, "mult": 1}, {"point": "x3", '
    '"power": 1, "mult": 1}], "coeff": [{"coeff": "2/1", "symbols": [{"kind": '
    '"D", "a": "x1", "b": "x3", "pow": 1}]}]}, {"monomial": [{"point": "x3", '
    '"power": 2, "mult": 1}], "coeff": [{"coeff": "1/1", "symbols": [{"kind": '
    '"D", "a": "x1", "b": "x2", "pow": 1}]}]}]\n'
)

GOLDEN_WICK_NEG = (
    'D(x,y)^2 - 2*D(x,y)*phi(x) + 3*D(x,y)*phi(x)*phi(y) + '
    'D(x,y)*phi(x)*phi^2(y) - phi^2(x)*phi(y) + phi^2(x)*phi^2(y) + '
    '2*D(x,y)^2*phi(y)\n'
)

GOLDEN_TR_JSON = (
    '[{"monomial": [], "coeff": [{"coeff": "1/2", "symbols": [{"kind": "D", '
    '"a": "x1", "b": "x2", "pow": 1}]}]}, {"monomial": [{"point": "x1", '
    '"power": 1, "mult": 1}, {"point": "x2", "power": 1, "mult": 1}], "coeff": '
    '[{"coeff": "1/2", "symbols": []}]}, {"monomial": [{"point": "x1", '
    '"power": 1, "mult": 1}, {"point": "x2", "power": 2, "mult": 1}], "coeff": '
    '[{"coeff": "-3/1", "symbols": []}]}, {"monomial": [{"point": "x1", '
    '"power": 2, "mult": 1}], "coeff": [{"coeff": "2/3", "symbols": []}]}, '
    '{"monomial": [{"point": "x2", "power": 1, "mult": 1}], "coeff": '
    '[{"coeff": "-6/1", "symbols": [{"kind": "D", "a": "x1", "b": "x2", "pow": '
    '1}]}]}]\n'
)

# a vertex table with rational images and a two-generator source
RENDER_VERTEX = [
    {
        "from": [{"point": "x1", "power": 1, "mult": 1}],
        "to": [{"point": "x1", "power": 1, "coeff": "1/1"}],
    },
    {
        "from": [{"point": "x2", "power": 1, "mult": 1}],
        "to": [
            {"point": "x2", "power": 1, "coeff": "1/2"},
            {"point": "x2", "power": 2, "coeff": "-3/1"},
        ],
    },
    {
        "from": [
            {"point": "x1", "power": 1, "mult": 1},
            {"point": "x2", "power": 1, "mult": 1},
        ],
        "to": [{"point": "x1", "power": 2, "coeff": "2/3"}],
    },
]


# Repeated generators: a set partition of the occurrences can have equal
# blocks, and its labelled count then differs from one.  Recorded before
# T_c, t_c and T_R were summed over set partitions instead of ordered
# reduced-coproduct iterates.
REPEATED_EXPR = "phi^2(x1)*phi^2(x1)*phi(x2)*phi(x2)-2/3*phi^2(x1)*phi^2(x2)*phi^2(x2)"
REPEATED_TR_EXPR = "phi^2(x1)*phi^2(x1)*phi(x2)*phi(x2)"

GOLDEN_TC_REPEATED = (
    '8*D(x1,x1)*D(x1,x2)^2 - 16/3*D(x1,x2)^2*D(x2,x2) - 32/3*D(x1,x2)*D(x2,x2)*phi(x1)*'
    'phi(x2) - 16/3*D(x1,x2)^2*phi(x2)*phi(x2)\n'
)

GOLDEN_TC_REPEATED_JSON = (
    '[{"monomial": [], "coeff": [{"coeff": "8/1", "symbols": [{"kind": "D", '
    '"a": "x1", "b": "x1", "pow": 1}, {"kind": "D", "a": "x1", "b": "x2", "pow": '
    '2}]}, {"coeff": "-16/3", "symbols": [{"kind": "D", "a": "x1", "b": "x2", '
    '"pow": 2}, {"kind": "D", "a": "x2", "b": "x2", "pow": 1}]}]}, {"monomial": '
    '[{"point": "x1", "power": 1, "mult": 1}, {"point": "x2", "power": 1, "mult": '
    '1}], "coeff": [{"coeff": "-32/3", "symbols": [{"kind": "D", "a": "x1", '
    '"b": "x2", "pow": 1}, {"kind": "D", "a": "x2", "b": "x2", "pow": 1}]}]}, '
    '{"monomial": [{"point": "x2", "power": 1, "mult": 2}], "coeff": [{"coeff": '
    '"-16/3", "symbols": [{"kind": "D", "a": "x1", "b": "x2", "pow": 2}]}]}]\n'
)

GOLDEN_TC_SCALAR_REPEATED = (
    '8*D(x1,x1)*D(x1,x2)^2 - 16/3*D(x1,x2)^2*D(x2,x2)\n'
)

GOLDEN_TC_SCALAR_REPEATED_JSON = (
    '[{"coeff": "8/1", "symbols": [{"kind": "D", "a": "x1", "b": "x1", "pow": '
    '1}, {"kind": "D", "a": "x1", "b": "x2", "pow": 2}]}, {"coeff": "-16/3", '
    '"symbols": [{"kind": "D", "a": "x1", "b": "x2", "pow": 2}, {"kind": "D", '
    '"a": "x2", "b": "x2", "pow": 1}]}]\n'
)

GOLDEN_TR_REPEATED = (
    '18*D(x1,x1) - 12*D(x1,x1)*D(x1,x2) + 2*D(x1,x1)*D(x1,x2)^2 + 1/2*D(x1,x1)^2*'
    'D(x2,x2) + (-6 + 2*D(x1,x2))*phi(x1)*phi^2(x1)*phi(x2) + (-12*D(x1,x1) '
    '+ 4*D(x1,x1)*D(x1,x2))*phi(x1)*phi(x2) + (18 + D(x1,x1)*D(x2,x2) - 12*D(x1,x2) '
    '+ 2*D(x1,x2)^2)*phi(x1)*phi(x1) + D(x1,x1)*phi(x1)*phi(x1)*phi(x2)*phi(x2) '
    '+ (-6*D(x1,x2) + D(x1,x2)^2)*phi^2(x1) + 1/4*D(x2,x2)*phi^2(x1)*phi^2(x1) '
    '+ 1/4*phi^2(x1)*phi^2(x1)*phi(x2)*phi(x2) + 1/2*D(x1,x1)^2*phi(x2)*phi(x2)\n'
)

GOLDEN_TR_REPEATED_JSON = (
    '[{"monomial": [], "coeff": [{"coeff": "18/1", "symbols": [{"kind": "D", '
    '"a": "x1", "b": "x1", "pow": 1}]}, {"coeff": "-12/1", "symbols": [{"kind": '
    '"D", "a": "x1", "b": "x1", "pow": 1}, {"kind": "D", "a": "x1", "b": "x2", '
    '"pow": 1}]}, {"coeff": "2/1", "symbols": [{"kind": "D", "a": "x1", "b": '
    '"x1", "pow": 1}, {"kind": "D", "a": "x1", "b": "x2", "pow": 2}]}, {"coeff": '
    '"1/2", "symbols": [{"kind": "D", "a": "x1", "b": "x1", "pow": 2}, {"kind": '
    '"D", "a": "x2", "b": "x2", "pow": 1}]}]}, {"monomial": [{"point": "x1", '
    '"power": 1, "mult": 1}, {"point": "x1", "power": 2, "mult": 1}, {"point": '
    '"x2", "power": 1, "mult": 1}], "coeff": [{"coeff": "-6/1", "symbols": '
    '[]}, {"coeff": "2/1", "symbols": [{"kind": "D", "a": "x1", "b": "x2", '
    '"pow": 1}]}]}, {"monomial": [{"point": "x1", "power": 1, "mult": 1}, {"point": '
    '"x2", "power": 1, "mult": 1}], "coeff": [{"coeff": "-12/1", "symbols": '
    '[{"kind": "D", "a": "x1", "b": "x1", "pow": 1}]}, {"coeff": "4/1", "symbols": '
    '[{"kind": "D", "a": "x1", "b": "x1", "pow": 1}, {"kind": "D", "a": "x1", '
    '"b": "x2", "pow": 1}]}]}, {"monomial": [{"point": "x1", "power": 1, "mult": '
    '2}], "coeff": [{"coeff": "18/1", "symbols": []}, {"coeff": "1/1", "symbols": '
    '[{"kind": "D", "a": "x1", "b": "x1", "pow": 1}, {"kind": "D", "a": "x2", '
    '"b": "x2", "pow": 1}]}, {"coeff": "-12/1", "symbols": [{"kind": "D", "a": '
    '"x1", "b": "x2", "pow": 1}]}, {"coeff": "2/1", "symbols": [{"kind": "D", '
    '"a": "x1", "b": "x2", "pow": 2}]}]}, {"monomial": [{"point": "x1", "power": '
    '1, "mult": 2}, {"point": "x2", "power": 1, "mult": 2}], "coeff": [{"coeff": '
    '"1/1", "symbols": [{"kind": "D", "a": "x1", "b": "x1", "pow": 1}]}]}, '
    '{"monomial": [{"point": "x1", "power": 2, "mult": 1}], "coeff": [{"coeff": '
    '"-6/1", "symbols": [{"kind": "D", "a": "x1", "b": "x2", "pow": 1}]}, {"coeff": '
    '"1/1", "symbols": [{"kind": "D", "a": "x1", "b": "x2", "pow": 2}]}]}, '
    '{"monomial": [{"point": "x1", "power": 2, "mult": 2}], "coeff": [{"coeff": '
    '"1/4", "symbols": [{"kind": "D", "a": "x2", "b": "x2", "pow": 1}]}]}, '
    '{"monomial": [{"point": "x1", "power": 2, "mult": 2}, {"point": "x2", '
    '"power": 1, "mult": 2}], "coeff": [{"coeff": "1/4", "symbols": []}]}, '
    '{"monomial": [{"point": "x2", "power": 1, "mult": 2}], "coeff": [{"coeff": '
    '"1/2", "symbols": [{"kind": "D", "a": "x1", "b": "x1", "pow": 2}]}]}]\n'
)

# a two-generator rule whose source occurs four ways in REPEATED_TR_EXPR
REPEATED_VERTEX = [
    {
        "from": [{"point": "x1", "power": 2, "mult": 1}],
        "to": [{"point": "x1", "power": 2, "coeff": "1/1"}],
    },
    {
        "from": [{"point": "x2", "power": 1, "mult": 1}],
        "to": [{"point": "x2", "power": 1, "coeff": "-1/2"}],
    },
    {
        "from": [
            {"point": "x1", "power": 2, "mult": 1},
            {"point": "x2", "power": 1, "mult": 1},
        ],
        "to": [{"point": "x1", "power": 1, "coeff": "3/1"}],
    },
]


class TestGoldenOutputs:
    def test_t_four_fields(self):
        code, out, err = run_cli("t", "--expr", "phi(x1)*phi(x2)*phi(x3)*phi(x4)")
        assert (code, err) == (0, "")
        assert out == GOLDEN_T

    def test_graphs_connected_triangle(self):
        code, out, err = run_cli(
            "graphs",
            "--expr",
            "phi^2(x1)*phi^2(x2)*phi^2(x3)",
            "--connected",
            "--format",
            "json",
        )
        assert (code, err) == (0, "")
        assert out == GOLDEN_TRIANGLE
        record = json.loads(out)["graphs"][0]
        assert record["weight"] == "8/1"
        assert record["connected"] is True

    def test_outputs_are_byte_stable(self):
        first = run_cli("t", "--expr", "phi(x1)*phi(x2)*phi(x3)*phi(x4)")
        second = run_cli("t", "--expr", "phi(x1)*phi(x2)*phi(x3)*phi(x4)")
        assert first == second


class TestCommands:
    def test_delta_pretty(self):
        code, out, _ = run_cli("delta", "--expr", "phi^2(x)")
        assert code == 0
        assert out == "1 ⊗ phi^2(x) + 2 * phi(x) ⊗ phi(x) + phi^2(x) ⊗ 1\n"

    def test_delta_prime(self):
        code, out, _ = run_cli("delta-prime", "--expr", "phi^3(x)")
        assert code == 0
        assert out == "1 ⊗ phi^3(x) + phi^3(x) ⊗ 1\n"

    def test_delta_json_schema(self):
        code, out, _ = run_cli("delta", "--expr", "phi^2(x)", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data[1] == {
            "slots": [
                [{"point": "x", "power": 1, "mult": 1}],
                [{"point": "x", "power": 1, "mult": 1}],
            ],
            "coeff": [{"coeff": "2/1", "symbols": []}],
        }

    def test_counit(self):
        code, out, _ = run_cli("counit", "--expr", "5 + 3*phi(x)*phi(y)")
        assert (code, out) == (0, "5\n")

    def test_wick_feynman(self):
        code, out, _ = run_cli("wick", "--lhs", "phi^2(x)", "--rhs", "phi^2(y)")
        assert code == 0
        assert out == "2*D(x,y)^2 + 4*D(x,y)*phi(x)*phi(y) + phi^2(x)*phi^2(y)\n"

    def test_wick_wightman(self):
        code, out, _ = run_cli(
            "wick", "--mode", "wightman", "--lhs", "phi(x)", "--rhs", "phi(y)"
        )
        assert code == 0
        assert out == "Dplus(x,y) + phi(x)*phi(y)\n"

    def test_chronological_commands(self):
        assert run_cli("T", "--expr", "phi(x1)*phi(x2)")[1] == "D(x1,x2) + phi(x1)*phi(x2)\n"
        assert run_cli("Tc", "--expr", "phi^2(x1)*phi^2(x2)")[1] == (
            "2*D(x1,x2)^2 + 4*D(x1,x2)*phi(x1)*phi(x2)\n"
        )
        assert run_cli("tc", "--expr", "phi^2(x1)*phi^2(x2)*phi^2(x3)")[1] == (
            "8*D(x1,x2)*D(x1,x3)*D(x2,x3)\n"
        )

    def test_kernel_projection_warns(self):
        code, out, err = run_cli("Tc", "--expr", "1 + phi(x1)*phi(x2)")
        assert code == 0
        assert out == "D(x1,x2)\n"
        assert "projecting onto the counit kernel" in err

    def test_tr_with_vertex_file(self, tmp_path):
        vertex = tmp_path / "vertex.json"
        vertex.write_text(
            json.dumps(
                [
                    {
                        "from": [{"point": "x1", "power": 1, "mult": 1}],
                        "to": [{"point": "x1", "power": 1, "coeff": "1/1"}],
                    },
                    {
                        "from": [{"point": "x2", "power": 1, "mult": 1}],
                        "to": [{"point": "x2", "power": 1, "coeff": "1/1"}],
                    },
                ]
            )
        )
        code, out, _ = run_cli("TR", "--expr", "phi(x1)*phi(x2)", "--vertex", str(vertex))
        assert code == 0
        assert out == "D(x1,x2) + phi(x1)*phi(x2)\n"

    def test_graphs_dot(self):
        code, out, _ = run_cli("graphs", "--expr", "phi(x1)*phi(x2)", "--format", "dot")
        assert code == 0
        assert '"1:phi^1_x1" -- "2:phi^1_x2";' in out

    def test_t_equals_graphs_reconstruction(self):
        from fractions import Fraction

        from qftalg.expr import parse
        from qftalg.hopf import Element
        from qftalg.scalar import D, PropPoly

        expr = "phi^2(x1)*phi^2(x2)*phi(x3)*phi(x3)"
        _, t_out, _ = run_cli("t", "--expr", expr)
        _, g_out, _ = run_cli("graphs", "--expr", expr, "--format", "json")
        total = PropPoly.zero()
        for record in json.loads(g_out)["graphs"]:
            powers = []
            for edge in record["edges"]:
                a = record["vertices"][edge["i"] - 1]["point"]
                b = record["vertices"][edge["j"] - 1]["point"]
                powers.append((D(a, b), edge["mult"]))
            total = total + PropPoly.from_symbol_powers(powers, Fraction(record["weight"]))
        assert parse(t_out.strip()) == Element.scalar(total)


class TestRenderingGoldens:
    def test_tensor_multi_term_and_rational_coefficients(self):
        assert run_cli("delta", "--expr", RENDER_EXPR) == (0, GOLDEN_DELTA, "")
        assert run_cli("delta", "--expr", RENDER_EXPR, "--output", "json") == (
            0,
            GOLDEN_DELTA_JSON,
            "",
        )

    def test_tensor_minus_one_and_unit_terms(self):
        code, out, _ = run_cli("delta-prime", "--expr", "phi^2(x)*phi(y)-phi(z)+1/3")
        assert (code, out) == (0, GOLDEN_DELTA_PRIME_NEG)

    def test_element_multi_term_and_unit_terms(self):
        assert run_cli("T", "--expr", T_EXPR) == (0, GOLDEN_T_MIXED, "")
        code, out, _ = run_cli(
            "T", "--expr", "phi(x1)*phi(x2)*phi^2(x3)-2*phi(x1)", "--output", "json"
        )
        assert (code, out) == (0, GOLDEN_T_JSON)

    def test_element_minus_one_term(self):
        code, out, _ = run_cli(
            "wick", "--lhs", "phi^2(x)+D(x,y)*phi(x)", "--rhs", "phi^2(y)-phi(y)"
        )
        assert (code, out) == (0, GOLDEN_WICK_NEG)

    def test_renormalized_pretty_and_json(self, tmp_path):
        vertex = tmp_path / "vertex.json"
        vertex.write_text(json.dumps(RENDER_VERTEX))
        args = ("TR", "--expr", "phi(x1)*phi(x2)", "--vertex", str(vertex))
        assert run_cli(*args) == (0, GOLDEN_TR, "")
        assert run_cli(*args, "--output", "json") == (0, GOLDEN_TR_JSON, "")

    def test_connected_on_repeated_generators(self):
        for command, pretty, as_json in (
            ("Tc", GOLDEN_TC_REPEATED, GOLDEN_TC_REPEATED_JSON),
            ("tc", GOLDEN_TC_SCALAR_REPEATED, GOLDEN_TC_SCALAR_REPEATED_JSON),
        ):
            assert run_cli(command, "--expr", REPEATED_EXPR) == (0, pretty, "")
            assert run_cli(command, "--expr", REPEATED_EXPR, "--output", "json") == (
                0,
                as_json,
                "",
            )

    def test_renormalized_on_repeated_generators(self, tmp_path):
        vertex = tmp_path / "vertex.json"
        vertex.write_text(json.dumps(REPEATED_VERTEX))
        args = ("TR", "--expr", REPEATED_TR_EXPR, "--vertex", str(vertex))
        assert run_cli(*args) == (0, GOLDEN_TR_REPEATED, "")
        assert run_cli(*args, "--output", "json") == (0, GOLDEN_TR_REPEATED_JSON, "")


class TestExitCodes:
    def test_usage_error_on_bad_expression(self):
        code, _, err = run_cli("t", "--expr", "phi(x1)*ph")
        assert code == 2
        assert "bad expression" in err

    def test_wightman_rejected_for_chronological(self, tmp_path):
        vertex = tmp_path / "vertex.json"
        vertex.write_text(json.dumps(REPEATED_VERTEX))
        cases = [(command,) for command in ("T", "t", "Tc", "tc")]
        cases.append(("TR", "--vertex", str(vertex)))
        for command in cases:
            code, _, err = run_cli(*command, "--expr", "phi(x)", "--mode", "wightman")
            assert code == 2
            assert "feynman" in err

    def test_graphs_requires_monomial(self):
        code, _, err = run_cli("graphs", "--expr", "phi(x1)+phi(x2)", "--format", "json")
        assert code == 2

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli()[0] == 2

    def test_bad_vertex_file(self, tmp_path):
        bad = tmp_path / "vertex.json"
        bad.write_text("[{\"from\": []}]")
        code, _, err = run_cli("TR", "--expr", "phi(x1)*phi(x2)", "--vertex", str(bad))
        assert code == 2
        assert "vertex" in err

    def test_zero_denominator_is_a_syntax_error(self):
        code, out, err = run_cli("t", "--expr", "1/0")
        assert (code, out) == (2, "")
        assert err == "error: bad expression: zero denominator at offset 2\n"

    def test_non_ascii_digits_are_a_syntax_error(self):
        # the grammar's integers are ASCII, as in the vertex-file reader; these
        # are Arabic-Indic digits, which `\d` matched
        cases = [
            (("counit", "--expr", "\u0663"), "unexpected character '\u0663' at offset 0"),
            (("counit", "--expr", "\u0662/\u0663"), "unexpected character '\u0662' at offset 0"),
            (("delta", "--expr", "phi^\u0662(x)"), "unexpected character '\u0662' at offset 4"),
        ]
        for argv, message in cases:
            assert run_cli(*argv) == (2, "", f"error: bad expression: {message}\n")

    def test_malformed_vertex_files(self, tmp_path):
        source = [{"point": "x", "power": 1, "mult": 1}]
        target = [{"point": "x", "power": 1, "coeff": "1/1"}]
        cases = {
            '{"a": 1}': "vertex file must be an array of objects",
            "[1]": "vertex file must be an array of objects",
            json.dumps([{"from": source, "to": 5}]): "to must be an array of objects",
            json.dumps([{"from": source, "to": [dict(target[0], power=-1)]}]): (
                "power must be an integer >= 1, got -1"
            ),
            json.dumps([{"from": [dict(source[0], power=0)], "to": target}]): (
                "power must be an integer >= 1, got 0"
            ),
            json.dumps([{"from": [dict(source[0], mult="2")], "to": target}]): (
                "mult must be an integer >= 0, got '2'"
            ),
            json.dumps([{"from": source, "to": [dict(target[0], coeff="1/0")]}]): (
                "zero denominator in '1/0'"
            ),
            # a missing field is named with its list, not as a bare key
            json.dumps([{"from": source, "to": [{"point": "x", "power": 1}]}]): (
                'missing "coeff" in to'
            ),
            json.dumps([{"from": [{"point": "x", "mult": 1}], "to": target}]): (
                'missing "power" in from'
            ),
            json.dumps([{"to": target}]): 'missing "from" in vertex file',
            # the coefficient format is the string "p/q", not a JSON number
            json.dumps([{"from": source, "to": [dict(target[0], coeff=0.5)]}]): (
                "coeff must be a string, got 0.5"
            ),
            json.dumps([{"from": source, "to": [dict(target[0], coeff=2)]}]): (
                "coeff must be a string, got 2"
            ),
            # and only "p/q" or an integer: Fraction() also read decimals
            json.dumps([{"from": source, "to": [dict(target[0], coeff="0.5")]}]): (
                "rational must read p/q or an integer, got '0.5'"
            ),
            # a unit "from" is no block of a set partition: the rule never
            # applied and TR ran as if it were absent
            json.dumps([{"from": [], "to": target}]): (
                '"from" must hold a generator with mult >= 1'
            ),
            json.dumps([{"from": [dict(source[0], mult=0)], "to": target}]): (
                '"from" must hold a generator with mult >= 1'
            ),
        }
        bad = tmp_path / "vertex.json"
        for text, message in cases.items():
            bad.write_text(text)
            code, out, err = run_cli("TR", "--expr", "phi(x)*phi(y)", "--vertex", str(bad))
            assert (code, out) == (2, ""), text
            assert err == f"error: bad vertex file: {message}\n", text

    def test_vertex_point_must_be_a_string(self, tmp_path):
        # a number in "to" used to reach Monomial.__init__ as a TypeError;
        # one in "from" was accepted and matched nothing
        source = [{"point": "x", "power": 1, "mult": 1}]
        target = [{"point": "x", "power": 1, "coeff": "1/1"}]
        other = {"from": [dict(source[0], point="y")], "to": [dict(target[0], point="y")]}
        cases = {
            json.dumps([{"from": source, "to": [dict(target[0], point=7)]}, other]): 7,
            json.dumps([{"from": [dict(source[0], point=5)], "to": target}]): 5,
        }
        bad = tmp_path / "vertex.json"
        for text, point in cases.items():
            bad.write_text(text)
            code, out, err = run_cli("TR", "--expr", "phi(x)*phi(y)", "--vertex", str(bad))
            assert (code, out) == (2, ""), text
            assert err == f"error: bad vertex file: point must be a string, got {point}\n", text

    def test_vertex_point_must_be_a_parser_label(self, tmp_path):
        # such labels used to reach the output, which the parser then rejected
        source = [{"point": "x", "power": 1, "mult": 1}]
        target = [{"point": "x", "power": 1, "coeff": "1/1"}]
        bad = tmp_path / "vertex.json"
        for point in ("", "a b", "1x"):
            for rule in ({"from": source, "to": [dict(target[0], point=point)]},
                         {"from": [dict(source[0], point=point)], "to": target}):
                bad.write_text(json.dumps([rule]))
                code, out, err = run_cli("TR", "--expr", "phi(x)*phi(y)", "--vertex", str(bad))
                assert (code, out) == (2, ""), rule
                assert err == (
                    "error: bad vertex file: point must match [A-Za-z][A-Za-z0-9_]*, "
                    f"got {point!r}\n"
                ), rule

    def test_too_deep_input_is_a_usage_error(self):
        too_deep = "error: input too deep to evaluate (recursion limit exceeded)\n"
        # nested parentheses and unary minus recurse in the parser; the
        # "--expr=" form keeps argparse from reading the text as a flag;
        # a 1200-occurrence product recurses in the chronological fold
        cases = [
            ("t", "--expr", "(" * 3000 + "phi(x)" + ")" * 3000),
            ("t", "--expr=" + "-" * 3000 + "phi(x)"),
            ("t", "--expr", "*".join(f"phi(x{i % 4})" for i in range(1200))),
        ]
        for argv in cases:
            assert run_cli(*argv) == (2, "", too_deep), argv[1][:20]

    def test_delta_of_a_1200_fold_power(self, monkeypatch):
        # the coproduct walks down 1200 occurrences; grown by a recursion
        # that walk exceeded the interpreter's limit and exited 2
        monkeypatch.setattr(hopf, "_DELTA_CACHE", {})
        code, out, err = run_cli("delta", "--expr", "*".join(["phi(x)"] * 1200))
        assert (code, err) == (0, "")
        assert out.count(" ⊗ ") == 1201
        g = Generator("x", 1)
        assert dict(hopf.monomial_coproduct(Monomial(((g, 1200),)))) == {
            (Monomial(((g, k),)), Monomial(((g, 1200 - k),))): math.comb(1200, k)
            for k in range(1201)
        }

    def test_wick_of_a_1200_fold_power(self, monkeypatch):
        # the power-graded coproduct of the left side walks down one factor
        # of multiplicity 1200 and grows it back at cap 1; grown by a
        # recursion per occurrence, that walk exceeded the interpreter's limit
        monkeypatch.setattr(hopf, "_DELTA_BY_POWER_CACHE", {})
        lhs = "*".join(["phi(x)"] * 1200)
        expected = (
            "1200*D(x,y)*" + "*".join(["phi(x)"] * 1199) + " + "
            + "*".join(["phi(x)"] * 1200 + ["phi(y)"]) + "\n"
        )
        assert run_cli("wick", "--lhs", lhs, "--rhs", "phi(y)") == (0, expected, "")

    def test_arbitrary_propagator_exponents(self):
        # exponents are arbitrary-precision ints, never a fixed-width field
        big = "D(x,y)^99999999999999999999999"
        assert run_cli("counit", "--expr", big) == (0, big + "\n", "")
        assert run_cli("counit", "--expr", f"{big}*{big}") == (
            0, "D(x,y)^199999999999999999999998\n", "",
        )
        other = "D(x,z)^99999999999999999999999"
        code, out, err = run_cli(
            "counit", "--expr", f"({big}-{other})*({big}+{other})", "--output", "json"
        )
        assert (code, err) == (0, "")
        assert out == (
            '[{"coeff": "1/1", "symbols": [{"kind": "D", "a": "x", "b": "y", '
            '"pow": 199999999999999999999998}]}, {"coeff": "-1/1", "symbols": '
            '[{"kind": "D", "a": "x", "b": "z", "pow": 199999999999999999999998}]}]\n'
        )

    def test_oversized_results_exit_2_from_the_module(self):
        # a coefficient past Python's int-to-string limit (4300 digits)
        # cannot be rendered; run through ``python -m qftalg`` so that the
        # module entry point maps it to exit 2 and one stderr line too
        nines = "9" * 4000
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(Path(qftalg.__file__).parents[1])
        for argv in (["counit", "--expr", f"{nines}*{nines}"],
                     ["t", "--expr", "phi^1700(x)*phi^1700(y)"],
                     ["graphs", "--expr", "phi^1700(x)*phi^1700(y)"]):
            proc = subprocess.run(
                [sys.executable, "-m", "qftalg", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (proc.returncode, proc.stdout) == (2, ""), argv[0]
            assert proc.stderr.startswith("error: "), argv[0]
            assert proc.stderr.count("\n") == 1, argv[0]
            assert "PYTHONINTMAXSTRDIGITS" in proc.stderr, argv[0]
            assert "sys.set_int_max_str_digits" not in proc.stderr, argv[0]

    def test_bad_seed_environment(self, monkeypatch):
        monkeypatch.setenv("QFTALG_SEED", "abc")
        code, out, err = run_cli("check", "--law", "antipode", "--random-count", "1")
        assert (code, out) == (2, "")
        assert err == "error: QFTALG_SEED must be an integer, got 'abc'\n"

    def test_negative_random_count(self):
        code, out, err = run_cli("check", "--random-count", "-3")
        assert (code, out) == (2, "")
        assert err == "error: --random-count must be >= 0, got -3\n"


class TestCheckCommand:
    def test_check_coalgebra_passes(self):
        code, out, _ = run_cli("check", "--law", "coalgebra", "--random-count", "5")
        assert code == 0
        assert "coalgebra(delta): " in out and "PASS" in out

    def test_check_antipode_passes(self):
        code, out, _ = run_cli("check", "--law", "antipode", "--random-count", "5")
        assert code == 0

    def test_check_comodule_reports_failures(self, monkeypatch):
        # the comodule law holds for the coaction on vertex words; with the
        # contraction coproduct as coaction, which drops emptied vertices,
        # it fails and the command must say so and exit 1
        code, out, _ = run_cli("check", "--law", "comodule", "--random-count", "5")
        assert code == 0
        assert "PASS" in out
        monkeypatch.setattr(
            laws,
            "check_comodule_coalgebra",
            functools.partial(laws.check_comodule_coalgebra, coproduct_fn=coproduct),
        )
        code, out, _ = run_cli("check", "--law", "comodule", "--random-count", "5")
        assert code == 1
        assert "FAIL" in out

    def test_check_json_output(self):
        code, out, _ = run_cli(
            "check", "--law", "antipode", "--random-count", "5", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data[0]["law"] == "antipode"
        assert data[0]["failures"] == []

    def test_seed_determinism_and_env_override(self, monkeypatch):
        a = run_cli("check", "--law", "antipode", "--random-count", "5", "--seed", "7")
        b = run_cli("check", "--law", "antipode", "--random-count", "5", "--seed", "7")
        assert a == b
        monkeypatch.setenv("QFTALG_SEED", "7")
        c = run_cli("check", "--law", "antipode", "--random-count", "5", "--seed", "99")
        assert c == a


# The parser surface: every subcommand in order, and per option its
# strings, choices, default and required flag.  Read from the actions,
# since the layout of ``format_help()`` varies between Python versions.
_OUTPUT = (("--output",), ("pretty", "json"), "pretty", False)
_EXPR = (("--expr",), None, None, True)
_MODE = (("--mode",), ("feynman", "wightman"), "feynman", False)
PARSER_SURFACE = {
    "delta": [_EXPR, _OUTPUT],
    "delta-prime": [_EXPR, _OUTPUT],
    "counit": [_EXPR, _OUTPUT],
    "wick": [_MODE, (("--lhs",), None, None, True), (("--rhs",), None, None, True), _OUTPUT],
    "T": [_EXPR, _OUTPUT, _MODE],
    "t": [_EXPR, _OUTPUT, _MODE],
    "Tc": [_EXPR, _OUTPUT, _MODE],
    "tc": [_EXPR, _OUTPUT, _MODE],
    "TR": [_EXPR, _OUTPUT, _MODE, (("--vertex",), None, None, True)],
    "graphs": [
        _EXPR,
        (("--connected",), None, False, False),
        (("--format",), ("dot", "json"), "dot", False),
    ],
    "check": [
        (("--law",), ("coalgebra", "bialgebra", "comodule", "antipode", "all"), "all", False),
        (("--seed",), None, 0, False),
        (("--random-count",), None, 100, False),
        _OUTPUT,
    ],
}


def test_parser_surface():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [
            (tuple(a.option_strings), tuple(a.choices) if a.choices else None, a.default,
             a.required)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in commands.choices.items()
    }
    assert list(surface.items()) == list(PARSER_SURFACE.items())
