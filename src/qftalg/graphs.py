"""Feynman-graph expansion of the chronological scalar functional.

For a monomial with generator occurrences ``phi^{n_1}(x_1) ... phi^{n_p}(x_p)``
(one graph vertex per occurrence), the scalar part of its chronological
product equals

    n_1! ... n_p! * sum over symmetric p x p matrices M of nonnegative
    integers with zero diagonal and row sums n_i of
    prod_{i<j} D(x_i, x_j)^{m_ij} / m_ij!

Each admissible matrix is the adjacency matrix of a labeled multigraph,
and its weight ``n_1!...n_p! / prod m_ij!`` is an integer.  Restricting the
sum to connected graphs yields the connected functional.

For ``t`` this module is the independent combinatorial route, checked
against the algebraic route ``counit o chronological`` in
:mod:`qftalg.coqts`.  For ``t_c`` it is the only route:
:func:`qftalg.renorm.t_c_functional` sums the connected graphs, checked
against the counit of the set-partition sum
:func:`qftalg.renorm.connected_T`.
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import factorial, prod
from typing import NamedTuple, Sequence

from .errors import UnsupportedFormat
from .hopf import Monomial
from .scalar import D, PropPoly, _poly_sum, frac_str

#: recorded in export metadata: each generator occurrence becomes one vertex
VERTEX_EXPANSION = "one vertex per generator occurrence"


class DegreeSequence(namedtuple("DegreeSequence", "points degrees")):
    """Graph vertex data for one monomial: point labels and line counts."""

    __slots__ = ()

    def __new__(cls, points: tuple[str, ...], degrees: tuple[int, ...]):
        if len(points) != len(degrees):
            raise ValueError("points and degrees must have equal length")
        if len(points) < 1:
            raise ValueError("a degree sequence needs at least one vertex")
        if any(n < 1 for n in degrees):
            raise ValueError("vertex degrees must be >= 1")
        return super().__new__(cls, points, degrees)

    @classmethod
    def from_monomial(cls, mono: Monomial) -> "DegreeSequence":
        occ = mono.occurrences()
        return cls(tuple(g.point for g in occ), tuple(g.power for g in occ))


class AdjacencyTerm(NamedTuple):
    """One Feynman graph: its adjacency matrix, integer weight
    ``n_1!...n_p! / prod m_ij!`` and scalar ``weight * prod D^{m_ij}``."""

    matrix: tuple[tuple[int, ...], ...]
    weight: int
    scalar: PropPoly


def _multigraphic(degrees: Sequence[int]) -> bool:
    """True iff some loopless multigraph has these vertex degrees: their
    sum is even and no degree exceeds half of it."""
    total = sum(degrees)
    return total % 2 == 0 and 2 * max(degrees) <= total


def enumerate_adjacency(d: DegreeSequence) -> list[AdjacencyTerm]:
    """All admissible adjacency matrices for the degree sequence.

    Backtracks over the upper triangle in row-major order with ascending
    entry values, so the output is duplicate-free and sorted
    lexicographically by the row-major encoding.  Returns the empty list
    when no loopless multigraph has these degrees.

    At the start of each row ``i`` the residual degrees of rows ``i..p-1``
    must again be the degrees of a loopless multigraph, so every branch
    that passes ends in a graph: past the check of the last two rows,
    their last entry takes both residuals to zero.
    """
    if not _multigraphic(d.degrees):
        return []
    p = len(d.degrees)
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    residual = list(d.degrees)
    matrix = [[0] * p for _ in range(p)]
    numerator = prod(map(factorial, d.degrees))
    out: list[AdjacencyTerm] = []

    def emit():
        rows = tuple(tuple(r) for r in matrix)
        # enumeration invariants: symmetry, zero diagonal, exact margins
        assert all(rows[i][i] == 0 for i in range(p))
        assert all(rows[i][j] == rows[j][i] for i in range(p) for j in range(p))
        assert all(sum(rows[i]) == d.degrees[i] for i in range(p))
        edges = [(i, j, rows[i][j]) for i, j in pairs if rows[i][j]]
        weight = numerator // prod(factorial(v) for _, _, v in edges)
        scalar = PropPoly.from_symbol_powers(
            ((D(d.points[i], d.points[j]), v) for i, j, v in edges), weight
        )
        out.append(AdjacencyTerm(rows, weight, scalar))

    def rec(idx: int):
        if idx == len(pairs):
            emit()
            return
        i, j = pairs[idx]
        if j == i + 1 and not _multigraphic(residual[i:]):
            return
        # partners of row i still unfilled after this entry
        cap = sum(residual[k] for k in range(j + 1, p))
        lo = max(0, residual[i] - cap)
        hi = min(residual[i], residual[j])
        for v in range(lo, hi + 1):
            residual[i] -= v
            residual[j] -= v
            matrix[i][j] = matrix[j][i] = v
            rec(idx + 1)
            residual[i] += v
            residual[j] += v
        matrix[i][j] = matrix[j][i] = 0

    rec(0)
    return out


def _graphs(u: Monomial, connected_only: bool = False) -> list[AdjacencyTerm]:
    """The graphs of ``u`` in enumeration order, only the connected ones if
    asked; none for the unit, which has no vertex."""
    if u.is_unit:
        return []
    terms = enumerate_adjacency(DegreeSequence.from_monomial(u))
    return [t for t in terms if is_connected(t)] if connected_only else terms


def t_via_graphs(u: Monomial) -> PropPoly:
    """The scalar functional summed over all Feynman graphs; t(1) = 1."""
    if u.is_unit:
        return PropPoly.one()
    return _poly_sum(term.scalar for term in _graphs(u))


def is_connected(m: AdjacencyTerm) -> bool:
    """True iff every vertex is reachable from vertex 0 along nonzero
    entries; the one-vertex graph counts as connected."""
    p = len(m.matrix)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(p):
            if m.matrix[i][j] and j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == p


def t_connected_via_graphs(u: Monomial) -> PropPoly:
    """The scalar functional restricted to connected graphs; t_c(1) = 0."""
    return _poly_sum(term.scalar for term in _graphs(u, connected_only=True))


def _vertex_name(index: int, point: str, power: int) -> str:
    return f"{index}:phi^{power}_{point}"


def export_graphs(u: Monomial, connected_only: bool = False, format: str = "dot") -> str:
    """Render the graph expansion of a monomial as DOT or JSON text.

    One record per adjacency matrix, in enumeration order; the weight is a
    graph attribute.  Edges joining two vertices that sit at the same point
    are flagged (dashed in DOT, ``"self_point": true`` in JSON).
    """
    fmt = format.lower()
    if fmt not in ("dot", "json"):
        raise UnsupportedFormat(f"unknown graph format: {format!r}")
    occ = u.occurrences()
    # (term, edges): each edge is (i, j, mult, same point) with i < j
    graphs = [
        (term, [
            (i, j, term.matrix[i][j], occ[i].point == occ[j].point)
            for i in range(len(occ))
            for j in range(i + 1, len(occ))
            if term.matrix[i][j]
        ])
        for term in _graphs(u, connected_only)
    ]

    if fmt == "json":
        vertices = [
            {"index": i, "point": g.point, "power": g.power} for i, g in enumerate(occ, 1)
        ]
        records = [
            {
                "vertices": vertices,
                "edges": [
                    {"i": i + 1, "j": j + 1, "mult": mult, **({"self_point": True} if same else {})}
                    for i, j, mult, same in edges
                ],
                "weight": frac_str(term.weight),
                "connected": is_connected(term),
            }
            for term, edges in graphs
        ]
        return json.dumps({"graphs": records, "expansion": VERTEX_EXPANSION})

    names = [_vertex_name(i, g.point, g.power) for i, g in enumerate(occ, 1)]
    blocks = []
    for k, (term, edges) in enumerate(graphs):
        lines = [f"graph G_{k} {{", f'  label="weight {frac_str(term.weight)}";']
        lines += [f'  "{name}";' for name in names]
        for i, j, mult, same in edges:
            flag = " [style=dashed]" if same else ""
            lines += [f'  "{names[i]}" -- "{names[j]}"{flag};'] * mult
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks)
