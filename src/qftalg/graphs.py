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

One backtracking walk lists each graph as its edges and weight; the sums
and the export read it directly, and only :func:`enumerate_adjacency`
builds matrix records from it.

For ``t`` this module is the independent combinatorial route, checked
against the algebraic route ``counit o chronological`` in
:mod:`qftalg.coqts`.  For ``t_c`` it is the only route:
:func:`qftalg.renorm.t_c_functional` sums the connected graphs, checked
against the counit of the first-block recursion
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
        if any(not isinstance(n, int) or isinstance(n, bool) for n in degrees):
            raise ValueError("vertex degrees must be integers")
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


def _walk(degrees: Sequence[int], connected_only: bool = False) -> list[tuple[list, int]]:
    """``(edges, weight)`` of every graph with these degrees (the connected
    ones only, if asked): ``edges`` lists each ``(i, j, m_ij)`` with
    ``m_ij >= 1`` in row-major order; ``weight = n_1!...n_p! / prod m_ij!``.

    Backtracks over the upper triangle in row-major order with ascending
    entry values: duplicate-free, sorted by the row-major encoding.  Row
    ``i`` starts only if the residual degrees of rows ``i..p-1`` are again
    multigraphic, so every branch that passes ends in a graph: past the
    check of the last two rows, their last entry zeroes both residuals.
    """
    if not _multigraphic(degrees):
        return []
    p = len(degrees)
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    residual = list(degrees)
    values = [0] * len(pairs)
    numerator = prod(map(factorial, degrees))
    out: list[tuple[list, int]] = []

    def rec(idx: int):
        if idx == len(pairs):
            assert not any(residual)  # exact margins
            edges = [(i, j, v) for (i, j), v in zip(pairs, values) if v]
            if not connected_only or _connected(p, edges):
                out.append((edges, numerator // prod(factorial(v) for _, _, v in edges)))
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
            values[idx] = v
            rec(idx + 1)
            residual[i] += v
            residual[j] += v

    rec(0)
    return out


def _connected(p: int, edges) -> bool:
    """True iff the edges ``(i, j, m)`` join all ``p`` vertices; one vertex
    counts as connected."""
    root = list(range(p))
    for i, j, _ in edges:
        while root[i] != i:
            i = root[i]
        while root[j] != j:
            j = root[j]
        root[i] = j
    return sum(root[k] == k for k in range(p)) == 1


def _scalar(points: Sequence[str], edges, weight: int) -> PropPoly:
    return PropPoly.from_symbol_powers(((D(points[i], points[j]), v) for i, j, v in edges), weight)


def enumerate_adjacency(d: DegreeSequence) -> list[AdjacencyTerm]:
    """All admissible adjacency matrices for the degree sequence, in the
    walk's order (sorted by the row-major encoding of the upper triangle);
    the empty list when no loopless multigraph has these degrees."""
    p = len(d.degrees)
    out = []
    for edges, weight in _walk(d.degrees):
        matrix = [[0] * p for _ in range(p)]
        for i, j, v in edges:
            matrix[i][j] = matrix[j][i] = v
        scalar = _scalar(d.points, edges, weight)
        out.append(AdjacencyTerm(tuple(map(tuple, matrix)), weight, scalar))
    return out


def _graph_sum(u: Monomial, connected_only: bool) -> PropPoly:
    d = DegreeSequence.from_monomial(u)
    return _poly_sum(_scalar(d.points, e, w) for e, w in _walk(d.degrees, connected_only))


def t_via_graphs(u: Monomial) -> PropPoly:
    """The scalar functional summed over all Feynman graphs; t(1) = 1."""
    return PropPoly.one() if u.is_unit else _graph_sum(u, False)


def is_connected(m: AdjacencyTerm) -> bool:
    """True iff the nonzero entries join all vertices into one component;
    the one-vertex graph counts as connected."""
    edges = [(i, j, v) for i, row in enumerate(m.matrix) for j, v in enumerate(row) if v]
    return _connected(len(m.matrix), edges)


def t_connected_via_graphs(u: Monomial) -> PropPoly:
    """The scalar functional restricted to connected graphs; t_c(1) = 0."""
    return PropPoly.zero() if u.is_unit else _graph_sum(u, True)


def _vertex_name(index: int, point: str, power: int) -> str:
    return f"{index}:phi^{power}_{point}"


def export_graphs(u: Monomial, connected_only: bool = False, format: str = "dot") -> str:
    """Render the graph expansion of a monomial as DOT or JSON text.

    One record per adjacency matrix, in enumeration order; the weight is a
    graph attribute.  Edges joining two vertices that sit at the same point
    are flagged (dashed in DOT, ``"self_point": true`` in JSON).
    """
    fmt = format.lower() if isinstance(format, str) else format
    if fmt not in ("dot", "json"):
        raise UnsupportedFormat(f"unknown graph format: {format!r}")
    occ = u.occurrences()
    graphs = _walk([g.power for g in occ], connected_only) if occ else []

    if fmt == "json":
        vertices = [{"index": i, "point": g.point, "power": g.power} for i, g in enumerate(occ, 1)]
        records = [
            {
                "vertices": vertices,
                "edges": [
                    {"i": i + 1, "j": j + 1, "mult": mult,
                     **({"self_point": True} if occ[i].point == occ[j].point else {})}
                    for i, j, mult in edges
                ],
                "weight": frac_str(weight),
                "connected": _connected(len(occ), edges),
            }
            for edges, weight in graphs
        ]
        return json.dumps({"graphs": records, "expansion": VERTEX_EXPANSION})

    names = [_vertex_name(i, g.point, g.power) for i, g in enumerate(occ, 1)]
    blocks = []
    for k, (edges, weight) in enumerate(graphs):
        lines = [f"graph G_{k} {{", f'  label="weight {frac_str(weight)}";']
        lines += [f'  "{name}";' for name in names]
        for i, j, mult in edges:
            flag = " [style=dashed]" if occ[i].point == occ[j].point else ""
            lines += [f'  "{names[i]}" -- "{names[j]}"{flag};'] * mult
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks)
