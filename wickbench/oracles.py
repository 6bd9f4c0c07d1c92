"""Independent oracles for the benchmark's correctness checks.

Nothing here imports qftalg.  Every value is computed from the defining
sums, on plain data:

* a monomial is a tuple of occurrences ``(point, power)``;
* a polynomial in propagator symbols is a dict mapping a sorted tuple of
  ``(kind, a, b, exponent)`` factors to a nonzero Fraction, with kind
  ``"D"`` (symmetric, points sorted) or ``"Dplus"`` (oriented);
* an element is a dict mapping a sorted occurrence tuple to a Fraction.

The oracles are:

* :func:`multigraph_sum`: the sum over labelled multigraphs without loops
  on the occurrences, with each vertex's degree equal to its power, of
  ``prod n_i! / prod m_ij! * prod D(x_i, x_j)^m_ij``; over all graphs it
  is ``t``, over connected graphs ``t_c``.
* :func:`contraction_table_sum`: the sum over bipartite contraction tables
  between the occurrences of two monomials, which is the vacuum part
  ``eps(u o v)`` of their twisted product.
* :func:`set_partitions` and :func:`normal_product`, the combinatorics of
  the connected expansion.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

SYMMETRIC = "D"
ORIENTED = "Dplus"


def symbol(kind: str, a: str, b: str) -> tuple[str, str, str]:
    """A propagator symbol; symmetric symbols store their points sorted."""
    if kind == SYMMETRIC and b < a:
        a, b = b, a
    return (kind, a, b)


def poly_from_powers(powers: dict, coeff) -> dict:
    """The polynomial ``coeff * prod sym^exp`` as a one-term dict."""
    key = tuple(sorted(sym + (exp,) for sym, exp in powers.items() if exp))
    return {key: Fraction(coeff)} if coeff else {}


def poly_add_into(acc: dict, poly: dict, scale=1) -> None:
    """``acc += scale * poly``, dropping terms that cancel."""
    for key, coeff in poly.items():
        new = acc.get(key, 0) + coeff * scale
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


def _connected(n: int, edges: dict) -> bool:
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(n)}) == 1


def multigraphs(degrees: tuple[int, ...]):
    """Yield every loopless multigraph with the given vertex degrees, as a
    dict ``{(i, j): multiplicity}`` with ``i < j``.

    Vertices are filled one at a time: vertex ``i`` spends its remaining
    degree on the vertices after it, in every way their remaining degrees
    allow.
    """
    n = len(degrees)
    residual = list(degrees)
    edges: dict = {}

    def spend(i: int, j: int, left: int):
        # distribute `left` more edges of vertex i over vertices j..n-1
        if j == n:
            if left == 0:
                yield from fill(i + 1)
            return
        room = sum(residual[k] for k in range(j + 1, n))
        for m in range(max(0, left - room), min(left, residual[j]) + 1):
            if m:
                residual[j] -= m
                edges[(i, j)] = m
            yield from spend(i, j + 1, left - m)
            if m:
                residual[j] += m
                del edges[(i, j)]

    def fill(i: int):
        if i == n:
            yield dict(edges)
            return
        left = residual[i]
        residual[i] = 0
        yield from spend(i, i + 1, left)
        residual[i] = left

    if sum(degrees) % 2 == 0:
        yield from fill(0)


def multigraph_sum(occurrences, connected_only: bool = False) -> tuple[dict, int]:
    """``(t, count)`` of a monomial from its multigraphs: the scalar sum and
    the number of graphs summed.  ``t(1) = 1`` and ``t_c(1) = 0``."""
    occurrences = tuple(occurrences)
    if not occurrences:
        return ({} if connected_only else {(): Fraction(1)}), 0
    points = [pt for pt, _ in occurrences]
    degrees = tuple(n for _, n in occurrences)
    weight = 1
    for n in degrees:
        weight *= factorial(n)
    total: dict = {}
    count = 0
    for edges in multigraphs(degrees):
        if connected_only and not _connected(len(degrees), edges):
            continue
        count += 1
        denom = 1
        powers: dict = {}
        for (i, j), m in edges.items():
            denom *= factorial(m)
            sym = symbol(SYMMETRIC, points[i], points[j])
            powers[sym] = powers.get(sym, 0) + m
        poly_add_into(total, poly_from_powers(powers, Fraction(weight, denom)))
    return total, count


def contraction_tables(rows: tuple[int, ...], cols: tuple[int, ...]):
    """Yield every nonnegative integer matrix with the given row and column
    sums, as a dict ``{(i, j): entry}`` of its nonzero entries."""
    col_left = list(cols)
    cells = [(i, j) for i in range(len(rows)) for j in range(len(cols))]
    row_left = list(rows)
    table: dict = {}

    def fill(c: int):
        if c == len(cells):
            if not any(row_left) and not any(col_left):
                yield dict(table)
            return
        i, j = cells[c]
        last_in_row = j == len(cols) - 1
        top = min(row_left[i], col_left[j])
        for k in ([row_left[i]] if last_in_row else range(top + 1)):
            if k > col_left[j]:
                return
            if k:
                row_left[i] -= k
                col_left[j] -= k
                table[(i, j)] = k
            yield from fill(c + 1)
            if k:
                row_left[i] += k
                col_left[j] += k
                del table[(i, j)]

    yield from fill(0)


def contraction_table_sum(u, v, kind: str = SYMMETRIC) -> dict:
    """``eps(u o v)`` for monomials ``u`` and ``v``: the sum over contraction
    tables ``K`` (rows the occurrences of ``u``, columns those of ``v``) of
    ``prod m_i! prod n_j! / prod K_ij! * prod s(x_i, y_j)^K_ij``, where
    ``s`` is ``D`` or, oriented from ``u`` to ``v``, ``Dplus``."""
    u, v = tuple(u), tuple(v)
    weight = 1
    for _, n in u + v:
        weight *= factorial(n)
    total: dict = {}
    for table in contraction_tables(tuple(n for _, n in u), tuple(n for _, n in v)):
        denom = 1
        powers: dict = {}
        for (i, j), k in table.items():
            denom *= factorial(k)
            sym = symbol(kind, u[i][0], v[j][0])
            powers[sym] = powers.get(sym, 0) + k
        poly_add_into(total, poly_from_powers(powers, Fraction(weight, denom)))
    return total


def set_partitions(items: list):
    """Yield every set partition of ``items`` as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]


def normal_product(u: dict, v: dict) -> dict:
    """The commutative normal product of two elements: multiset union of
    occurrence tuples, bilinear over Fraction coefficients."""
    out: dict = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            key = tuple(sorted(m1 + m2))
            new = out.get(key, 0) + c1 * c2
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def t_of_element(element: dict) -> dict:
    """``t`` extended linearly over an element with Fraction coefficients."""
    total: dict = {}
    for mono, coeff in element.items():
        poly_add_into(total, multigraph_sum(mono)[0], coeff)
    return total

