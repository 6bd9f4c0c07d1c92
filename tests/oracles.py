"""Independent brute-force oracles used to cross-check the library.

Everything here is written from the defining formulas directly, with no
shared code path into the implementations under test:

* :func:`delta_closed_form` expands the contraction coproduct through the
  full multi-binomial sum over per-occurrence split vectors.
* :func:`delta_prime_subsets` expands the partition coproduct over subsets
  of occurrence positions.
* :func:`split_by_occurrence` expands either coproduct one generator
  occurrence at a time, keeping each side as a sorted occurrence tuple and
  building the monomials once, with the validating constructor.
* :func:`bicharacter_contingency` evaluates the pairing as a sum over
  nonnegative integer matrices with fixed margins (bipartite contraction
  schemes); this is convention-free.
* :func:`bicharacter_swapped` re-runs the recursive extension with the
  slot-swapped laws, to show the convention choice does not matter.
* :func:`twisted_tables` expands the twisted product of two monomials
  over partial contraction tables between their occurrences.
* :func:`matchings_t` evaluates the degree-one scalar functional as a sum
  over perfect matchings.
* :func:`set_partitions` lists the set partitions of labelled items one
  by one (Bell(n) of them), with no grouping of equal blocks.
* :func:`antipode_recursion` runs the defining recursion of the antipode
  on the whole monomial, over the coproduct of :func:`delta_closed_form`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

from qftalg.coqts import RMode, r_generators
from qftalg.hopf import Element, Generator, Monomial, Tensor, monomial_coproduct
from qftalg.scalar import D, Dplus, PropPoly


def delta_closed_form(mono: Monomial) -> Tensor:
    """Contraction coproduct via the explicit multi-binomial formula."""
    occ = mono.occurrences()
    acc = {}
    for ks in itertools.product(*[range(g.power + 1) for g in occ]):
        coeff = 1
        left = []
        right = []
        for g, k in zip(occ, ks):
            coeff *= comb(g.power, k)
            if k:
                left.append(Generator(g.point, k))
            if k < g.power:
                right.append(Generator(g.point, g.power - k))
        key = (Monomial.from_occurrences(left), Monomial.from_occurrences(right))
        acc[key] = acc.get(key, 0) + coeff
    return Tensor(2, {k: PropPoly.constant(v) for k, v in acc.items()})


def delta_prime_subsets(mono: Monomial) -> Tensor:
    """Partition coproduct via the explicit sum over position subsets."""
    occ = mono.occurrences()
    acc = {}
    for size in range(len(occ) + 1):
        for subset in itertools.combinations(range(len(occ)), size):
            chosen = set(subset)
            left = Monomial.from_occurrences(occ[i] for i in range(len(occ)) if i in chosen)
            right = Monomial.from_occurrences(occ[i] for i in range(len(occ)) if i not in chosen)
            key = (left, right)
            acc[key] = acc.get(key, 0) + 1
    return Tensor(2, {k: PropPoly.constant(v) for k, v in acc.items()})


def split_by_occurrence(mono: Monomial, primitive: bool = False) -> dict:
    """``{(left, right): coefficient}`` of the contraction coproduct (the
    binomial split of each occurrence) or, if ``primitive``, of the
    partition coproduct (each occurrence goes left or right whole)."""
    acc = {((), ()): 1}
    for g in mono.occurrences():
        if primitive:
            splits = [((g,), (), 1), ((), (g,), 1)]
        else:
            splits = [
                (
                    (Generator(g.point, k),) if k else (),
                    (Generator(g.point, g.power - k),) if k < g.power else (),
                    comb(g.power, k),
                )
                for k in range(g.power + 1)
            ]
        grown = {}
        for (left, right), c in acc.items():
            for g1, g2, k in splits:
                key = (tuple(sorted(left + g1)), tuple(sorted(right + g2)))
                grown[key] = grown.get(key, 0) + c * k
        acc = grown
    return {
        (Monomial.from_occurrences(left), Monomial.from_occurrences(right)): c
        for (left, right), c in acc.items()
    }


def _margin_matrices(rows, cols, partial=False):
    """All nonnegative integer matrices with the given row/column sums, or
    with sums at most the given ones if ``partial``."""
    if not rows:
        if partial or all(c == 0 for c in cols):
            yield []
        return
    first, rest = rows[0], rows[1:]

    def fill(j, remaining, current, cols_left):
        if j == len(cols_left):
            if partial or remaining == 0:
                for tail in _margin_matrices(rest, cols_left, partial):
                    yield [list(current)] + tail
            return
        for v in range(min(remaining, cols_left[j]) + 1):
            cols_left[j] -= v
            current.append(v)
            yield from fill(j + 1, remaining - v, current, cols_left)
            current.pop()
            cols_left[j] += v

    yield from fill(0, first, [], list(cols))


def bicharacter_contingency(u: Monomial, v: Monomial, mode: RMode) -> PropPoly:
    """Pairing as a sum over bipartite contraction matrices.

    Rows are the occurrences of ``u``, columns those of ``v``; a matrix K
    with row sums the u-powers and column sums the v-powers contributes
    ``prod_i m_i! prod_j n_j! / prod_ij k_ij!`` times the symbol product
    ``prod s(x_i, y_j)^{k_ij}`` (oriented u -> v in operator mode).
    """
    if u.is_unit or v.is_unit:
        return PropPoly.one() if u.is_unit and v.is_unit else PropPoly.zero()
    uocc = u.occurrences()
    vocc = v.occurrences()
    rows = [g.power for g in uocc]
    cols = [g.power for g in vocc]
    if sum(rows) != sum(cols):
        return PropPoly.zero()
    total = PropPoly.zero()
    base = 1
    for n in rows + cols:
        base *= factorial(n)
    for matrix in _margin_matrices(rows, cols):
        weight = Fraction(base)
        powers = []
        for i, row in enumerate(matrix):
            for j, k in enumerate(row):
                if not k:
                    continue
                weight /= factorial(k)
                if mode is RMode.CHRONOLOGICAL:
                    powers.append((D(uocc[i].point, vocc[j].point), k))
                else:
                    powers.append((Dplus(uocc[i].point, vocc[j].point), k))
        total = total + PropPoly.from_symbol_powers(powers, weight)
    return total


def bicharacter_swapped(u: Monomial, v: Monomial, mode: RMode) -> PropPoly:
    """Recursive bicharacter extension with both laws slot-swapped:
    R(ab, c) = sum R(b, c') R(a, c'') and R(a, bc) = sum R(a', c) R(a'', b)."""
    if u.is_unit:
        return PropPoly.one() if v.is_unit else PropPoly.zero()
    if v.is_unit:
        return PropPoly.zero()
    if u.total_power != v.total_power:
        return PropPoly.zero()
    if u.size == 1 and v.size == 1:
        return r_generators(u.occurrences()[0], v.occurrences()[0], mode)
    if u.size == 1:
        point, n = u.occurrences()[0]
        h, rest = v.split_first()
        total = PropPoly.zero()
        for k in range(n + 1):
            left = Monomial.of(Generator(point, k)) if k else Monomial.unit()
            right = (
                Monomial.of(Generator(point, n - k)) if k < n else Monomial.unit()
            )
            piece = bicharacter_swapped(left, rest, mode) * bicharacter_swapped(
                right, Monomial.of(h), mode
            )
            total = total + comb(n, k) * piece
        return total
    g, rest = u.split_first()
    total = PropPoly.zero()
    for (v1, v2), c in monomial_coproduct(v):
        piece = bicharacter_swapped(rest, v1, mode) * bicharacter_swapped(
            Monomial.of(g), v2, mode
        )
        total = total + c * piece
    return total


def twisted_tables(u: Monomial, v: Monomial, mode: RMode) -> Element:
    """Twisted product of two monomials as a sum over partial contraction
    tables.

    Rows are the occurrences ``phi^{n_i}(x_i)`` of ``u``, columns the
    occurrences ``phi^{m_j}(y_j)`` of ``v``; a nonnegative integer matrix M
    with row sums ``r_i <= n_i`` and column sums ``c_j <= m_j`` contracts
    ``M_ij`` fields of occurrence i with fields of occurrence j.  It
    contributes ``prod n_i!/(n_i-r_i)! prod m_j!/(m_j-c_j)! / prod M_ij!``
    times ``prod s(x_i, y_j)^{M_ij}`` (oriented u -> v in operator mode)
    times the leftover ``prod phi^{n_i-r_i}(x_i) prod phi^{m_j-c_j}(y_j)``.
    """
    uocc = u.occurrences()
    vocc = v.occurrences()
    symbol = D if mode is RMode.CHRONOLOGICAL else Dplus
    total = Element.zero()
    tables = _margin_matrices([g.power for g in uocc], [g.power for g in vocc], partial=True)
    for matrix in tables:
        weight = Fraction(1)
        powers = []
        leftover = []
        for g, row in zip(uocc, matrix):
            r = sum(row)
            weight *= Fraction(factorial(g.power), factorial(g.power - r))
            leftover.append(Generator(g.point, g.power - r))
            for h, k in zip(vocc, row):
                weight /= factorial(k)
                powers.append((symbol(g.point, h.point), k))
        for j, h in enumerate(vocc):
            c = sum(row[j] for row in matrix)
            weight *= Fraction(factorial(h.power), factorial(h.power - c))
            leftover.append(Generator(h.point, h.power - c))
        rest = Monomial.from_occurrences(g for g in leftover if g.power)
        total = total + Element.from_monomial(rest, PropPoly.from_symbol_powers(powers, weight))
    return total


def matchings_t(points) -> PropPoly:
    """Scalar functional of a product of degree-one fields: the sum over
    perfect matchings of the propagator products."""
    points = list(points)
    if not points:
        return PropPoly.one()
    if len(points) % 2 == 1:
        return PropPoly.zero()

    def pairings(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for i, other in enumerate(rest):
            for tail in pairings(rest[:i] + rest[i + 1:]):
                yield [(head, other)] + tail

    total = PropPoly.zero()
    for pairing in pairings(points):
        total = total + PropPoly.from_symbol_powers((D(a, b), 1) for a, b in pairing)
    return total


def set_partitions(items: list):
    """Yield every set partition of ``items`` as a list of blocks: the
    first item joins each block of a partition of the rest, or stands
    alone."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[head]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[head] + partition[i]] + partition[i + 1:]


def antipode_recursion(mono: Monomial, memo: dict) -> Element:
    """``S(m) = -m - sum c S(m') m''`` over the reduced coproduct of the
    whole monomial ``m``; ``memo`` keeps the antipode of each sub-monomial
    met, which the recursion otherwise recomputes exponentially often."""
    if mono.is_unit:
        return Element.one()
    if mono not in memo:
        out = -Element.from_monomial(mono)
        for (left, right), c in delta_closed_form(mono).terms.items():
            if not left.is_unit and not right.is_unit:
                out = out - c * (antipode_recursion(left, memo) * Element.from_monomial(right))
        memo[mono] = out
    return memo[mono]


def phi(point: str, power: int = 1) -> Element:
    return Element.from_monomial(Monomial.of(Generator(point, power)))


def mono(*gens) -> Monomial:
    return Monomial.from_occurrences(Generator(p, n) for p, n in gens)
