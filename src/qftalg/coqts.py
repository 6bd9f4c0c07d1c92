"""Bicharacter pairing, twisted (Wick) products, and the chronological product.

The pairing on generators is diagonal in the field power:
``R(phi^m(x), phi^n(y)) = delta_{m,n} * n! * s(x,y)^n`` where ``s`` is the
oriented symbol ``Dplus`` in operator mode and the symmetric symbol ``D``
in chronological mode.  It extends to all monomials by the bicharacter
laws, evaluated recursively through the contraction coproduct; since the
algebra is commutative and cocommutative, all standard extension
conventions coincide (tests recompute with the slot-swapped law).

The twisted product ``u o v = sum R(u', v') u'' v''`` deforms the normal
product by propagator contractions; with the symmetric symbols it is
commutative and fold-generates the chronological product.

Memo tables cache bicharacter values and chronological products of basis
monomials; entries are idempotent, so concurrent reads/writes are benign
and results do not depend on evaluation order.
"""

from __future__ import annotations

import enum
from math import comb, factorial
from typing import Iterable, Sequence

from .errors import IdentityViolation, ModeError
from .hopf import Element, Generator, Monomial, _linear_sum, monomial_coproduct
from .scalar import D, Dplus, PropPoly, _accumulate, _poly_sum


class RMode(enum.Enum):
    """Which propagator the pairing contracts with."""

    OPERATOR = "wightman"
    CHRONOLOGICAL = "feynman"


def r_generators(g: Generator, h: Generator, mode: RMode) -> PropPoly:
    """Pairing of two generators: zero unless powers match, else
    ``n! * symbol(x, y)^n`` with orientation from ``g`` to ``h``."""
    if g.power != h.power:
        return PropPoly.zero()
    n = g.power
    sym = D(g.point, h.point) if mode is RMode.CHRONOLOGICAL else Dplus(g.point, h.point)
    return PropPoly.symbol(sym, n, factorial(n))


_R_CACHE: dict[tuple, PropPoly] = {}


def r_bicharacter(u: Monomial, v: Monomial, mode: RMode) -> PropPoly:
    """Bicharacter extension of :func:`r_generators` to monomial pairs.

    Uses ``R(ab, c) = sum R(a, c') R(b, c'')`` and
    ``R(a, bc) = sum R(a', b) R(a'', c)`` down to generator pairs, with
    ``R(1, v) = counit(v)`` and ``R(u, 1) = counit(u)``.
    """
    if u.is_unit:
        return PropPoly.one() if v.is_unit else PropPoly.zero()
    if v.is_unit:
        return PropPoly.zero()
    # power balance: the generator pairing is diagonal, so mismatched total
    # field powers can never contract completely
    if u.total_power != v.total_power:
        return PropPoly.zero()
    key = (u, v, mode)
    cached = _R_CACHE.get(key)
    if cached is not None:
        return cached
    if u.size == 1:
        if v.size == 1:
            result = r_generators(u.occurrences()[0], v.occurrences()[0], mode)
        else:
            # split v = h * rest and expand through the coproduct of u's
            # single generator
            point, n = u.occurrences()[0]
            h, rest = v.split_first()
            h_mono = Monomial.of(h)
            result = PropPoly.zero()
            for k in range(n + 1):
                left = Monomial.of(Generator(point, k)) if k else Monomial.unit()
                right = Monomial.of(Generator(point, n - k)) if k < n else Monomial.unit()
                piece = r_bicharacter(left, h_mono, mode)
                if not piece:
                    continue
                piece = piece * r_bicharacter(right, rest, mode)
                if piece:
                    result = result + comb(n, k) * piece
    else:
        g, rest = u.split_first()
        g_mono = Monomial.of(g)
        result = PropPoly.zero()
        for (v1, v2), c in monomial_coproduct(v):
            piece = r_bicharacter(g_mono, v1, mode)
            if not piece:
                continue
            piece = piece * r_bicharacter(rest, v2, mode)
            if piece:
                result = result + c * piece
    _R_CACHE[key] = result
    return result


_BUCKET_CACHE: dict[Monomial, dict[int, tuple]] = {}


def _coproduct_by_power(mono: Monomial) -> dict[int, tuple]:
    """Contraction coproduct grouped by the left slot's total field power.

    The bicharacter pairing vanishes across unequal powers, so the twisted
    product only ever pairs equal-power buckets.
    """
    cached = _BUCKET_CACHE.get(mono)
    if cached is not None:
        return cached
    buckets: dict[int, list] = {}
    for (left, right), c in monomial_coproduct(mono):
        buckets.setdefault(left.total_power, []).append((left, right, c))
    result = {power: tuple(entries) for power, entries in buckets.items()}
    _BUCKET_CACHE[mono] = result
    return result


def twisted_product(u: Element, v: Element, mode: RMode = RMode.CHRONOLOGICAL) -> Element:
    """The deformed product ``u o v = sum R(u', v') u'' v''``.

    Associative in both modes; commutative in chronological mode.  Setting
    every propagator symbol to zero recovers the normal product.
    """
    # accumulate coefficients in mutable maps, scaling by the outer
    # coefficient once per result monomial instead of per contraction term
    acc: dict[Monomial, dict] = {}

    def fold(mono, terms):
        slot = acc.get(mono)
        if slot is None:
            acc[mono] = dict(terms)
            return
        for symmap, coeff in terms.items():
            slot[symmap] = slot.get(symmap, 0) + coeff

    for mu, pu in u.terms.items():
        du = _coproduct_by_power(mu)
        for mv, pv in v.terms.items():
            outer = pu * pv
            dv = _coproduct_by_power(mv)
            pair_acc: dict[Monomial, dict] = {}
            for power, left_terms in du.items():
                right_terms = dv.get(power)
                if right_terms is None:
                    continue
                for a1, a2, ca in left_terms:
                    for b1, b2, cb in right_terms:
                        r = r_bicharacter(a1, b1, mode)
                        if not r:
                            continue
                        c = ca * cb
                        key = a2 * b2
                        slot = pair_acc.get(key)
                        if slot is None:
                            slot = pair_acc[key] = {}
                        if c == 1:
                            for symmap, coeff in r.terms.items():
                                slot[symmap] = slot.get(symmap, 0) + coeff
                        else:
                            for symmap, coeff in r.terms.items():
                                slot[symmap] = slot.get(symmap, 0) + coeff * c
            if outer.is_one():
                for mono, slot in pair_acc.items():
                    fold(mono, slot)
            else:
                for mono, slot in pair_acc.items():
                    clean = {symmap: q for symmap, q in slot.items() if q}
                    if clean:
                        fold(mono, (PropPoly._raw(clean) * outer).terms)
    out: dict[Monomial, PropPoly] = {}
    for mono, slot in acc.items():
        clean = {symmap: q for symmap, q in slot.items() if q}
        if clean:
            out[mono] = PropPoly._raw(clean)
    return Element._raw(out)


_T_CACHE: dict[Monomial, Element] = {}


def _chronological_monomial(mono: Monomial) -> Element:
    if mono.size <= 1:
        return Element.from_monomial(mono)
    cached = _T_CACHE.get(mono)
    if cached is not None:
        return cached
    rest, last = mono.split_last()
    result = twisted_product(
        _chronological_monomial(rest), Element.from_generator(last), RMode.CHRONOLOGICAL
    )
    _T_CACHE[mono] = result
    return result


def chronological(
    factors: Element | Monomial | Iterable[Generator] | Sequence[Generator],
    mode: RMode = RMode.CHRONOLOGICAL,
) -> Element:
    """The chronological product: the twisted-product fold over generators.

    Accepts a list of generators, a single monomial, or a whole element
    (extended linearly over its monomials).  Defined only in chronological
    mode, where the twisted product is commutative and the fold does not
    depend on the factor order.
    """
    if mode is not RMode.CHRONOLOGICAL:
        raise ModeError(
            "the chronological product requires the commutative (feynman) mode"
        )
    if isinstance(factors, Element):
        return _linear_sum(
            (coeff, _chronological_monomial(mono)) for mono, coeff in factors.terms.items()
        )
    if isinstance(factors, Monomial):
        return _chronological_monomial(factors)
    return _chronological_monomial(Monomial.from_occurrences(factors))


_t_cache: dict[Monomial, PropPoly] = {}


def t_monomial(mono: Monomial) -> PropPoly:
    """Scalar part of the chronological product of a basis monomial."""
    cached = _t_cache.get(mono)
    if cached is None:
        cached = _chronological_monomial(mono).counit()
        _t_cache[mono] = cached
    return cached


def t_functional(u: Element | Monomial, mode: RMode = RMode.CHRONOLOGICAL) -> PropPoly:
    """Vacuum expectation of the chronological product, extended linearly."""
    if mode is not RMode.CHRONOLOGICAL:
        raise ModeError("t is defined through the chronological product only")
    if isinstance(u, Monomial):
        return t_monomial(u)
    return _poly_sum(coeff * t_monomial(mono) for mono, coeff in u.terms.items())


def t_expansion_identity(u: Element, mode: RMode = RMode.CHRONOLOGICAL) -> Element:
    """Check ``T(u) = sum t(u') u''`` over the contraction coproduct.

    Returns the common value; raises :class:`IdentityViolation` carrying
    both sides if they differ (which would signal an implementation bug).
    """
    if mode is not RMode.CHRONOLOGICAL:
        raise ModeError("the expansion identity lives in chronological mode")
    lhs = chronological(u)
    rhs = Element._raw(_accumulate(
        (right, coeff * t_monomial(left) * c)
        for mono, coeff in u.terms.items()
        for (left, right), c in monomial_coproduct(mono)
    ))
    if lhs != rhs:
        raise IdentityViolation(lhs, rhs, "T(u) != sum t(u')u''")
    return lhs
