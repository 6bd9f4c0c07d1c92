"""Bicharacter pairing, twisted (Wick) products, and the chronological product.

The pairing on generators is diagonal in the field power:
``R(phi^m(x), phi^n(y)) = delta_{m,n} * n! * s(x,y)^n`` where ``s`` is the
oriented symbol ``Dplus`` (from ``x`` to ``y``) in operator mode and the
symmetric symbol ``D`` in chronological mode.  One generator against a
monomial of total power ``n`` is then ``n! * prod s(x,y)^(m*mult)`` over
its factors ``(phi^m(y), mult)``, and ``R(ab, c) = sum R(a, c') R(b, c'')``
extends the pairing to all monomials; since the algebra is commutative
and cocommutative, all standard extension conventions coincide (tests
recompute with the slot-swapped law).

The twisted product ``u o v = sum R(u', v') u'' v''`` deforms the normal
product by propagator contractions; with the symmetric symbols it is
commutative and fold-generates the chronological product.  It extends
bilinearly from basis monomials, pairing only equal-power parts of their
coproducts.  The twisted product and the bicharacter sum their
coefficients through the ring's multiply-accumulate
(``scalar._poly_dots``), grouped by output monomial, so no polynomial is
built per split pair and this module never reads how a
:class:`~qftalg.scalar.PropPoly` stores its terms.

Bicharacter values of monomial pairs are memoised in a dict, ``_R_CACHE``;
the power-grouped coproduct and the chronological product of a basis
monomial by ``functools.cache``.  Entries are idempotent, so concurrent
reads/writes are benign and results do not depend on evaluation order.
"""

from __future__ import annotations

import enum
from functools import cache
from math import factorial
from typing import Iterable, Sequence

from .errors import IdentityViolation, ModeError
from .hopf import Element, Generator, Monomial, _linear_sum, monomial_coproduct
from .scalar import D, Dplus, PropPoly, _accumulate, _poly_dot, _poly_dots


class RMode(enum.Enum):
    """Which propagator the pairing contracts with."""

    OPERATOR = "wightman"
    CHRONOLOGICAL = "feynman"


def r_generators(g: Generator, h: Generator, mode: RMode) -> PropPoly:
    """Pairing of two generators: zero unless powers match, else
    ``n! * symbol(x, y)^n`` with orientation from ``g`` to ``h``."""
    if g.power != h.power:
        return PropPoly.zero()
    return _r_generator(g, Monomial.of(h), mode)


def _r_generator(g: Generator, v: Monomial, mode: RMode) -> PropPoly:
    """``R(g, v) = n! * prod s(x, y)^(m*mult)`` for ``g = phi^n(x)`` and a
    monomial ``v`` of total power ``n`` with factors ``(phi^m(y), mult)``."""
    sym = D if mode is RMode.CHRONOLOGICAL else Dplus
    return PropPoly.from_symbol_powers(
        ((sym(g.point, h.point), h.power * mult) for h, mult in v.factors), factorial(g.power)
    )


# a dict: its key reads the mode as a bool (below); wickbench/tracer.py reads it
_R_CACHE: dict[tuple, PropPoly] = {}


def r_bicharacter(u: Monomial, v: Monomial, mode: RMode) -> PropPoly:
    """Bicharacter extension of :func:`r_generators` to monomial pairs.

    Peels the first generator ``g`` off ``u``:
    ``R(g * rest, v) = sum R(g, v') R(rest, v'')`` over the splits of ``v``
    whose ``v'`` has the power of ``g``, each ``R(g, v')`` in closed form;
    ``R(1, v) = counit(v)``.
    """
    # power balance: the generator pairing is diagonal, so mismatched total
    # field powers can never contract completely (this covers a unit
    # against a non-unit)
    if u.total_power != v.total_power:
        return PropPoly.zero()
    if u.is_unit:
        return PropPoly.one()
    # an enum hashes through Python code on every lookup; a bool does not
    key = (u, v, mode is RMode.CHRONOLOGICAL)
    cached = _R_CACHE.get(key)
    if cached is not None:
        return cached
    g, rest = u.split_first()
    if rest.is_unit:
        # closed form: a single generator never builds the coproduct of v
        result = _r_generator(g, v, mode)
    else:
        result = _poly_dot(
            (c * _r_generator(g, v1, mode), r_bicharacter(rest, v2, mode))
            for v1, v2, c in _coproduct_by_power(v)[g.power]
        )
    _R_CACHE[key] = result
    return result


@cache
def _coproduct_by_power(mono: Monomial) -> dict[int, list]:
    """Contraction coproduct grouped by the left slot's total field power.

    The bicharacter pairing vanishes across unequal powers, so the twisted
    product only ever pairs equal-power buckets.
    """
    buckets = {}
    for (left, right), c in monomial_coproduct(mono):
        buckets.setdefault(left.total_power, []).append((left, right, c))
    return buckets


def _twisted_monomials(mu: Monomial, mv: Monomial, mode: RMode) -> Element:
    """``mu o mv = sum R(mu', mv') mu'' mv''`` on two basis monomials,
    pairing only the equal-power buckets of their coproducts."""
    dv = _coproduct_by_power(mv)
    return Element._raw(_poly_dots(
        (a2 * b2, ca * cb, r)
        for power, left_terms in _coproduct_by_power(mu).items()
        for a1, a2, ca in left_terms
        for b1, b2, cb in dv.get(power, ())
        if (r := r_bicharacter(a1, b1, mode))
    ))


def twisted_product(u: Element, v: Element, mode: RMode = RMode.CHRONOLOGICAL) -> Element:
    """The deformed product ``u o v = sum R(u', v') u'' v''``.

    Associative in both modes; commutative in chronological mode.  Setting
    every propagator symbol to zero recovers the normal product.
    """
    return _linear_sum(
        (pu * pv, _twisted_monomials(mu, mv, mode))
        for mu, pu in u.terms.items()
        for mv, pv in v.terms.items()
    )


@cache
def _chronological_monomial(mono: Monomial) -> Element:
    if mono.size <= 1:
        return Element.from_monomial(mono)
    rest, last = mono.split_last()
    return twisted_product(
        _chronological_monomial(rest), Element.from_generator(last), RMode.CHRONOLOGICAL
    )


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


def t_monomial(mono: Monomial) -> PropPoly:
    """Scalar part of the chronological product of a basis monomial."""
    return _chronological_monomial(mono).counit()


def t_functional(u: Element | Monomial, mode: RMode = RMode.CHRONOLOGICAL) -> PropPoly:
    """Vacuum expectation of the chronological product, extended linearly."""
    if mode is not RMode.CHRONOLOGICAL:
        raise ModeError("t is defined through the chronological product only")
    if isinstance(u, Monomial):
        return t_monomial(u)
    return _poly_dot((coeff, t_monomial(mono)) for mono, coeff in u.terms.items())


def _expansion(u: Element, split, scalar) -> Element:
    """``sum scalar(u') u''`` over the ``((u', u''), c)`` pairs of
    ``split(mono)``, for each monomial ``mono`` of ``u``."""
    return Element._raw(_accumulate(
        (right, coeff * scalar(left) * c)
        for mono, coeff in u.terms.items()
        for (left, right), c in split(mono)
    ))


def t_expansion_identity(u: Element, mode: RMode = RMode.CHRONOLOGICAL) -> Element:
    """Check ``T(u) = sum t(u') u''`` over the contraction coproduct.

    Returns the common value; raises :class:`IdentityViolation` carrying
    both sides if they differ (which would signal an implementation bug).
    """
    if mode is not RMode.CHRONOLOGICAL:
        raise ModeError("the expansion identity lives in chronological mode")
    lhs = chronological(u)
    rhs = _expansion(u, monomial_coproduct, t_monomial)
    if lhs != rhs:
        raise IdentityViolation(lhs, rhs, "T(u) != sum t(u')u''")
    return lhs
