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
coproducts; a split whose left power exceeds the other operand's top
total power has no partner, so each monomial's coproduct is read once per
product, in left-power buckets built only up to that power
(``hopf._graded_coproduct``, which the bicharacter reads too).  The
twisted product, the bicharacter and the expansions ``sum scalar(u')u''``
are each one call of the ring's weighted multiply-accumulate
(``scalar._poly_dots``): every split pair is one entry ``(output monomial,
integer weight, pairing value, coefficient)``, so no polynomial or element
is built per split pair and this module never reads how a
:class:`~qftalg.scalar.PropPoly` stores its terms.

Bicharacter values of monomial pairs are memoised in a dict, ``_R_CACHE``,
keyed on the pair and the mode read as its propagator (``_symbol``); the
twisted product reads it inline and calls the bicharacter only on a miss,
and the bicharacter pairs each peeled generator through it too.  The
chronological product of a basis monomial is memoised by
``functools.cache``.  Entries are idempotent, so concurrent reads/writes
are benign and results do not depend on evaluation order.
"""

from __future__ import annotations

import enum
from functools import cache
from math import factorial
from typing import Iterable, Sequence

from .errors import IdentityViolation, ModeError
from .hopf import Element, Generator, Monomial, _graded_coproduct, _linear_sum, monomial_coproduct
from .scalar import D, Dplus, PropPoly, _poly_dot, _poly_dots


class RMode(enum.Enum):
    """Which propagator the pairing contracts with."""

    OPERATOR = "wightman"
    CHRONOLOGICAL = "feynman"


_OPERATOR, _CHRONOLOGICAL = RMode.OPERATOR, RMode.CHRONOLOGICAL


def _symbol(mode: RMode):
    """The propagator ``mode`` contracts with: ``D`` in chronological mode,
    ``Dplus`` in operator mode; :class:`ModeError` for anything else."""
    if mode is _CHRONOLOGICAL:
        return D
    if mode is _OPERATOR:
        return Dplus
    raise ModeError(f"mode must be an RMode member, got {mode!r}")


def r_generators(g: Generator, h: Generator, mode: RMode) -> PropPoly:
    """Pairing of two generators: zero unless powers match, else
    ``n! * symbol(x, y)^n`` with orientation from ``g`` to ``h``."""
    return r_bicharacter(Monomial.of(g), Monomial.of(h), mode)


def _r_generator(g: Generator, v: Monomial, sym) -> PropPoly:
    """``R(g, v) = n! * prod sym(x, y)^(m*mult)`` for ``g = phi^n(x)`` and a
    monomial ``v`` of total power ``n`` with factors ``(phi^m(y), mult)``."""
    return PropPoly.from_symbol_powers(
        ((sym(g.point, h.point), h.power * mult) for h, mult in v.factors), factorial(g.power)
    )


# a dict: its key reads the mode as its propagator; wickbench/tracer.py reads it
_R_CACHE: dict[tuple, PropPoly] = {}


def r_bicharacter(u: Monomial, v: Monomial, mode: RMode) -> PropPoly:
    """Bicharacter extension of :func:`r_generators` to monomial pairs.

    Peels the first generator ``g`` off ``u``:
    ``R(g * rest, v) = sum R(g, v') R(rest, v'')`` over the splits of ``v``
    whose ``v'`` has the power of ``g``, each ``R(g, v')`` read through the
    table, so its closed form runs once per distinct ``(g, v')``;
    ``R(1, v) = counit(v)``, stored like any other pairing.
    """
    sym = _symbol(mode)  # a bad mode raises before any short-cut
    # power balance: the generator pairing is diagonal, so mismatched total
    # powers never contract completely (a unit against a non-unit included)
    if u.total_power != v.total_power:
        return PropPoly.zero()
    key = (u, v, sym)
    cached = _R_CACHE.get(key)
    if cached is not None:
        return cached
    if u.is_unit:
        result = PropPoly.one()
    elif u.size == 1:
        # closed form: a single generator never builds the coproduct of v
        result = _r_generator(u.factors[0][0], v, sym)
    else:
        g, rest = u.split_first()
        single = Monomial._raw(((g, 1),))
        result = _poly_dots(
            (None, c, r_bicharacter(single, v1, mode), r_bicharacter(rest, v2, mode))
            for (v1, v2), c in _graded_coproduct(v, g.power)[g.power]
        ).get(None, PropPoly.zero())
    _R_CACHE[key] = result
    return result


def twisted_product(u: Element, v: Element, mode: RMode = RMode.CHRONOLOGICAL) -> Element:
    """The deformed product ``u o v = sum R(u', v') u'' v''``.

    Associative in both modes; commutative in chronological mode.  Setting
    every propagator symbol to zero recovers the normal product.

    One multiply-accumulate over every pair of basis monomials ``mu``,
    ``mv`` and every pair of equal-power splits ``(a1, a2)``, ``(b1, b2)``
    of their coproducts: ``a2 b2`` gains ``ca cb R(a1, b1) pu pv``, with the
    product ``pu pv`` of the two coefficients formed once per monomial pair.
    A split power above the other operand's top total power has no partner,
    so each monomial's coproduct is read once, in left-power buckets up to
    that power; a monomial of power ``P`` has at most ``P + 1`` of them, so
    ``zip`` still stops after the bucket of the smaller power of ``mu`` and
    ``mv``.  Each ``R(a1, b1)`` is read from ``_R_CACHE`` in the loop: in
    an equal-power bucket the bicharacter's power check is redundant, and
    the pair of units in bucket 0 is stored like any other pairing.
    """
    sym = _symbol(mode)  # a bad mode raises even when there is nothing to pair
    top_u = max((mu.total_power for mu in u.terms), default=0)
    top_v = max((mv.total_power for mv in v.terms), default=0)
    graded_u = [(_graded_coproduct(mu, top_v), pu) for mu, pu in u.terms.items()]
    graded_v = [(_graded_coproduct(mv, top_u), pv) for mv, pv in v.terms.items()]
    # a stored pairing has positive coefficients, so it is never zero and
    # ``or`` reaches r_bicharacter only on a miss
    get = _R_CACHE.get
    return Element._raw(_poly_dots(
        (a2 * b2, ca * cb, get((a1, b1, sym)) or r_bicharacter(a1, b1, mode), p)
        for du, pu in graded_u
        for dv, pv in graded_v
        for p in (pu * pv,)
        for left_terms, right_terms in zip(du, dv)
        for (a1, a2), ca in left_terms
        for (b1, b2), cb in right_terms
    ))


@cache
def _chronological_monomial(mono: Monomial) -> Element:
    if mono.size <= 1:
        return Element.from_monomial(mono)
    rest, last = mono.split_last()
    return twisted_product(
        _chronological_monomial(rest), Element.from_generator(last), _CHRONOLOGICAL
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
    if _symbol(mode) is not D:
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
    if _symbol(mode) is not D:
        raise ModeError("t is defined through the chronological product only")
    if isinstance(u, Monomial):
        return t_monomial(u)
    return _poly_dot((coeff, t_monomial(mono)) for mono, coeff in u.terms.items())


def _expansion(u: Element, split, scalar) -> Element:
    """``sum scalar(u') u''`` over the ``((u', u''), c)`` pairs of
    ``split(mono)``, for each monomial ``mono`` of ``u``: one
    multiply-accumulate over every monomial and split, ``u''`` gaining
    ``c * scalar(u') * coeff``."""
    return Element._raw(_poly_dots(
        (right, c, scalar(left), coeff)
        for mono, coeff in u.terms.items()
        for (left, right), c in split(mono)
    ))


def _expansion_identity(lhs: Element, u: Element, split, scalar, law: str) -> Element:
    """The one comparison behind the expansion identities: ``lhs`` if it
    equals ``sum scalar(u') u''`` over ``split``, else
    :class:`IdentityViolation` with both sides (an implementation bug)."""
    rhs = _expansion(u, split, scalar)
    if lhs != rhs:
        raise IdentityViolation(lhs, rhs, law)
    return lhs


def t_expansion_identity(u: Element, mode: RMode = RMode.CHRONOLOGICAL) -> Element:
    """Check ``T(u) = sum t(u') u''`` over the contraction coproduct.

    Returns the common value; raises :class:`IdentityViolation` carrying
    both sides if they differ (which would signal an implementation bug).
    """
    if _symbol(mode) is not D:
        raise ModeError("the expansion identity lives in chronological mode")
    return _expansion_identity(
        chronological(u), u, monomial_coproduct, t_monomial, "T(u) != sum t(u')u''"
    )
