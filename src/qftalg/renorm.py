"""Connected and renormalized chronological products.

Both products are finite alternating/exponential sums over iterates of the
reduced partition coproduct:

* connected:     ``T_c(u) = sum_{n>=1} (-1)^(n+1)/n  T(u_1)...T(u_n)``
* renormalized:  ``T_R(u) = sum_{n>=1} 1/n!  T(O(u_1)...O(u_n))``

where ``u_1 (x) ... (x) u_n`` runs over the (n-1)-st reduced-partition
iterate and ``O`` is a pluggable generalized vertex (a linear map from the
algebra into the span of single generators).  Every series terminates: the
n-th iterate vanishes once n reaches the occurrence count of the largest
monomial.  Products between the ``T(...)`` factors are normal products.

Conventions: ``t(1) = 1`` and ``t_c(1) = 0``, the unit of S(C) being the
empty vertex word.  The connected expansion ``T_c(u) = sum t_c(u')u''``
runs over the coaction :func:`~qftalg.hopf.coaction`, whose left factor
``u'`` is a vertex word of S(S(C)), not a Wick monomial: an occurrence
whose whole power went to the right stays as an emptied vertex ``[1]``.
On vertex words ``t_c`` is ``t_c`` of the monomial when no vertex is
emptied, ``1`` on the one-vertex word ``[1]`` and ``0`` on every other
word holding an emptied vertex, so ``T_c(phi) = phi`` and no spectator
term such as ``D(x,y) phi(z)`` can appear.  :func:`comodule_expansion_check`
checks the expansion on every element of the counit kernel.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from functools import reduce
from math import factorial
from operator import mul
from typing import Mapping

from .coqts import chronological
from .errors import IdentityViolation
from .hopf import (
    Element,
    Generator,
    Monomial,
    _linear_sum,
    kernel_project,
    monomial_coaction,
    monomial_reduced_prime,
    Tensor,
    VertexWord,
)
from .scalar import PropPoly, _accumulate, _poly_sum, parse_frac


class Vertex:
    """A generalized vertex: a linear map into the span of generators.

    Defined by a finite rule table on basis monomials (unlisted monomials
    map to zero) or, for :func:`identity_vertex`, by the intensional rule
    "keep single-generator monomials".  Images must be linear combinations
    of single-generator monomials; anything else is rejected at
    construction.
    """

    __slots__ = ("rules", "_identity")

    def __init__(self, rules: Mapping[Monomial, Element] | None = None, *, identity: bool = False):
        table: dict[Monomial, Element] = {}
        for mono, image in (rules or {}).items():
            for m in image.terms:
                if m.size != 1:
                    raise ValueError(
                        f"vertex image must lie in the span of single generators, got {m}"
                    )
            if image:
                table[mono] = image
        self.rules = table
        self._identity = identity

    def image(self, mono: Monomial) -> Element:
        if self._identity and mono.size == 1:
            return Element.from_monomial(mono)
        return self.rules.get(mono, Element.zero())

    def apply(self, u: Element) -> Element:
        return _linear_sum((coeff, self.image(mono)) for mono, coeff in u.terms.items())

    @classmethod
    def from_json(cls, text: str) -> "Vertex":
        """Parse the rule-table format: a JSON array of
        ``{"from": monomial, "to": [{"point", "power", "coeff": "p/q"}]}``.

        Malformed tables raise :class:`ValueError` (or :class:`KeyError`
        for a missing field): a top level or a ``from``/``to`` list that is
        not an array of objects, a point that is not a string, a power that
        is not an integer >= 1, a multiplicity that is not an integer >= 0,
        a zero denominator.
        """
        rules: dict[Monomial, Element] = {}
        for entry in _objects(json.loads(text), "vertex file"):
            source = Monomial(
                (Generator(_point_field(f), _int_field(f, "power", 1)), _int_field(f, "mult", 0))
                for f in _objects(entry["from"], "from")
            )
            image = _linear_sum(
                (
                    PropPoly.constant(parse_frac(str(t["coeff"]))),
                    Element.from_generator(Generator(_point_field(t), _int_field(t, "power", 1))),
                )
                for t in _objects(entry["to"], "to")
            )
            if source in rules:
                raise ValueError(f"duplicate vertex rule for {source}")
            rules[source] = image
        return cls(rules)


def _objects(value, what: str) -> list:
    """``value`` itself if it is a JSON array of objects; else ValueError."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ValueError(f"{what} must be an array of objects")
    return value


def _int_field(obj: dict, key: str, low: int) -> int:
    """``obj[key]`` if it is an integer ``>= low``; else ValueError."""
    value = obj[key]
    if type(value) is not int or value < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def _point_field(obj: dict) -> str:
    """``obj["point"]`` if it is a string; else ValueError."""
    value = obj["point"]
    if not isinstance(value, str):
        raise ValueError(f"point must be a string, got {value!r}")
    return value


def identity_vertex() -> Vertex:
    """Maps each single-generator monomial to itself, everything else to 0."""
    return Vertex(identity=True)


def zero_vertex() -> Vertex:
    """Maps everything to 0."""
    return Vertex()


def _reduced_partition_terms(u: Element):
    """Yield ``(n, tensor_terms)`` for n = 1, 2, ... until the iterate dies."""
    current = Tensor.from_element(u)
    n = 1
    while current:
        yield n, current
        current = current.apply_to_slot(0, monomial_reduced_prime)
        n += 1


def connected_T(u: Element, strict: bool = True) -> Element:
    """The connected chronological product on the counit kernel."""
    u = kernel_project(u, strict)
    return _linear_sum(
        (c * Fraction((-1) ** (n + 1), n), reduce(mul, map(chronological, slots)))
        for n, tensor in _reduced_partition_terms(u)
        for slots, c in tensor.terms.items()
    )


_tc_cache: dict[Monomial, PropPoly] = {}


def _t_c_monomial(mono: Monomial) -> PropPoly:
    """Connected scalar functional on a basis monomial; t_c(1) = 0."""
    if mono.is_unit:
        return PropPoly.zero()
    cached = _tc_cache.get(mono)
    if cached is None:
        cached = connected_T(Element.from_monomial(mono)).counit()
        _tc_cache[mono] = cached
    return cached


def t_c_functional(u: Element | Monomial, strict: bool = True) -> PropPoly:
    """Vacuum expectation of the connected product, extended linearly."""
    if isinstance(u, Monomial):
        return _t_c_monomial(u)
    u = kernel_project(u, strict)
    return _poly_sum(coeff * _t_c_monomial(mono) for mono, coeff in u.terms.items())


def _t_c_word(word: VertexWord) -> PropPoly:
    """Connected scalar functional on a vertex word: ``t_c`` of the monomial
    without emptied vertices, ``1`` on the one-vertex word ``[1]``, and 0
    on every other word holding an emptied vertex."""
    if not word.emptied:
        return _t_c_monomial(word.vertices)
    if word.emptied == 1 and word.vertices.is_unit:
        return PropPoly.one()
    return PropPoly.zero()


def comodule_expansion_check(u: Element, strict: bool = True) -> Element:
    """Check ``T_c(u) = sum t_c(u') u''`` over the coaction on vertex words.

    Returns the common value when the identity holds.  On a mismatch,
    strict mode raises :class:`IdentityViolation` with both sides; lenient
    mode warns and returns the ``connected_T`` value, which is the ground
    truth.  The identity holds on the whole counit kernel; a mismatch
    means a coaction or a ``t_c`` that is wrong, such as one that reads
    ``u'`` as a Wick monomial and so drops emptied vertices (see the
    module docstring).
    """
    u = kernel_project(u, strict)
    lhs = connected_T(u)
    rhs = Element._raw(_accumulate(
        (right, coeff * _t_c_word(word) * c)
        for mono, coeff in u.terms.items()
        for (word, right), c in monomial_coaction(mono)
    ))
    if lhs == rhs:
        return lhs
    if strict:
        raise IdentityViolation(lhs, rhs, "T_c(u) != sum t_c(u')u''")
    warnings.warn(
        f"connected expansion mismatch: T_c = {lhs} but expansion = {rhs}",
        stacklevel=2,
    )
    return lhs


def renormalized_T(u: Element, vertex: Vertex, strict: bool = True) -> Element:
    """The renormalized chronological product with generalized vertex ``O``.

    ``T`` is linear, so the series ``sum c/n! O(u_1)...O(u_n)`` is summed
    into one element first and ``T`` applied to it once.
    """
    u = kernel_project(u, strict)
    return chronological(_linear_sum(
        (c * Fraction(1, factorial(n)), reduce(mul, map(vertex.image, slots)))
        for n, tensor in _reduced_partition_terms(u)
        for slots, c in tensor.terms.items()
    ))
