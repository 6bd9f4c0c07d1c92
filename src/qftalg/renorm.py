"""Connected and renormalized chronological products.

Both products are finite sums over the set partitions ``pi`` of the
generator occurrences of a monomial ``m``, each block ``B`` read as the
sub-monomial ``m_B``:

* connected:     ``T_c(m) = sum_pi (-1)^(k-1) (k-1)!  T(m_B1)...T(m_Bk)``
* renormalized:  ``T_R(m) = T(sum_pi O(m_B1)...O(m_Bk))``

where ``k`` is the number of blocks of ``pi`` and ``O`` is a pluggable
generalized vertex (a linear map from the algebra into the span of single
generators).  ``T_c`` is the logarithm of ``T`` over the partition lattice,
whose Moebius function gives its weights (Rota, "On the foundations of
combinatorial theory I", 1964), and ``T_R = T o O^`` is ``T`` after the
exponential ``O^`` of ``O``.  Neither sum is formed partition by
partition: grouping the partitions by the block ``g L`` of the first
occurrence ``g`` of ``m = g rest`` gives, over the splits ``(L, R)`` of
the partition coproduct of ``rest``, one first-block recursion
``F(m) = head(m) + sign sum_{R != 1} c block(g L) tail(R)``, one product
per split (:func:`_first_block_map`).  ``T_c`` is ``(T, T_c, T, -1)``, the
moment-cumulant recursion (Rota and Shen, "On the combinatorics of
cumulants", J. Combin. Theory A 91, 2000), and ``O^`` is
``(O, O, O^, +1)`` (Brouder, Fauser, Frabetti and Oeckl, hep-th/0311253).
Products between the ``T(...)`` factors are normal products.
The scalar part ``t_c(m)`` has one route, the sum over the connected
Feynman graphs of ``m`` (:func:`~qftalg.graphs.t_connected_via_graphs`);
the counit of ``T_c`` is its independent check.

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
from functools import cache
from itertools import chain
from typing import Mapping

from .coqts import _expansion_identity, chronological
from .expr import _POINT_RE
from .graphs import t_connected_via_graphs
from .hopf import (
    Element,
    Generator,
    Monomial,
    _linear_sum,
    kernel_project,
    monomial_coaction,
    monomial_coproduct_prime,
    Tensor,
    VertexWord,
)
from .scalar import PropPoly, _accumulate, _poly_dot, _poly_dots, parse_frac


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

        Malformed tables raise :class:`ValueError`: a top level or a
        ``from``/``to`` list that is not an array of objects, a missing
        field, a point or a coefficient that is not a string, a point that
        the expression grammar's ``point`` rule rejects, a power that is not
        an integer >= 1, a multiplicity that is not an integer >= 0, a
        ``from`` that is the unit monomial (no block of a set partition is,
        so the rule could never apply), a coefficient that does not read
        ``p/q`` or an integer, a zero denominator.
        """
        rules: dict[Monomial, Element] = {}
        for entry in _objects(json.loads(text), "vertex file"):
            source = Monomial(
                (Generator(_point_field(f, "from"), _int_field(f, "power", 1, "from")),
                 _int_field(f, "mult", 0, "from"))
                for f in _objects(_field(entry, "from", "vertex file"), "from")
            )
            image = _linear_sum(
                (
                    PropPoly.constant(parse_frac(_str_field(t, "coeff", "to"))),
                    Element.from_generator(
                        Generator(_point_field(t, "to"), _int_field(t, "power", 1, "to"))
                    ),
                )
                for t in _objects(_field(entry, "to", "vertex file"), "to")
            )
            if source.is_unit:
                raise ValueError('"from" must hold a generator with mult >= 1')
            if source in rules:
                raise ValueError(f"duplicate vertex rule for {source}")
            rules[source] = image
        return cls(rules)


def _objects(value, what: str) -> list:
    """``value`` itself if it is a JSON array of objects; else ValueError."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ValueError(f"{what} must be an array of objects")
    return value


def _field(obj: dict, key: str, where: str):
    """``obj[key]``; a ValueError naming the field and its list if absent."""
    if key not in obj:
        raise ValueError(f'missing "{key}" in {where}')
    return obj[key]


def _int_field(obj: dict, key: str, low: int, where: str) -> int:
    """``obj[key]`` if it is an integer ``>= low``; else ValueError."""
    value = _field(obj, key, where)
    if type(value) is not int or value < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def _str_field(obj: dict, key: str, where: str) -> str:
    """``obj[key]`` if it is a string; else ValueError."""
    value = _field(obj, key, where)
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _point_field(obj: dict, where: str) -> str:
    """``obj["point"]`` if it is a label the expression parser reads back;
    else ValueError."""
    value = _str_field(obj, "point", where)
    if not _POINT_RE.fullmatch(value):
        raise ValueError(f"point must match {_POINT_RE.pattern}, got {value!r}")
    return value


def identity_vertex() -> Vertex:
    """Maps each single-generator monomial to itself, everything else to 0."""
    return Vertex(identity=True)


def zero_vertex() -> Vertex:
    """Maps everything to 0."""
    return Vertex()


@cache
def _partitions(mono: Monomial) -> dict:
    """The set partitions of the occurrences of ``mono``: a dict from each
    sorted tuple of block monomials to the number of labelled partitions
    that give it.  The block of the first occurrence ``g`` is ``g`` times
    the left side of each partition-coproduct split of the rest, whose
    coefficient counts the labelled choices; the right side is partitioned
    in turn.  The dict is cached: callers read it and never change it.

    Only :func:`_reduced_partition_terms` calls this, and nothing in
    qftalg calls that: ``wickbench/tracer.py`` is their only reader, and
    it wraps the latter by name.  Both are deleted once the benchmark
    stops wrapping library functions by name (ROADMAP item 1)."""
    if mono.is_unit:
        return {(): 1}
    g, rest = mono.split_first()
    return _accumulate(
        (tuple(sorted(blocks + (left.append(g),))), c * n)
        for (left, right), c in monomial_coproduct_prime(rest)
        for blocks, n in _partitions(right).items()
    )


def _reduced_partition_terms(u: Element):
    """Yield ``(k, tensor)`` for each block count k, in increasing order:
    the k-slot tensor of the set partitions of the monomials of ``u`` into
    k blocks, each weighted by its coefficient in ``u`` times its
    labelled count.  Kept only for ``wickbench/tracer.py``, which wraps it
    by name (see :func:`_partitions`)."""
    by_count: dict[int, list] = {}
    for mono, coeff in u.terms.items():
        for blocks, n in _partitions(mono).items():
            by_count.setdefault(len(blocks), []).append((blocks, n, 1, coeff))
    for k in sorted(by_count):
        yield k, Tensor._raw(k, _poly_dots(by_count[k]))


def _first_block_map(head, block, tail, sign: int):
    """The memoised map ``F(m) = head(m) + sign sum_{R != 1} c block(g L) tail(R)``
    over the splits ``(L, R)`` of the partition coproduct of ``rest``, for
    ``m = g * rest``, ``g`` its first occurrence; a ``block`` or ``tail``
    of ``None`` is ``F`` itself.  ``head`` is the term ``R = 1`` of a sum
    over every split.  Each monomial is computed once per map, and ``tail``
    is read only where ``block`` is not zero."""
    memo: dict[Monomial, Element] = {}

    def first_block(mono: Monomial) -> Element:
        out = memo.get(mono)
        if out is None:
            g, rest = mono.split_first()
            out = memo[mono] = Element._raw(_poly_dots(chain(
                ((m, 1, 1, coeff) for m, coeff in head(mono).terms.items()),
                (
                    (m1 * m2, sign * c, c1, c2)
                    for (left, right), c in monomial_coproduct_prime(rest)
                    if not right.is_unit
                    for m1, c1 in block(left.append(g)).terms.items()
                    for m2, c2 in tail(right).terms.items()
                ),
            )))
        return out

    block, tail = block or first_block, tail or first_block
    return first_block


def connected_T(u: Element, strict: bool = True) -> Element:
    """The connected chronological product on the counit kernel.

    On ``m = g * rest``, the block of ``g`` in a set partition is ``g * L``
    for a split ``(L, R)`` of ``rest``, so ``T(m) = sum c T_c(g L) T(R)``,
    whose term ``R = 1`` is ``T_c(m)``: ``T_c`` is the first-block map
    ``(T, T_c, T, -1)``.
    """
    connected_monomial = _first_block_map(chronological, None, chronological, -1)
    u = kernel_project(u, strict)
    return _linear_sum((coeff, connected_monomial(mono)) for mono, coeff in u.terms.items())


def t_c_functional(u: Element | Monomial, strict: bool = True) -> PropPoly:
    """Vacuum expectation of the connected product, extended linearly: the
    connected-graph sum on each monomial."""
    if isinstance(u, Monomial):
        return t_connected_via_graphs(u)
    u = kernel_project(u, strict)
    return _poly_dot((coeff, t_connected_via_graphs(mono)) for mono, coeff in u.terms.items())


@cache
def _t_c_word(word: VertexWord) -> PropPoly:
    """Connected scalar functional on a vertex word: ``t_c`` of the monomial
    without emptied vertices, ``1`` on the one-vertex word ``[1]``, and 0
    on every other word holding an emptied vertex.  Cached: the connected
    expansion reads the same sub-monomials many times."""
    if not word.emptied:
        return t_connected_via_graphs(word.vertices)
    if word.emptied == 1 and word.vertices.is_unit:
        return PropPoly.one()
    return PropPoly.zero()


def comodule_expansion_check(u: Element, strict: bool = True) -> Element:
    """Check ``T_c(u) = sum t_c(u') u''`` over the coaction on vertex words.

    ``strict`` only chooses how ``u`` reaches the counit kernel, as in
    :func:`connected_T`.  Returns the common value when the identity
    holds; any mismatch raises :class:`~qftalg.errors.IdentityViolation`
    with both sides.  The identity holds on the whole counit kernel; a
    mismatch means a coaction or a ``t_c`` that is wrong, such as one that
    reads ``u'`` as a Wick monomial and so drops emptied vertices (see the
    module docstring).
    """
    u = kernel_project(u, strict)
    return _expansion_identity(
        connected_T(u), u, monomial_coaction, _t_c_word, "T_c(u) != sum t_c(u')u''"
    )


def renormalized_T(u: Element, vertex: Vertex, strict: bool = True) -> Element:
    """The renormalized chronological product with generalized vertex ``O``.

    ``T_R = T o O^``: ``T``, which is linear, applied once to ``O^``, the sum
    over the set partitions of each monomial of the products of the vertex
    images of the blocks.  On ``m = g * rest``, grouped by the block
    ``g * L`` of ``g``, ``O^(m) = sum c O(g L) O^(R)`` over the splits
    ``(L, R)`` of ``rest``, whose term ``R = 1`` is ``O(m)``: ``O^`` is the
    first-block map ``(O, O, O^, +1)``.
    """
    vertex_exponential = _first_block_map(vertex.image, vertex.image, None, 1)
    u = kernel_project(u, strict)
    return chronological(
        _linear_sum((coeff, vertex_exponential(mono)) for mono, coeff in u.terms.items())
    )
