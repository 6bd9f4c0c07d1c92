"""The connected Hopf algebra of normal (Wick) products of a scalar field.

Basis monomials are commutative words in the generators ``phi^n(x)``; the
generators are *atoms*: ``phi^2(x)`` and the square ``phi(x)*phi(x)`` are
distinct monomials, because the algebra is free commutative on the
generators.  Elements are finite linear combinations of monomials with
:class:`~qftalg.scalar.PropPoly` coefficients.

Two coproducts live here:

* :func:`coproduct`, the contraction coproduct: generators split
  binomially, ``phi^n(x) -> sum_k C(n,k) phi^k(x) (x) phi^(n-k)(x)``,
  extended multiplicatively.  This is the splitting that drives Wick's
  theorem.
* :func:`coproduct_prime`, the partition coproduct: generators are
  primitive, ``g -> g (x) 1 + 1 (x) g``, extended multiplicatively, so a
  monomial splits over all subsets of its generator occurrences.  This is
  the splitting that drives connected and renormalized products.

Beside them sits :func:`coaction`, the coaction of the Hopf algebra on the
comodule coalgebra S(S(C)) of vertex words: it splits like the contraction
coproduct, but its left factor is a :class:`VertexWord` in which a vertex
whose whole power went right stays as an emptied vertex ``[1]``.  Vertex
words carry the partition coproduct (:func:`word_coproduct_prime`).

Monomials are interned: each one is built once per process and shared, so
every table keyed by monomials or by tuples of them (the memo tables here
and in :mod:`~qftalg.coqts`, the terms of an :class:`Element` or a
:class:`Tensor`) hashes and compares them by identity, in C.  The interning
table grows only with the distinct monomials a session builds, and a lock
makes sure no monomial is ever built twice, also under threads.

All values are immutable and all operations pure.  Products and antipodes
of monomials are memoised by ``functools.cache``.  The coproducts are
memoised in two dicts filled by one walk, :func:`_grown`, which also
stores each monomial it grows from: the contraction coproduct in
left-power buckets up to a cap, one table for every reader of it, and the
partition coproduct in one bucket.  Every entry is idempotent, so
concurrent use is safe.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import chain
from math import comb
from operator import itemgetter
from threading import Lock
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import NotInKernel, PowerError
from .scalar import PropPoly, _accumulate, _merge_counts, _poly_dots, _signed_join

PointId = str


class Generator(NamedTuple):
    """A Wick power ``phi^power(point)``; ``power >= 1`` always."""

    point: PointId
    power: int

    def __str__(self):
        if self.power == 1:
            return f"phi({self.point})"
        return f"phi^{self.power}({self.point})"


class Monomial:
    """A commutative word in generators: a finite multiset of Generator.

    Stored as a tuple of ``(generator, multiplicity)`` pairs sorted by
    ``(point, power)``; the empty word is the unit of the algebra.  The
    public constructor validates and sorts its input; :meth:`append`,
    :meth:`split_first`, :meth:`split_last` and ``*`` work on the sorted
    tuples directly and never re-sort.

    Monomials are interned (hash-consed): every path that builds one looks
    its factor tuple up in ``_MONOMIAL_CACHE`` and returns the one object
    stored there, so equal monomials are the identical object and compare
    and hash by identity.  A pickle or a copy rebuilds through the public
    constructor and so returns the interned object too.
    """

    __slots__ = ("factors", "total_power", "size")

    def __new__(cls, factors: Iterable[tuple[Generator, int]] = ()):
        acc: dict[Generator, int] = {}
        for gen, mult in factors:
            if type(mult) is not int:
                raise ValueError(f"multiplicities must be integers, got {mult!r}")
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            _check_generator(gen)
            if mult:
                acc[gen] = acc.get(gen, 0) + mult
        return Monomial._raw(tuple(sorted(acc.items())))

    @staticmethod
    def _raw(factors: tuple) -> "Monomial":
        # trusted constructor: factors sorted, merged and multiplicity >= 1
        out = _MONOMIAL_CACHE.get(factors)
        if out is None:
            with _MONOMIAL_LOCK:
                out = _MONOMIAL_CACHE.get(factors)
                if out is None:
                    # filled in before it is stored, so a reader that finds
                    # the object finds it whole
                    out = object.__new__(Monomial)
                    out.factors = factors
                    out.total_power = sum(g.power * m for g, m in factors)
                    out.size = sum(m for _, m in factors)
                    _MONOMIAL_CACHE[factors] = out
        return out

    def __reduce__(self):
        # rebuild through the constructor, which returns the interned object
        return Monomial, (self.factors,)

    @classmethod
    def unit(cls) -> "Monomial":
        return _UNIT

    @classmethod
    def from_occurrences(cls, gens: Iterable[Generator]) -> "Monomial":
        return cls((g, 1) for g in gens)

    @classmethod
    def of(cls, gen: Generator) -> "Monomial":
        _check_generator(gen)
        return Monomial._raw(((gen, 1),))

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def occurrences(self) -> tuple[Generator, ...]:
        """The generators expanded by multiplicity, in canonical order."""
        out = []
        for gen, mult in self.factors:
            out.extend([gen] * mult)
        return tuple(out)

    def append(self, gen: Generator) -> "Monomial":
        """The word times one more occurrence of ``gen``, inserted in order."""
        factors = self.factors
        i = bisect_left(factors, gen, key=_generator_of)
        if i < len(factors) and factors[i][0] == gen:
            factors = factors[:i] + ((gen, factors[i][1] + 1),) + factors[i + 1:]
        else:
            factors = factors[:i] + ((gen, 1),) + factors[i:]
        return Monomial._raw(factors)

    def __mul__(self, other: "Monomial") -> "Monomial":
        # the factor tuples, not the is_unit property: this is the hottest
        # call of the twisted product
        if not self.factors:
            return other
        if not other.factors:
            return self
        # interned and commutative: one cache entry per unordered pair
        if id(other) < id(self):
            return _monomial_product(other, self)
        return _monomial_product(self, other)

    def split_first(self) -> tuple[Generator, "Monomial"]:
        """Peel one occurrence of the first generator off the word."""
        (gen, mult), rest = self.factors[0], self.factors[1:]
        if mult > 1:
            rest = ((gen, mult - 1),) + rest
        return gen, Monomial._raw(rest)

    def split_last(self) -> tuple["Monomial", Generator]:
        """Peel one occurrence of the last generator off the word."""
        rest, (gen, mult) = self.factors[:-1], self.factors[-1]
        if mult > 1:
            rest = rest + ((gen, mult - 1),)
        return Monomial._raw(rest), gen

    def __lt__(self, other):
        return self.factors < other.factors

    def __str__(self):
        return "*".join(map(str, self.occurrences())) or "1"

    def __repr__(self):
        return f"Monomial({self})"

    def to_json(self):
        return [
            {"point": gen.point, "power": gen.power, "mult": mult}
            for gen, mult in self.factors
        ]


_generator_of = itemgetter(0)


def _check_generator(gen: Generator) -> None:
    # an equal float or bool power would be interned in place of the int
    # one (Generator("x", 2.0) == Generator("x", 2)) and reach every later
    # lookup of that monomial; a point that is not a str would be interned
    # as is, or fail to sort against the str points of the same monomial
    if type(gen.point) is not str:
        raise ValueError(f"generator points must be strings, got {gen.point!r}")
    if type(gen.power) is not int:
        raise ValueError(f"generator powers must be integers, got {gen.power!r}")
    if gen.power < 1:
        raise ValueError("generator powers must be >= 1")


#: factor tuple -> its one Monomial; a dict filled under a lock, so no monomial is built twice
_MONOMIAL_CACHE: dict[tuple, Monomial] = {}
_MONOMIAL_LOCK = Lock()
_UNIT = Monomial()


@cache
def _monomial_product(a: Monomial, b: Monomial) -> Monomial:
    """The product of two non-unit monomials, merged once per pair:
    ``Monomial.__mul__`` orders the pair by ``id``."""
    return Monomial._raw(_merge_counts(a.factors, b.factors))


class VertexWord(NamedTuple):
    """A word of vertices in S(S(C)) whose vertices are single generators.

    ``vertices`` holds the non-empty vertices, one per generator
    occurrence; ``emptied`` counts the vertices emptied to ``1``.  An
    emptied vertex ``[1]`` is still a vertex, unlike the unit of S(C); the
    empty word (no vertices at all) is the unit of S(S(C)).  A monomial
    embeds as ``VertexWord(mono)``: one vertex per occurrence, none emptied.
    """

    vertices: Monomial
    emptied: int = 0

    @property
    def is_unit(self) -> bool:
        return self.vertices.is_unit and not self.emptied

    def __str__(self):
        if self.is_unit:
            return "1"
        parts = [f"[{gen}]" for gen in self.vertices.occurrences()]
        parts.extend(["[1]"] * self.emptied)
        return "∨".join(parts)

    def to_json(self):
        return {"vertices": self.vertices.to_json(), "emptied": self.emptied}


_MINUS_ONE = PropPoly.constant(-1)


def _term_str(coeff: PropPoly, body: str, times: str) -> str:
    """Render ``coeff`` times a rendered basis element ``body``."""
    if coeff.is_one():
        return body
    if coeff == _MINUS_ONE:
        return "-" + body
    if len(coeff) == 1:
        return f"{coeff}{times}{body}"
    return f"({coeff}){times}{body}"


def _poly_coeffs(terms: Mapping) -> dict:
    """``terms`` without zeros, each coefficient a :class:`PropPoly`: an
    ``int`` or ``Fraction`` is read through :meth:`PropPoly.constant`."""
    out = {}
    for key, c in terms.items():
        if type(c) is not PropPoly and not isinstance(c, PropPoly):
            c = PropPoly.constant(c)
        if c:
            out[key] = c
    return out


class Element:
    """A finite PropPoly-linear combination of monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, PropPoly] | None = None):
        self.terms = _poly_coeffs(terms) if terms else {}

    @classmethod
    def _raw(cls, terms: dict) -> "Element":
        # trusted constructor: terms already zero-free
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def one(cls) -> "Element":
        return cls({_UNIT: PropPoly.one()})

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff=None) -> "Element":
        return cls({mono: PropPoly.one() if coeff is None else coeff})

    @classmethod
    def from_generator(cls, gen: Generator) -> "Element":
        return cls.from_monomial(Monomial.of(gen))

    @classmethod
    def scalar(cls, value) -> "Element":
        return cls({_UNIT: value})

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return Element._raw(_accumulate(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return Element._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Element):
            return Element._raw(_poly_dots(
                (m1 * m2, 1, c1, c2)
                for m1, c1 in self.terms.items()
                for m2, c2 in other.terms.items()
            ))
        if isinstance(other, (PropPoly, Fraction, int)):
            return _linear_sum(((other, self),))
        return NotImplemented

    __rmul__ = __mul__

    def counit(self) -> PropPoly:
        """Coefficient of the empty monomial (vacuum expectation value)."""
        return self.terms.get(_UNIT, PropPoly.zero())

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, PropPoly]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].factors)

    def __str__(self):
        return _signed_join(
            str(coeff) if mono.is_unit else _term_str(coeff, str(mono), "*")
            for mono, coeff in self.sorted_terms()
        )

    def __repr__(self):
        return f"Element({self})"

    def to_json(self):
        return [
            {"monomial": mono.to_json(), "coeff": coeff.to_json()}
            for mono, coeff in self.sorted_terms()
        ]


def _linear_sum(parts: Iterable[tuple]) -> Element:
    """``sum c * e`` over ``(c, e)`` pairs of a scalar and an element: the
    coefficients of each monomial summed by one multiply-accumulate."""
    return Element._raw(_poly_dots(
        (mono, 1, c, coeff) for c, e in parts for mono, coeff in e.terms.items()
    ))


class Tensor:
    """A finite PropPoly-linear combination of k-tuples of monomials."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple, PropPoly] | None = None):
        if arity < 1:
            raise ValueError("tensor arity must be >= 1")
        terms = terms or {}
        if any(len(slots) != arity for slots in terms):
            raise ValueError("slot tuple does not match tensor arity")
        self.arity = arity
        self.terms = _poly_coeffs(terms)

    @classmethod
    def _raw(cls, arity: int, terms: dict) -> "Tensor":
        # trusted constructor: terms already zero-free, every slot tuple of
        # length arity; only the arity itself is checked
        if arity < 1:
            raise ValueError("tensor arity must be >= 1")
        out = object.__new__(cls)
        out.arity = arity
        out.terms = terms
        return out

    @classmethod
    def from_element(cls, u: Element) -> "Tensor":
        return cls._raw(1, {(m,): c for m, c in u.terms.items()})

    def element(self) -> Element:
        if self.arity != 1:
            raise ValueError("only arity-1 tensors convert to elements")
        return Element._raw({slots[0]: c for slots, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Tensor) or other.arity != self.arity:
            return NotImplemented
        return Tensor._raw(self.arity, _accumulate(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return Tensor._raw(self.arity, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Tensor) or other.arity != self.arity:
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "Tensor":
        """``scalar`` (a rational or a PropPoly) times each coefficient, in
        one multiply-accumulate."""
        if not isinstance(scalar, (PropPoly, Fraction, int)):
            raise TypeError(f"cannot scale a tensor by {type(scalar).__name__}")
        return Tensor._raw(self.arity, _poly_dots((s, 1, scalar, c) for s, c in self.terms.items()))

    __rmul__ = scale

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def apply_to_slot(self, index: int, fn: Callable[[Monomial], Iterable]) -> "Tensor":
        """Substitute slot ``index`` by the expansion ``fn(slot)``.

        ``fn`` maps a monomial to ``(slot_tuple, c)`` pairs, ``c`` a scalar
        that multiplies the term's coefficient in one multiply-accumulate;
        the arity grows by the width of the first slot tuple ``fn`` emits
        (unchanged if it emits none).
        """
        entries = (
            (slots[:index] + tuple(new_slots) + slots[index + 1:], 1, c, coeff)
            for slots, coeff in self.terms.items()
            for new_slots, c in fn(slots[index])
        )
        first = next(entries, None)
        if first is None:
            return Tensor._raw(self.arity, {})
        return Tensor._raw(len(first[0]), _poly_dots(chain((first,), entries)))

    def counit_slot(self, index: int) -> "Tensor":
        """Apply the counit to one slot (keeps terms whose slot is 1)."""
        return Tensor._raw(self.arity - 1, {
            slots[:index] + slots[index + 1:]: coeff
            for slots, coeff in self.terms.items()
            if slots[index].is_unit
        })

    def swap(self, i: int, j: int) -> "Tensor":
        order = list(range(self.arity))
        order[i], order[j] = j, i
        return Tensor._raw(self.arity, {
            tuple(slots[k] for k in order): coeff for slots, coeff in self.terms.items()
        })

    def merge_slots(self, i: int, j: int) -> "Tensor":
        """Multiply slots ``i`` and ``j`` (normal product), dropping slot j."""
        if i == j:
            raise ValueError("cannot merge a slot with itself")

        def merged(slots):
            out = [s for k, s in enumerate(slots) if k != j]
            out[i if i < j else i - 1] = slots[i] * slots[j]
            return tuple(out)

        return Tensor._raw(self.arity - 1, _accumulate(
            (merged(slots), coeff) for slots, coeff in self.terms.items()
        ))

    def pairwise_product(self, other: "Tensor") -> "Tensor":
        """Slotwise normal product of two equal-arity tensors."""
        if self.arity != other.arity:
            raise ValueError("tensor arities differ")
        return Tensor._raw(self.arity, _poly_dots(
            (tuple(a * b for a, b in zip(s1, s2)), 1, c1, c2)
            for s1, c1 in self.terms.items()
            for s2, c2 in other.terms.items()
        ))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self):
        return _signed_join(
            _term_str(coeff, " ⊗ ".join(str(m) for m in slots), " * ")
            for slots, coeff in self.sorted_terms()
        )

    def __repr__(self):
        return f"Tensor{self.arity}({self})"

    def to_json(self):
        return [
            {"slots": [m.to_json() for m in slots], "coeff": coeff.to_json()}
            for slots, coeff in self.sorted_terms()
        ]


# ---------------------------------------------------------------------------
# operations


def normalize(raw_factors: Iterable[tuple[PointId, int]]) -> Monomial:
    """Build a canonical monomial from raw ``(point, power)`` pairs.

    Power-0 factors are the unit and are dropped; repeated generators merge
    into multiplicities.
    """
    gens = []
    for point, power in raw_factors:
        if type(power) is not int:
            raise ValueError(f"field powers must be integers, got {power!r}")
        if power < 0:
            raise PowerError(power)
        if power == 0:
            continue
        gens.append(Generator(point, power))
    return Monomial.from_occurrences(gens)


def normal_product(u: Element, v: Element) -> Element:
    """The commutative Wick product: bilinear multiset union of monomials."""
    return u * v


def counit(u: Element) -> PropPoly:
    """Vacuum expectation value: the coefficient of the empty monomial."""
    return u.counit()


_UNIT_SPLITS = (((_UNIT, _UNIT), 1),)


def _grown(
    mono: Monomial, cap: int, table: dict, split_generator: Callable[[Generator], tuple]
) -> tuple:
    """Coproduct of a basis monomial in buckets, memoised in ``table``.

    ``split_generator(g)`` gives one occurrence of ``g`` as buckets of
    ``(left, right, coefficient)`` triples (a side ``None`` is the unit).
    Bucket ``p`` of a product is the sum over ``j`` of bucket ``p - j`` of
    the rest times bucket ``j`` of the generator, equal splits merged, for
    every ``p`` up to ``cap`` and no further: a generator split into one
    bucket gives one bucket, all the splits, at cap 0.  The loop walks down
    the first generators of ``mono`` to the first rest whose entry reaches
    the cap and grows back up, storing each rest it passes and replacing a
    shorter entry; a lower cap reads a prefix.  It peels a generator with
    its whole multiplicity: ``phi(x)^n`` then stores one entry, not the
    ``n`` entries of its powers (``n^2/2`` splits).  The walk is a loop, not
    a recursion, so its depth is not the interpreter's recursion limit.
    """
    walked = []
    buckets = table.get(mono)
    while buckets is None or len(buckets) <= min(cap, mono.total_power):
        if mono.is_unit:
            buckets = (_UNIT_SPLITS,)
            break
        walked.append(mono)
        mono = Monomial._raw(mono.factors[1:])
        buckets = table.get(mono)
    for mono in reversed(walked):
        gen, mult = mono.factors[0]
        gen_buckets = split_generator(gen)
        for _ in range(mult):
            # a rest below the cap has all its buckets, so this stops at the cap or the power
            buckets = tuple(
                tuple(_accumulate(
                    ((left.append(g1) if g1 else left, right.append(g2) if g2 else right), c * k)
                    for j, gen_bucket in enumerate(gen_buckets) if 0 <= p - j < len(buckets)
                    for (left, right), c in buckets[p - j]
                    for g1, g2, k in gen_bucket
                ).items())
                for p in range(min(cap, len(buckets) + len(gen_buckets) - 2) + 1)
            )
        table[mono] = buckets
    return buckets


@cache
def _binomial_split(gen: Generator) -> tuple:
    """``phi^n(x) -> sum_k C(n,k) phi^k(x) (x) phi^(n-k)(x)``, bucket ``k``
    holding the one split of left power ``k``, made once per generator."""
    point, n = gen
    powers = [None] + [Generator(point, k) for k in range(1, n)] + [gen]
    return tuple(((powers[k], powers[n - k], comb(n, k)),) for k in range(n + 1))


def _primitive_split(gen: Generator) -> tuple:
    """``g -> g (x) 1 + 1 (x) g``, in one bucket."""
    return (((gen, None, 1), (None, gen, 1)),)


# dicts: _grown stores every rest it walks past, the contraction coproduct
# in left-power buckets up to the highest cap asked of it, the partition
# coproduct in one bucket; wickbench/tracer.py reads the length of both
_DELTA_CACHE: dict[Monomial, tuple] = {}
_DELTA_PRIME_CACHE: dict[Monomial, tuple] = {}


def _graded_coproduct(mono: Monomial, cap: int) -> tuple:
    """The contraction coproduct of a basis monomial in left-power buckets:
    bucket ``k`` holds the splits whose left side has total power ``k``,
    for every ``k`` up to ``min(cap, mono.total_power)`` and maybe beyond."""
    return _grown(mono, cap, _DELTA_CACHE, _binomial_split)


def monomial_coproduct(mono: Monomial) -> tuple:
    """Contraction coproduct of a basis monomial.

    Returns a tuple of ``((left, right), integer_coefficient)`` pairs; the
    coefficients are products of binomials, one per generator occurrence.
    """
    return tuple(chain.from_iterable(_graded_coproduct(mono, mono.total_power)))


def monomial_coproduct_prime(mono: Monomial) -> tuple:
    """Partition coproduct of a basis monomial: occurrences go left or right
    wholesale; repeated occurrences produce binomial multiplicities."""
    return _grown(mono, 0, _DELTA_PRIME_CACHE, _primitive_split)[0]


def monomial_coaction(mono: Monomial) -> tuple:
    """Coaction of a basis monomial on its vertex word.

    Returns ``((word, right), integer_coefficient)`` pairs: the splittings
    of :func:`monomial_coproduct`, with the left factor read as a vertex
    word that keeps each occurrence split off whole as an emptied vertex.
    """
    return tuple(
        ((VertexWord(left, mono.size - left.size), right), c)
        for (left, right), c in monomial_coproduct(mono)
    )


def word_coproduct_prime(word: VertexWord) -> tuple:
    """Partition coproduct of a vertex word: the non-empty vertices split
    by :func:`monomial_coproduct_prime`, the emptied ones binomially."""
    e = word.emptied
    return tuple(
        ((VertexWord(left, j), VertexWord(right, e - j)), c * comb(e, j))
        for (left, right), c in monomial_coproduct_prime(word.vertices)
        for j in range(e + 1)
    )


def _tensor_from_monomial_expansion(u: Element | Monomial, expansion) -> Tensor:
    """``expansion`` extended linearly; a monomial ``u`` reads as itself."""
    terms = u.terms.items() if isinstance(u, Element) else ((u, PropPoly.one()),)
    return Tensor._raw(2, _poly_dots(
        (pair, 1, c, coeff) for mono, coeff in terms for pair, c in expansion(mono)
    ))


def coproduct(u: Element | Monomial) -> Tensor:
    """The contraction coproduct, extended linearly and multiplicatively."""
    return _tensor_from_monomial_expansion(u, monomial_coproduct)


def coproduct_prime(u: Element | Monomial) -> Tensor:
    """The partition coproduct, extended linearly and multiplicatively."""
    return _tensor_from_monomial_expansion(u, monomial_coproduct_prime)


def coaction(u: Element | Monomial) -> Tensor:
    """The coaction on vertex words, extended linearly; slot 0 holds
    :class:`VertexWord` values, slot 1 monomials."""
    return _tensor_from_monomial_expansion(u, monomial_coaction)


def kernel_project(u: Element, strict: bool) -> Element:
    """Check membership in the counit kernel, or project into it.

    Strict mode raises :class:`NotInKernel` on elements with nonzero
    counit; lenient mode subtracts the scalar part.
    """
    eps = u.counit()
    if not eps:
        return u
    if strict:
        raise NotInKernel(eps)
    return u - Element.scalar(eps)


def monomial_reduced_prime(mono: Monomial) -> tuple:
    """Partition coproduct with the two trivial splits removed (mono != 1)."""
    return tuple(
        (pair, c) for pair, c in monomial_coproduct_prime(mono)
        if not pair[0].is_unit and not pair[1].is_unit
    )


def monomial_reduced(mono: Monomial) -> tuple:
    """Contraction coproduct with the two trivial splits removed (mono != 1):
    left power 0 has left side 1, and the whole power right side 1."""
    return tuple(chain.from_iterable(_graded_coproduct(mono, mono.total_power)[1:-1]))


def reduced_prime(u: Element, strict: bool = True) -> Tensor:
    """The reduced partition coproduct on the counit kernel."""
    u = kernel_project(u, strict)
    return _tensor_from_monomial_expansion(u, monomial_reduced_prime)


def reduced_prime_iter(u: Element, n: int, strict: bool = True) -> Tensor:
    """The n-th iterate of the reduced partition coproduct (arity n+1).

    The recursion applies the reduced coproduct to the first slot each
    round; every slot stays a nonempty monomial, so the iterate vanishes
    once n reaches the occurrence count of the largest monomial.  The
    rounds stop there: the result is then the zero tensor of arity n+1.
    """
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    out = Tensor.from_element(kernel_project(u, strict))
    for _ in range(n):
        out = out.apply_to_slot(0, monomial_reduced_prime)
        if not out:
            return Tensor._raw(n + 1, {})
    return out


@cache
def _antipode_monomial(mono: Monomial) -> Element:
    """The antipode of a basis monomial.

    S(C) is commutative, so its antipode is an algebra map (Sweedler,
    *Hopf Algebras*, 1969, ch. 4): a word is the product of the antipodes
    of its generator occurrences.  A generator takes the recursion
    ``S(g) = -g - sum c S(left) right`` over its reduced contraction
    coproduct, whose left sides are generators of lower power.
    """
    if mono.is_unit:
        return Element.one()
    if mono.size > 1:
        g, rest = mono.split_first()
        return _antipode_monomial(Monomial.of(g)) * _antipode_monomial(rest)
    return Element._raw(_poly_dots(chain(((mono, 1, 1, _MINUS_ONE),), (
        (m * right, -c, 1, d)
        for (left, right), c in monomial_reduced(mono)
        for m, d in _antipode_monomial(left).terms.items()
    ))))


def antipode(u: Element) -> Element:
    """The antipode of the connected Hopf algebra, extended linearly."""
    return _linear_sum((coeff, _antipode_monomial(mono)) for mono, coeff in u.terms.items())
