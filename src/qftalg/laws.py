"""Executable checkers for the structural identities of the algebra.

A law is its named sides plus one loop.  Each checker is a ``sides``
generator that yields ``(label, lhs, rhs)`` for one instance, lazily, and
one call of :func:`_report`, the loop that walks a finite element family
(exhaustive small monomials over a three-point alphabet plus seeded random
linear combinations), counts each instance, collects every pair of sides
that differ and then builds one :class:`LawReport`, a NamedTuple like
every record here; an empty failure list is a pass.  Reports are
deterministic for a fixed seed.

The ``coproduct_fn`` hooks exist for mutation testing only: passing a
deliberately corrupted coproduct must make the checkers fail, guarding
against vacuously green laws.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .hopf import (
    Element,
    Generator,
    Monomial,
    Tensor,
    VertexWord,
    _linear_sum,
    antipode,
    coaction,
    coproduct,
    coproduct_prime,
    monomial_coproduct_prime,
    word_coproduct_prime,
)
from .scalar import PropPoly

DEFAULT_POINTS = ("x1", "x2", "x3")
DEFAULT_RANDOM_COUNT = 100


class LawFailure(NamedTuple):
    """One violated instance: the inputs and both evaluated sides."""

    law: str
    inputs: tuple
    lhs: object
    rhs: object

    def to_json(self):
        return {
            "law": self.law,
            "inputs": [u.to_json() for u in self.inputs],
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }


class LawReport(NamedTuple):
    """One law over one family: instances checked and every failure."""

    law: str
    checked: int
    failures: list[LawFailure]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self):
        return {
            "law": self.law,
            "checked": self.checked,
            "failures": [f.to_json() for f in self.failures],
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.law}: checked {self.checked}, failures {len(self.failures)}: {status}"


class ElementFamily(NamedTuple):
    name: str
    members: tuple[Element, ...]


def exhaustive_monomials(
    max_generators: int = 3,
    max_power: int = 3,
    points: Sequence[str] = DEFAULT_POINTS,
    include_unit: bool = True,
) -> list[Element]:
    """Every monomial with at most ``max_generators`` occurrences of powers
    up to ``max_power`` over the given points, as elements."""
    gens = [Generator(p, n) for p in points for n in range(1, max_power + 1)]
    out = [Element.one()] if include_unit else []
    for size in range(1, max_generators + 1):
        for combo in itertools.combinations_with_replacement(gens, size):
            out.append(Element.from_monomial(Monomial.from_occurrences(combo)))
    return out


def random_elements(
    seed: int,
    count: int = DEFAULT_RANDOM_COUNT,
    max_generators: int = 3,
    max_power: int = 3,
    points: Sequence[str] = DEFAULT_POINTS,
    max_terms: int = 3,
) -> list[Element]:
    """Seeded random linear combinations with small rational coefficients
    and propagator-free weights."""
    rng = random.Random(seed)
    gens = [Generator(p, n) for p in points for n in range(1, max_power + 1)]
    out = []
    while len(out) < count:
        elem = Element.zero()
        for _ in range(rng.randint(1, max_terms)):
            size = rng.randint(0, max_generators)
            mono = Monomial.from_occurrences(rng.choices(gens, k=size))
            num = rng.choice([-3, -2, -1, 1, 2, 3])
            den = rng.randint(1, 3)
            elem = elem + PropPoly.constant(Fraction(num, den)) * Element.from_monomial(mono)
        if elem:  # coefficients can cancel; keep drawing until nonzero
            out.append(elem)
    return out


def default_family(seed: int = 0, random_count: int = DEFAULT_RANDOM_COUNT) -> ElementFamily:
    members = exhaustive_monomials() + random_elements(seed, random_count)
    return ElementFamily("monomials(p<=3,n<=3) + random", tuple(members))


def bialgebra_family(seed: int = 0, random_count: int = DEFAULT_RANDOM_COUNT) -> ElementFamily:
    members = exhaustive_monomials(max_generators=2) + random_elements(
        seed, random_count, max_generators=2, max_terms=2
    )
    return ElementFamily("monomials(p<=2,n<=3) + random", tuple(members))


def comodule_family(seed: int = 0, random_count: int = DEFAULT_RANDOM_COUNT) -> ElementFamily:
    members = exhaustive_monomials(max_power=2) + random_elements(
        seed, random_count, max_power=2, max_terms=2
    )
    return ElementFamily("monomials(p<=3,n<=2) + random", tuple(members))


_COPRODUCTS: dict[str, Callable[[Element], Tensor]] = {
    "delta": coproduct,
    "delta-prime": coproduct_prime,
}


def _report(law: str, instances, sides) -> LawReport:
    """The one law loop: count each tuple of inputs in ``instances`` (the
    1-tuples of ``zip(members)`` or the pairs of ``itertools.product``) and
    record, in yield order, every ``(label, lhs, rhs)`` that
    ``sides(*inputs)`` yields with ``lhs != rhs``."""
    checked = 0
    failures = []
    for inputs in instances:
        checked += 1
        failures.extend(
            LawFailure(label, inputs, lhs, rhs)
            for label, lhs, rhs in sides(*inputs)
            if lhs != rhs
        )
    return LawReport(law, checked, failures)


def check_coalgebra(
    which: str,
    family: ElementFamily,
    coproduct_fn: Callable[[Element], Tensor] | None = None,
) -> LawReport:
    """Coassociativity, both counit laws, and cocommutativity of one
    coproduct over the family.  ``coproduct_fn`` is a mutation-testing hook."""
    if which not in _COPRODUCTS:
        raise ValueError(f"unknown coproduct {which!r}; use 'delta' or 'delta-prime'")
    split = coproduct_fn if coproduct_fn is not None else _COPRODUCTS[which]

    def expand(mono: Monomial):
        return split(Element.from_monomial(mono)).terms.items()

    def sides(u):
        two = split(u)
        yield "coassociativity", two.apply_to_slot(0, expand), two.apply_to_slot(1, expand)
        yield "left counit law", two.counit_slot(0).element(), u
        yield "right counit law", two.counit_slot(1).element(), u
        yield "cocommutativity", two.swap(0, 1), two

    return _report(f"coalgebra({which})", zip(family.members), sides)


def check_bialgebra(
    family: ElementFamily,
    coproduct_fn: Callable[[Element], Tensor] | None = None,
) -> LawReport:
    """Both algebra-morphism laws on every ordered pair from the family."""
    split = coproduct_fn if coproduct_fn is not None else coproduct

    def sides(u, v):
        product = u * v
        yield "coproduct morphism", split(product), split(u).pairwise_product(split(v))
        yield "counit morphism", product.counit(), u.counit() * v.counit()

    return _report("bialgebra", itertools.product(family.members, repeat=2), sides)


def check_comodule_coalgebra(
    family: ElementFamily,
    coproduct_fn: Callable[[Element], Tensor] | None = None,
) -> LawReport:
    """The comodule-coalgebra law of the vertex words S(S(C)) over the Hopf
    algebra, both sides evaluated literally:

        (Delta' (x) Id) beta  =  (Id (x) Id (x) mul)(Id (x) swap (x) Id)(beta (x) beta) Delta'

    with ``beta`` the :func:`~qftalg.hopf.coaction` and ``Delta'`` the
    partition coproduct, on vertex words for the left side and on
    monomials for the right.  The law holds on every element; the exact
    discrepancy per failing instance is recorded.  ``coproduct_fn``
    replaces ``beta``; passing the contraction coproduct, whose left
    factors are monomials that have dropped their emptied vertices, makes
    the law fail on every non-unit element.
    """
    beta = coproduct_fn if coproduct_fn is not None else coaction

    def expand_beta(mono: Monomial):
        return beta(Element.from_monomial(mono)).terms.items()

    def split_left(word):
        if isinstance(word, VertexWord):
            return word_coproduct_prime(word)
        return monomial_coproduct_prime(word)

    def sides(u):
        yield (
            "comodule compatibility",
            beta(u).apply_to_slot(0, split_left),
            coproduct_prime(u)
            .apply_to_slot(0, expand_beta)
            .apply_to_slot(2, expand_beta)
            .swap(1, 2)
            .merge_slots(2, 3),
        )

    return _report("comodule-coalgebra", zip(family.members), sides)


def check_antipode(
    family: ElementFamily,
    coproduct_fn: Callable[[Element], Tensor] | None = None,
) -> LawReport:
    """The Hopf axiom ``mul(S (x) Id)Delta u = counit(u) 1 = mul(Id (x) S)Delta u``."""
    split = coproduct_fn if coproduct_fn is not None else coproduct

    def sides(u):
        expected = Element.scalar(u.counit())
        pairs = [
            (coeff, Element.from_monomial(a), Element.from_monomial(b))
            for (a, b), coeff in split(u).terms.items()
        ]
        yield "antipode (S x Id)", _linear_sum((c, antipode(a) * b) for c, a, b in pairs), expected
        yield "antipode (Id x S)", _linear_sum((c, a * antipode(b)) for c, a, b in pairs), expected

    return _report("antipode", zip(family.members), sides)


def mutated_coproduct(u: Element) -> Tensor:
    """Deliberately corrupted coproduct for detector-sensitivity tests:
    drops the ``1 (x) u`` part of every non-unit monomial's splitting."""
    unit = Monomial.unit()
    return coproduct(u) - Tensor(
        2, {(unit, mono): coeff for mono, coeff in u.terms.items() if not mono.is_unit}
    )


def _coalgebra_laws(seed: int, count: int) -> list[LawReport]:
    family = default_family(seed, count)
    return [check_coalgebra(which, family) for which in _COPRODUCTS]


# law name -> its reports for a seed and a random count, in the order
# ``check --law all`` runs them.  Each entry looks its checker up by name
# when it runs, so a patched or wrapped module attribute takes effect.
LAWS: dict[str, Callable[[int, int], list[LawReport]]] = {
    "coalgebra": _coalgebra_laws,
    "bialgebra": lambda seed, count: [check_bialgebra(bialgebra_family(seed, count))],
    "comodule": lambda seed, count: [check_comodule_coalgebra(comodule_family(seed, count))],
    "antipode": lambda seed, count: [check_antipode(default_family(seed, count))],
}


def run_all_checks(seed: int = 0, random_count: int = DEFAULT_RANDOM_COUNT) -> list[LawReport]:
    """The full default suite, in the order of :data:`LAWS`."""
    return [report for run in LAWS.values() for report in run(seed, random_count)]
