import copy
import itertools
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import qftalg
from qftalg import hopf
from qftalg.errors import NotInKernel, PowerError
from qftalg.expr import parse
from qftalg.hopf import (
    Element,
    Generator,
    Monomial,
    Tensor,
    VertexWord,
    antipode,
    coaction,
    coproduct,
    coproduct_prime,
    counit,
    monomial_coproduct,
    monomial_coproduct_prime,
    normal_product,
    normalize,
    reduced_prime,
    reduced_prime_iter,
    word_coproduct_prime,
)
from qftalg.laws import default_family, exhaustive_monomials
from qftalg.scalar import D, PropPoly

from qft_oracles import (
    antipode_recursion,
    delta_closed_form,
    delta_prime_subsets,
    mono,
    phi,
    split_by_occurrence,
)


def t2(*entries) -> Tensor:
    return Tensor(2, {(a, b): PropPoly.constant(c) for a, b, c in entries})


UNIT = Monomial.unit()


class TestNormalize:
    def test_power_zero_is_unit(self):
        assert normalize([("x", 0)]) == UNIT

    def test_merge_multiplicity(self):
        m = normalize([("x", 2), ("x", 2)])
        assert m.factors == ((Generator("x", 2), 2),)

    def test_sorted_canonical(self):
        m = normalize([("y", 1), ("x", 3)])
        assert m == mono(("x", 3), ("y", 1))
        assert [g.point for g, _ in m.factors] == ["x", "y"]

    def test_negative_power_rejected(self):
        with pytest.raises(PowerError):
            normalize([("x", -1)])

    def test_idempotent(self):
        m = normalize([("x", 2), ("y", 1), ("x", 0)])
        assert normalize([(g.point, g.power) for g in m.occurrences()]) == m


class TestNormalProduct:
    def test_unit(self):
        u = phi("x", 2)
        assert normal_product(Element.one(), u) == u

    def test_free_commutative_square_is_not_power(self):
        sq = normal_product(phi("x"), phi("x"))
        assert sq == Element.from_monomial(mono(("x", 1), ("x", 1)))
        assert sq != phi("x", 2)

    def test_basis_monomials(self):
        prod = normal_product(phi("x1", 2), phi("x2", 2))
        assert prod == Element.from_monomial(mono(("x1", 2), ("x2", 2)))

    def test_commutative_associative(self):
        u, v, w = phi("x"), phi("y", 2), phi("z", 3)
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)


class TestCounit:
    def test_unit(self):
        assert counit(Element.one()) == PropPoly.one()

    def test_generator(self):
        assert counit(phi("x", 2)) == PropPoly.zero()

    def test_linearity(self):
        u = Element.scalar(5) + 3 * (phi("x") * phi("y"))
        assert counit(u) == PropPoly.constant(5)


class TestCoproduct:
    def test_unit(self):
        assert coproduct(Element.one()) == t2((UNIT, UNIT, 1))

    def test_generator_binomial(self):
        m = mono(("x", 2))
        expected = t2(
            (m, UNIT, 1),
            (mono(("x", 1)), mono(("x", 1)), 2),
            (UNIT, m, 1),
        )
        assert coproduct(phi("x", 2)) == expected

    def test_two_point_product(self):
        u = phi("x1") * phi("x2")
        m = mono(("x1", 1), ("x2", 1))
        expected = t2(
            (m, UNIT, 1),
            (mono(("x1", 1)), mono(("x2", 1)), 1),
            (mono(("x2", 1)), mono(("x1", 1)), 1),
            (UNIT, m, 1),
        )
        assert coproduct(u) == expected

    def test_against_closed_form(self):
        gens = [("x", 1), ("x", 2), ("y", 3), ("y", 1)]
        for size in range(4):
            for combo in itertools.combinations_with_replacement(gens, size):
                m = mono(*combo)
                assert coproduct(Element.from_monomial(m)) == delta_closed_form(m)


class TestCoproductPrime:
    def test_generator_primitive(self):
        m = mono(("x", 3))
        assert coproduct_prime(phi("x", 3)) == t2((m, UNIT, 1), (UNIT, m, 1))

    def test_two_generators_four_terms(self):
        u = phi("x1", 2) * phi("x2", 3)
        m = mono(("x1", 2), ("x2", 3))
        expected = t2(
            (m, UNIT, 1),
            (UNIT, m, 1),
            (mono(("x1", 2)), mono(("x2", 3)), 1),
            (mono(("x2", 3)), mono(("x1", 2)), 1),
        )
        assert coproduct_prime(u) == expected

    def test_repeated_generator_binomial(self):
        u = phi("x") * phi("x")
        m = mono(("x", 1), ("x", 1))
        expected = t2(
            (m, UNIT, 1),
            (mono(("x", 1)), mono(("x", 1)), 2),
            (UNIT, m, 1),
        )
        assert coproduct_prime(u) == expected

    def test_against_subset_expansion(self):
        gens = [("x", 1), ("x", 2), ("y", 1)]
        for size in range(4):
            for combo in itertools.combinations_with_replacement(gens, size):
                m = mono(*combo)
                assert coproduct_prime(Element.from_monomial(m)) == delta_prime_subsets(m)


class TestCoaction:
    def test_generator_keeps_emptied_vertex(self):
        m = mono(("x", 1))
        expected = t2((VertexWord(UNIT, 1), m, 1), (VertexWord(m), UNIT, 1))
        assert coaction(phi("x")) == expected
        assert str(coaction(phi("x"))) == "[1] ⊗ phi(x) + [phi(x)] ⊗ 1"

    def test_square_splits_like_contraction_coproduct(self):
        m = mono(("x", 2))
        expected = t2(
            (VertexWord(UNIT, 1), m, 1),
            (VertexWord(mono(("x", 1))), mono(("x", 1)), 2),
            (VertexWord(m), UNIT, 1),
        )
        assert coaction(phi("x", 2)) == expected

    def test_right_counit_gives_embedding(self):
        gens = [("x", 1), ("x", 2), ("y", 1)]
        for size in range(4):
            for combo in itertools.combinations_with_replacement(gens, size):
                m = mono(*combo)
                got = coaction(m).counit_slot(1)
                assert got == Tensor(1, {(VertexWord(m),): PropPoly.one()})

    def test_word_coproduct_splits_emptied_binomially(self):
        x = mono(("x", 1))
        word = VertexWord(x, 2)
        got = Tensor(2, {k: PropPoly.constant(c) for k, c in word_coproduct_prime(word)})
        expected = {}
        for left, right in ((x, UNIT), (UNIT, x)):
            for j, c in ((0, 1), (1, 2), (2, 1)):
                expected[(VertexWord(left, j), VertexWord(right, 2 - j))] = c
        assert got == t2(*((a, b, c) for (a, b), c in expected.items()))


class TestReducedPrime:
    def test_generator_vanishes(self):
        assert not reduced_prime(phi("x", 3))

    def test_two_points(self):
        u = phi("x1") * phi("x2")
        expected = t2(
            (mono(("x1", 1)), mono(("x2", 1)), 1),
            (mono(("x2", 1)), mono(("x1", 1)), 1),
        )
        assert reduced_prime(u) == expected

    def test_two_squares(self):
        u = phi("x1", 2) * phi("x2", 2)
        expected = t2(
            (mono(("x1", 2)), mono(("x2", 2)), 1),
            (mono(("x2", 2)), mono(("x1", 2)), 1),
        )
        assert reduced_prime(u) == expected

    def test_strict_kernel_enforcement(self):
        with pytest.raises(NotInKernel):
            reduced_prime(Element.one() + phi("x"))

    def test_lenient_projects(self):
        u = Element.one() + phi("x1") * phi("x2")
        assert reduced_prime(u, strict=False) == reduced_prime(phi("x1") * phi("x2"))


class TestReducedPrimeIter:
    def test_zeroth_is_identity(self):
        u = phi("x1") * phi("x2")
        assert reduced_prime_iter(u, 0) == Tensor.from_element(u)

    def test_all_orderings_of_three(self):
        u = phi("x1") * phi("x2") * phi("x3")
        result = reduced_prime_iter(u, 2)
        expected = {}
        for perm in itertools.permutations(["x1", "x2", "x3"]):
            expected[tuple(mono((p, 1)) for p in perm)] = PropPoly.one()
        assert result == Tensor(3, expected)

    def test_vanishes_at_occurrence_count(self):
        for gens in [
            [("x", 1)],
            [("x", 1), ("y", 2)],
            [("x", 1), ("x", 1), ("y", 3)],
            [("x", 2), ("y", 1), ("z", 1), ("z", 2)],
        ]:
            u = Element.from_monomial(mono(*gens))
            p = len(gens)
            assert not reduced_prime_iter(u, p)
            if p > 1:
                assert reduced_prime_iter(u, p - 1)

    def test_vanished_iterate_keeps_arity_n_plus_one(self):
        u = phi("x") * phi("y")
        result = reduced_prime_iter(u, 3)
        assert result.arity == 4
        assert result == Tensor(4, {})
        assert reduced_prime_iter(Element.zero(), 2) == Tensor(3, {})

    def test_rounds_stop_once_the_iterate_vanishes(self, monkeypatch):
        rounds = []
        apply = Tensor.apply_to_slot

        def counted(tensor, index, fn):
            rounds.append(index)
            return apply(tensor, index, fn)

        monkeypatch.setattr(Tensor, "apply_to_slot", counted)
        result = reduced_prime_iter(phi("x"), 10**6)
        assert (result.arity, result.terms) == (10**6 + 1, {})
        assert len(rounds) == 1
        rounds.clear()
        assert reduced_prime_iter(phi("x") * phi("y"), 3) == Tensor(4, {})
        assert len(rounds) == 2


class TestAntipode:
    def test_unit(self):
        assert antipode(Element.one()) == Element.one()

    def test_primitive_negated(self):
        assert antipode(phi("x")) == -phi("x")

    def test_square_generator(self):
        expected = 2 * Element.from_monomial(mono(("x", 1), ("x", 1))) - phi("x", 2)
        assert antipode(phi("x", 2)) == expected

    def test_cube_generator(self):
        # the signed compositions of 3: (3), (1,2), (2,1) and (1,1,1)
        x = phi("x")
        assert antipode(phi("x", 3)) == -phi("x", 3) + 6 * x * phi("x", 2) - 6 * x * x * x

    def test_matches_the_whole_monomial_recursion(self):
        # the algebra-map antipode against the defining recursion on the
        # whole monomial, on every member of the antipode law's family
        memo = {}
        for u in default_family(seed=3, random_count=4).members:
            expected = Element.zero()
            for m, coeff in u.terms.items():
                expected = expected + coeff * antipode_recursion(m, memo)
            assert antipode(u) == expected, str(u)

    def test_rational_coefficients_against_sum_of_monomial_antipodes(self):
        # S(u) = sum q S(m), summed term by term; the phi(x)*phi(x) terms
        # of S(phi^2(x)) and S(phi(x)*phi(x)) cancel
        xx = mono(("x", 1), ("x", 1))
        u = Element({
            Monomial.of(Generator("x", 2)): PropPoly.constant(Fraction(1, 3)),
            xx: PropPoly.constant(Fraction(-2, 3)),
            mono(("x", 1), ("y", 2)): Fraction(5, 4) * PropPoly.symbol(D("x", "y")),
        })
        expected = {}
        for m, q in u.terms.items():
            for m2, s in antipode(Element.from_monomial(m)).terms.items():
                expected[m2] = expected.get(m2, PropPoly.zero()) + q * s
        got = antipode(u)
        assert got == Element(expected)
        assert xx not in got.terms
        assert all(got.terms.values())

    def test_hopf_axiom_small(self):
        for gens in [[("x", 2)], [("x", 1), ("y", 1)], [("x", 2), ("y", 3)], [("x", 1), ("x", 1)]]:
            u = Element.from_monomial(mono(*gens))
            two = coproduct(u)
            left = Element.zero()
            for (a, b), c in two.terms.items():
                left = left + c * (antipode(Element.from_monomial(a)) * Element.from_monomial(b))
            assert left == Element.scalar(counit(u))


class TestCoalgebraLawsSampled:
    families = [
        mono(("x", 1)),
        mono(("x", 3)),
        mono(("x", 2), ("y", 1)),
        mono(("x", 1), ("x", 1), ("y", 2)),
        mono(("x", 2), ("y", 2), ("z", 3)),
    ]

    def expand(self, which, m):
        fn = coproduct if which == "delta" else coproduct_prime
        return fn(Element.from_monomial(m)).terms.items()

    @pytest.mark.parametrize("which", ["delta", "delta-prime"])
    def test_coassociativity(self, which):
        fn = coproduct if which == "delta" else coproduct_prime
        for m in self.families:
            two = fn(Element.from_monomial(m))
            left = two.apply_to_slot(0, lambda s: self.expand(which, s))
            right = two.apply_to_slot(1, lambda s: self.expand(which, s))
            assert left == right

    @pytest.mark.parametrize("which", ["delta", "delta-prime"])
    def test_counit_laws_and_cocommutativity(self, which):
        fn = coproduct if which == "delta" else coproduct_prime
        for m in self.families:
            u = Element.from_monomial(m)
            two = fn(u)
            assert two.counit_slot(0).element() == u
            assert two.counit_slot(1).element() == u
            assert two.swap(0, 1) == two

    def test_morphism_property(self):
        pairs = [(mono(("x", 2)), mono(("y", 1), ("z", 1))), (mono(("x", 1)), mono(("x", 1)))]
        for m1, m2 in pairs:
            u, v = Element.from_monomial(m1), Element.from_monomial(m2)
            assert coproduct(u * v) == coproduct(u).pairwise_product(coproduct(v))
            assert coproduct_prime(u * v) == coproduct_prime(u).pairwise_product(coproduct_prime(v))


def test_coassociativity_four_generator_monomials():
    import random

    rng = random.Random(5)
    gens = [Generator(p, n) for p in ("x", "y", "z") for n in (1, 2, 3)]
    for _ in range(25):
        m = mono(*[(g.point, g.power) for g in rng.choices(gens, k=4)])
        for fn, expand in (
            (coproduct, lambda s: coproduct(Element.from_monomial(s)).terms.items()),
            (coproduct_prime, lambda s: coproduct_prime(Element.from_monomial(s)).terms.items()),
        ):
            two = fn(Element.from_monomial(m))
            assert two.apply_to_slot(0, expand) == two.apply_to_slot(1, expand)


def test_element_with_poly_coefficients():
    u = PropPoly.symbol(D("x", "y")) * phi("x") + Element.one()
    assert counit(u) == PropPoly.one()
    assert coproduct(u).counit_slot(0).element() == u


def test_monomial_json():
    m = mono(("x", 3), ("y", 1), ("x", 3))
    assert m.to_json() == [
        {"point": "x", "power": 3, "mult": 2},
        {"point": "y", "power": 1, "mult": 1},
    ]


def test_monomial_coproduct_cache_consistency():
    m = mono(("x", 2), ("y", 1))
    first = monomial_coproduct(m)
    second = monomial_coproduct(mono(("y", 1), ("x", 2)))
    assert first == second


class TestCancellation:
    """Sums that cancel leave no key behind, whichever operation made them."""

    a = mono(("x", 1))
    b = mono(("y", 1))

    def test_element_sum_and_product(self):
        assert (phi("x") + -phi("x")).terms == {}
        square_difference = (phi("x") + phi("y")) * (phi("x") - phi("y"))
        assert square_difference.terms == {
            mono(("x", 1), ("x", 1)): PropPoly.one(),
            mono(("y", 1), ("y", 1)): PropPoly.constant(-1),
        }

    def test_swap_of_antisymmetric_tensor(self):
        t = t2((self.a, self.b, 1), (self.b, self.a, -1))
        assert t.swap(0, 1) == -t
        total = t + t.swap(0, 1)
        assert (total.arity, total.terms) == (2, {})

    def test_merge_slots_collisions_cancel(self):
        t = t2((self.a, self.b, 1), (self.b, self.a, -1))
        merged = t.merge_slots(0, 1)
        assert (merged.arity, merged.terms) == (1, {})
        partial = t2((self.a, self.b, 1), (self.b, self.a, -1), (self.a, self.a, 2))
        assert partial.merge_slots(1, 0).terms == {(mono(("x", 1), ("x", 1)),): PropPoly.constant(2)}

    def test_merge_slots_rejects_one_slot_twice(self):
        t = coproduct(phi("x") * phi("y"))
        with pytest.raises(ValueError):
            t.merge_slots(0, 0)

    def test_pairwise_product_collisions_cancel(self):
        t = t2((self.a, UNIT, 1), (UNIT, self.a, 1))
        s = t2((self.b, UNIT, 1), (UNIT, self.b, -1))
        ab = mono(("x", 1), ("y", 1))
        assert t.pairwise_product(s) == t2(
            (ab, UNIT, 1), (self.a, self.b, -1), (self.b, self.a, 1), (UNIT, ab, -1)
        )
        assert (t.pairwise_product(t2((UNIT, UNIT, 1))) - t).terms == {}

    def test_apply_to_slot_width_comes_from_first_emitted_tuple(self):
        # both terms emit the same triple with opposite signs: nothing is
        # left, yet the arity is that of the emitted tuples
        t = Tensor.from_element(phi("x") - phi("y"))
        out = t.apply_to_slot(0, lambda m: [((UNIT, UNIT, UNIT), PropPoly.one())])
        assert (out.arity, out.terms) == (3, {})

    def test_apply_to_slot_keeps_arity_when_nothing_is_emitted(self):
        t = t2((self.a, self.b, 1))
        out = t.apply_to_slot(0, lambda m: [])
        assert (out.arity, out.terms) == (2, {})
        widened = t.apply_to_slot(1, lambda m: [((m, UNIT), PropPoly.one())])
        assert widened == Tensor(3, {(self.a, self.b, UNIT): PropPoly.one()})


DXY = PropPoly.symbol(D("x", "y"))
SCALARS = [
    3,
    Fraction(-2, 7),
    Fraction(1, 2) * DXY * DXY - Fraction(3, 5),
    0,
    Fraction(0),
    PropPoly.zero(),
]
SCALAR_IDS = ["int", "fraction", "poly", "int-zero", "fraction-zero", "poly-zero"]


class TestCoefficientProducts:
    """Scaling and slot substitution multiply every coefficient, compared
    with results built term by term through the PropPoly operators."""

    a = mono(("x", 1))
    b = mono(("y", 1))
    u = Element({
        a: PropPoly.constant(Fraction(3, 4)),
        mono(("x", 1), ("y", 2)): DXY - 1,
        UNIT: PropPoly.constant(-2),
    })
    t = Tensor(2, {(a, b): DXY * Fraction(1, 3), (b, UNIT): PropPoly.constant(5)})

    @pytest.mark.parametrize("scalar", SCALARS, ids=SCALAR_IDS)
    def test_element_times_scalar(self, scalar):
        expected = Element({m: c * scalar for m, c in self.u.terms.items()})
        assert self.u * scalar == expected
        assert scalar * self.u == expected
        assert all((self.u * scalar).terms.values())

    @pytest.mark.parametrize("scalar", SCALARS, ids=SCALAR_IDS)
    def test_tensor_scale(self, scalar):
        expected = Tensor(2, {s: c * scalar for s, c in self.t.terms.items()})
        assert self.t.scale(scalar) == expected
        assert scalar * self.t == expected
        assert all(self.t.scale(scalar).terms.values())

    @pytest.mark.parametrize("scalar", [2.5, "a", None])
    def test_tensor_scale_rejects_non_scalars(self, scalar):
        with pytest.raises(TypeError):
            scalar * self.t
        with pytest.raises(TypeError):
            self.t.scale(scalar)

    def test_apply_to_slot_with_polynomial_coefficients_that_partly_cancel(self):
        a, b = self.a, self.b
        t = Tensor(2, {(a, b): DXY, (a, a): PropPoly.one()})
        emitted = {
            b: [((b, UNIT), 1 + DXY), ((UNIT, b), PropPoly.constant(Fraction(1, 2)))],
            a: [((b, UNIT), 2 - DXY * DXY), ((UNIT, b), Fraction(-1, 2) * DXY)],
        }
        got = t.apply_to_slot(1, emitted.__getitem__)
        expected = {}
        for slots, coeff in t.terms.items():
            for new, c in emitted[slots[1]]:
                key = slots[:1] + new
                expected[key] = expected.get(key, PropPoly.zero()) + coeff * c
        assert got == Tensor(3, expected)
        # D*(1 + D) + (2 - D^2) leaves D + 2; D/2 - D/2 leaves nothing
        assert got.terms == {(a, b, UNIT): DXY + 2}


generators = st.builds(Generator, st.sampled_from("xyz"), st.integers(1, 3))
monomials = st.lists(generators, max_size=6).map(Monomial.from_occurrences)
non_units = monomials.filter(lambda m: not m.is_unit)


def assert_same(fast: Monomial, sorted_: Monomial):
    """A monomial made on the sorted tuples equals, in every stored field,
    the one the validating constructor sorts, and is that interned object."""
    assert (fast.factors, fast.total_power, fast.size) == (
        sorted_.factors, sorted_.total_power, sorted_.size
    )
    assert fast is sorted_


class TestSortFreeMonomials:
    """``append``, ``split_first``, ``split_last`` and ``*`` never re-sort;
    each is checked against the constructor that does."""

    @given(monomials, generators)
    def test_append(self, m, g):
        assert_same(m.append(g), Monomial(m.factors + ((g, 1),)))

    @given(non_units)
    def test_split_first(self, m):
        (first, mult), rest = m.factors[0], m.factors[1:]
        g, peeled = m.split_first()
        assert g == first
        assert_same(peeled, Monomial(((first, mult - 1),) + rest))

    @given(non_units)
    def test_split_last(self, m):
        rest, (last, mult) = m.factors[:-1], m.factors[-1]
        peeled, g = m.split_last()
        assert g == last
        assert_same(peeled, Monomial(rest + ((last, mult - 1),)))

    @given(monomials, monomials)
    def test_product(self, a, b):
        assert_same(a * b, Monomial(a.factors + b.factors))


REPEATED_GENERATORS = [
    mono(*[("x", 1)] * 5),
    mono(("x", 2), ("x", 2), ("x", 2), ("y", 1), ("y", 1)),
    mono(("x", 3), ("x", 1), ("x", 3), ("y", 2), ("y", 2), ("z", 1)),
    mono(("z", 4), ("z", 4), ("a", 1)),
]


class TestCoproductGrowth:
    """Both monomial coproducts, grown from the cached coproduct of the
    rest, against the occurrence-by-occurrence oracle: from empty memo
    tables (largest monomials first, so every rest is met on the way
    down) and then with every rest cached."""

    members = [m for u in exhaustive_monomials() for m in u.terms] + REPEATED_GENERATORS

    def check(self, order):
        for m in order:
            for coproduct_fn, primitive in (
                (monomial_coproduct, False),
                (monomial_coproduct_prime, True),
            ):
                splits = coproduct_fn(m)
                assert len(dict(splits)) == len(splits)
                assert dict(splits) == split_by_occurrence(m, primitive)

    def test_cold_then_warm(self, monkeypatch):
        monkeypatch.setattr(hopf, "_DELTA_CACHE", {})
        monkeypatch.setattr(hopf, "_DELTA_PRIME_CACHE", {})
        by_size = sorted(self.members, key=lambda m: -m.size)
        self.check(by_size)
        self.check(reversed(by_size))

    def test_rests_are_cached(self, monkeypatch):
        table = {}
        monkeypatch.setattr(hopf, "_DELTA_CACHE", table)
        m = REPEATED_GENERATORS[2]
        monomial_coproduct(m)
        # the rests left after peeling each generator with its multiplicity
        assert set(table) == {
            m,
            mono(("x", 3), ("x", 3), ("y", 2), ("y", 2), ("z", 1)),
            mono(("y", 2), ("y", 2), ("z", 1)),
            mono(("z", 1)),
        }



class TestInterning:
    """One object per monomial: every way of building a monomial returns
    the object interned for its factors, so equality is identity."""

    x1, x2, y1 = Generator("ix", 1), Generator("ix", 2), Generator("iy", 1)

    def test_every_construction_path(self):
        x1, x2, y1 = self.x1, self.x2, self.y1
        m = Monomial(((x2, 1), (x1, 2), (y1, 1)))
        assert Monomial(((y1, 1), (x1, 1), (x2, 1), (x1, 1))) is m
        assert Monomial.from_occurrences([y1, x1, x2, x1]) is m
        assert Monomial.of(y1) is Monomial(((y1, 1),))
        assert Monomial(((x1, 2), (x2, 1))).append(y1) is m
        assert m.split_first() == (x1, Monomial(((x1, 1), (x2, 1), (y1, 1))))
        assert m.split_first()[1] is Monomial(((x1, 1), (x2, 1), (y1, 1)))
        assert m.split_last()[0] is Monomial(((x1, 2), (x2, 1)))
        a, b = Monomial(((x1, 2),)), Monomial(((x2, 1), (y1, 1)))
        assert a * b is m
        assert b * a is m
        assert Monomial() is Monomial.unit()
        (parsed,) = parse("phi(iy)*phi(ix)*phi^2(ix)*phi(ix)").terms
        assert parsed is m

    def test_copies_are_the_interned_object(self):
        m = Monomial.from_occurrences([self.x2, self.y1, self.x2])
        assert copy.copy(m) is m
        assert copy.deepcopy(m) is m
        assert copy.deepcopy(UNIT) is UNIT
        assert pickle.loads(pickle.dumps(UNIT)) is UNIT
        assert UNIT.factors == ()

    def test_not_equal_to_other_types(self):
        m = Monomial.of(self.x1)
        assert (m == m.factors) is False
        assert (m == "phi(ix)") is False
        assert (UNIT == ()) is False
        assert m != 1

    def test_interning_is_safe_under_threads(self):
        # threads that build the same new monomials at once must get the one
        # interned object: a monomial built twice would leave a thread
        # holding an object the table does not; each round starts all
        # threads together on monomials not seen before
        n_threads, rounds = 6, 80
        barrier = threading.Barrier(n_threads)
        results = [[None] * rounds for _ in range(n_threads)]

        def fresh(r):
            gens = [Generator(f"thr{r}_{i}", 1 + i % 3) for i in range(6)]
            monos = [Monomial.from_occurrences(gens[:k]) for k in range(1, 7)]
            return monos + [a * b for a in monos for b in monos[:3]]

        def build(k):
            for r in range(rounds):
                barrier.wait(timeout=60)
                results[k][r] = fresh(r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for r in range(rounds):
            for k in range(n_threads):
                assert all(a is b for a, b in zip(results[k][r], results[0][r]))
            assert all(hopf._MONOMIAL_CACHE[m.factors] is m for m in results[0][r])
            assert all(a is b for a, b in zip(fresh(r), results[0][r]))


PICKLE_IN_ANOTHER_PROCESS = """
import pickle, sys
from qftalg.hopf import Generator, Monomial
# intern other monomials first, so this process builds its own objects
for i in range(50):
    Monomial.of(Generator(f"o{i}", i + 1)) * Monomial.of(Generator("other", 1))
m = Monomial(((Generator("pk", 2), 3), (Generator("pk", 1), 1), (Generator("pj", 1), 2)))
sys.stdout.write(pickle.dumps(m).hex())
"""


def test_pickle_from_another_process_is_the_interned_monomial():
    env = dict(os.environ, PYTHONPATH=str(Path(qftalg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", PICKLE_IN_ANOTHER_PROCESS],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    expected = Monomial.from_occurrences(
        [Generator("pj", 1)] * 2 + [Generator("pk", 1)] + [Generator("pk", 2)] * 3
    )
    got = pickle.loads(bytes.fromhex(out))
    assert got is expected
    assert str(got) == "phi(pj)*phi(pj)*phi(pk)*phi^2(pk)*phi^2(pk)*phi^2(pk)"
    assert UNIT.factors == ()
