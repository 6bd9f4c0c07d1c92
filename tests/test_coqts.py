import itertools
import random
from fractions import Fraction

import pytest

from qftalg import coqts
from qftalg.coqts import (
    RMode,
    chronological,
    r_bicharacter,
    r_generators,
    t_expansion_identity,
    t_functional,
    twisted_product,
)
from qftalg.errors import IdentityViolation, ModeError
from qftalg.hopf import Element, Generator, Monomial
from qftalg.laws import exhaustive_monomials
from qftalg.scalar import D, Dplus, PropPoly, poly_eval

from qft_oracles import bicharacter_contingency, bicharacter_swapped, mono, phi, twisted_tables

UNIT = Monomial.unit()
BOTH_MODES = [RMode.CHRONOLOGICAL, RMode.OPERATOR]


def zero_all_symbols(u: Element) -> Element:
    """Evaluate every propagator symbol at zero (contraction-free limit)."""
    out = Element.zero()
    for m, coeff in u.terms.items():
        value = poly_eval(coeff, {sym: Fraction(0) for sym in coeff.symbols()})
        out = out + PropPoly.constant(value) * Element.from_monomial(m)
    return out


class TestRGenerators:
    def test_power_mismatch_vanishes(self):
        assert not r_generators(Generator("x", 1), Generator("y", 2), RMode.CHRONOLOGICAL)

    def test_chronological_value(self):
        got = r_generators(Generator("x", 2), Generator("y", 2), RMode.CHRONOLOGICAL)
        assert got == PropPoly.symbol(D("x", "y"), 2, 2)

    def test_operator_orientation(self):
        fwd = r_generators(Generator("x", 1), Generator("y", 1), RMode.OPERATOR)
        back = r_generators(Generator("y", 1), Generator("x", 1), RMode.OPERATOR)
        assert fwd == PropPoly.symbol(Dplus("x", "y"))
        assert back == PropPoly.symbol(Dplus("y", "x"))
        assert fwd != back


class TestRBicharacter:
    def test_unit_values(self):
        assert r_bicharacter(UNIT, mono(("x", 3)), RMode.CHRONOLOGICAL) == PropPoly.zero()
        assert r_bicharacter(UNIT, UNIT, RMode.CHRONOLOGICAL) == PropPoly.one()

    def test_split_through_coproduct(self):
        got = r_bicharacter(mono(("x", 1), ("y", 1)), mono(("z", 2)), RMode.CHRONOLOGICAL)
        expected = 2 * (PropPoly.symbol(D("x", "z")) * PropPoly.symbol(D("y", "z")))
        assert got == expected

    def test_split_other_slot(self):
        got = r_bicharacter(mono(("x", 2)), mono(("y", 1), ("z", 1)), RMode.CHRONOLOGICAL)
        expected = 2 * (PropPoly.symbol(D("x", "y")) * PropPoly.symbol(D("x", "z")))
        assert got == expected

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_degree_selection_exhaustive(self, mode):
        gens = [("x", n) for n in range(1, 5)] + [("y", n) for n in range(1, 5)]
        monos = [UNIT] + [mono(g) for g in gens] + [mono(("x", 1), ("y", 2)), mono(("x", 2), ("y", 2))]
        for u, v in itertools.product(monos, monos):
            if u.total_power != v.total_power:
                assert not r_bicharacter(u, v, mode)

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_against_contingency_oracle(self, mode):
        cases = [
            (mono(("x", 1)), mono(("y", 1))),
            (mono(("x", 2)), mono(("y", 2))),
            (mono(("x", 1), ("y", 1)), mono(("z", 2))),
            (mono(("x", 2), ("y", 1)), mono(("z", 3))),
            (mono(("x", 2), ("y", 1)), mono(("z", 1), ("w", 2))),
            (mono(("x", 1), ("x", 1)), mono(("y", 2))),
            (mono(("x", 3), ("y", 2)), mono(("z", 2), ("w", 3))),
        ]
        monos = [m for e in exhaustive_monomials(max_generators=2) for m in e.terms]
        cases += [(u, v) for u in monos for v in monos if u.total_power == v.total_power]
        for u, v in cases:
            assert r_bicharacter(u, v, mode) == bicharacter_contingency(u, v, mode)

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_one_generator_builds_no_coproduct(self, mode):
        # a single generator is paired in closed form: through the coproduct
        # of v instead, t of phi^1700(x)*phi^1700(y) built the coproduct of
        # every phi^k(y) and took tens of seconds
        before = coqts._coproduct_by_power.cache_info()
        g = mono(("x40", 40))
        assert r_bicharacter(g, mono(("y40", 40)), mode)
        assert r_bicharacter(g, mono(("y40", 20), ("z40", 20)), mode)
        after = coqts._coproduct_by_power.cache_info()
        assert after.hits + after.misses == before.hits + before.misses

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_convention_independence(self, mode):
        cases = [
            (mono(("x", 2), ("y", 1)), mono(("z", 3))),
            (mono(("x", 1), ("y", 1)), mono(("z", 1), ("w", 1))),
            (mono(("x", 2), ("y", 2)), mono(("z", 2), ("w", 2))),
        ]
        for u, v in cases:
            assert r_bicharacter(u, v, mode) == bicharacter_swapped(u, v, mode)


class TestTwistedProduct:
    def test_right_unit(self):
        u = phi("x", 2) + 3 * phi("y")
        assert twisted_product(u, Element.one()) == u
        assert twisted_product(Element.one(), u) == u

    def test_degree_one_contraction(self):
        got = twisted_product(phi("x"), phi("y"))
        expected = phi("x") * phi("y") + Element.scalar(PropPoly.symbol(D("x", "y")))
        assert got == expected

    def test_degree_two_full_expansion(self):
        got = twisted_product(phi("x", 2), phi("y", 2))
        dxy = PropPoly.symbol(D("x", "y"))
        expected = (
            phi("x", 2) * phi("y", 2)
            + (4 * dxy) * (phi("x") * phi("y"))
            + Element.scalar(2 * dxy * dxy)
        )
        assert got == expected

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_associativity_small(self, mode):
        triples = [
            (phi("x"), phi("y"), phi("z")),
            (phi("x", 2), phi("y"), phi("z", 2)),
            (phi("x") * phi("y"), phi("z", 2), phi("x")),
        ]
        for u, v, w in triples:
            left = twisted_product(twisted_product(u, v, mode), w, mode)
            right = twisted_product(u, twisted_product(v, w, mode), mode)
            assert left == right

    def test_chronological_commutes(self):
        u = phi("x", 2) * phi("y")
        v = phi("z") + 2 * phi("x")
        assert twisted_product(u, v) == twisted_product(v, u)

    def test_operator_commutator_lowest_order(self):
        fwd = twisted_product(phi("x"), phi("y"), RMode.OPERATOR)
        back = twisted_product(phi("y"), phi("x"), RMode.OPERATOR)
        expected = Element.scalar(
            PropPoly.symbol(Dplus("x", "y")) - PropPoly.symbol(Dplus("y", "x"))
        )
        assert fwd - back == expected

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_contraction_free_limit_is_normal_product(self, mode):
        pairs = [
            (phi("x"), phi("y")),
            (phi("x", 2), phi("x", 2)),
            (phi("x") * phi("y"), phi("z", 2)),
        ]
        for u, v in pairs:
            assert zero_all_symbols(twisted_product(u, v, mode)) == u * v


# the unit, repeated occurrences and unequal powers, over two points
TABLE_FAMILY = [
    UNIT,
    mono(("x", 1)),
    mono(("y", 2)),
    mono(("x", 1), ("x", 1)),
    mono(("x", 2), ("y", 1)),
    mono(("y", 3)),
    mono(("x", 1), ("y", 1), ("y", 1)),
    mono(("x", 2), ("y", 2)),
]


class TestTwistedAgainstTables:
    def test_oracle_example(self):
        dxy = PropPoly.symbol(D("x", "y"))
        expected = (
            phi("x", 2) * phi("y", 2)
            + (4 * dxy) * (phi("x") * phi("y"))
            + Element.scalar(2 * dxy * dxy)
        )
        assert twisted_tables(mono(("x", 2)), mono(("y", 2)), RMode.CHRONOLOGICAL) == expected

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_every_pair_of_monomials(self, mode):
        for u, v in itertools.product(TABLE_FAMILY, TABLE_FAMILY):
            got = twisted_product(Element.from_monomial(u), Element.from_monomial(v), mode)
            assert got == twisted_tables(u, v, mode), (str(u), str(v))

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_bilinear_extension(self, mode):
        rng = random.Random(5)
        coeffs = [
            PropPoly.constant(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
            + rng.randint(0, 1) * PropPoly.symbol(D("x", "z"))
            for _ in TABLE_FAMILY
        ]
        u = Element(dict(zip(TABLE_FAMILY, coeffs)))
        v = Element(dict(zip(TABLE_FAMILY[::-1], coeffs)))
        expected = Element.zero()
        for (a, ca), (b, cb) in itertools.product(u.terms.items(), v.terms.items()):
            expected = expected + (ca * cb) * twisted_tables(a, b, mode)
        assert twisted_product(u, v, mode) == expected


    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_coefficients_cancelling_across_monomial_pairs(self, mode):
        # phi(x) o phi(y) and phi(y) o phi(x) meet at phi(x)phi(y) with
        # coefficients s/2 and -s/2, so that monomial cancels in the sum
        s = PropPoly.symbol(D("x", "z")) + Fraction(2, 3)
        u = Fraction(1, 2) * phi("x") + s * phi("y") + Element.scalar(Fraction(-3, 4))
        v = s * phi("y") + Fraction(-1, 2) * phi("x")
        got = twisted_product(u, v, mode)
        assert got
        assert mono(("x", 1), ("y", 1)) not in got.terms
        assert all(got.terms.values())
        assert twisted_product(u, v, mode) + twisted_product(-u, v, mode) == Element.zero()
        expected = Element.zero()
        for (a, ca), (b, cb) in itertools.product(u.terms.items(), v.terms.items()):
            expected = expected + (ca * cb) * twisted_tables(a, b, mode)
        assert got == expected


class TestChronological:
    def test_single_factor(self):
        assert chronological([Generator("x", 1)]) == phi("x")

    def test_two_factors(self):
        got = chronological([Generator("x1", 1), Generator("x2", 1)])
        expected = phi("x1") * phi("x2") + Element.scalar(PropPoly.symbol(D("x1", "x2")))
        assert got == expected

    def test_four_factor_scalar_part_is_matchings(self):
        gens = [Generator(f"x{i}", 1) for i in range(1, 5)]
        scalar = chronological(gens).counit()
        d = lambda a, b: PropPoly.symbol(D(a, b))
        expected = (
            d("x1", "x2") * d("x3", "x4")
            + d("x1", "x3") * d("x2", "x4")
            + d("x1", "x4") * d("x2", "x3")
        )
        assert scalar == expected

    def test_order_independence_of_fold(self):
        gens = [Generator("x1", 2), Generator("x2", 1), Generator("x3", 2)]
        rng = random.Random(7)
        reference = chronological(gens)
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            folded = Element.one()
            for g in shuffled:
                folded = twisted_product(folded, Element.from_generator(g))
            assert folded == reference

    def test_mode_rejected(self):
        with pytest.raises(ModeError):
            chronological([Generator("x", 1)], RMode.OPERATOR)
        with pytest.raises(ModeError):
            t_functional(phi("x"), RMode.OPERATOR)


class TestTFunctional:
    def test_unit(self):
        assert t_functional(Element.one()) == PropPoly.one()

    def test_single_vertex_vanishes(self):
        for n in range(1, 4):
            assert not t_functional(phi("x", n))

    def test_two_squares(self):
        got = t_functional(phi("x1", 2) * phi("x2", 2))
        assert got == PropPoly.symbol(D("x1", "x2"), 2, 2)

    def test_linearity(self):
        u = phi("x1") * phi("x2")
        v = phi("x1", 2) * phi("x2", 2)
        combo = 3 * u + Fraction(1, 2) * v
        assert t_functional(combo) == 3 * t_functional(u) + Fraction(1, 2) * t_functional(v)


class TestExpansionIdentity:
    def test_unit(self):
        assert t_expansion_identity(Element.one()) == Element.one()

    def test_two_fields(self):
        u = phi("x1") * phi("x2")
        got = t_expansion_identity(u)
        assert got == u + Element.scalar(PropPoly.symbol(D("x1", "x2")))

    def test_two_squares(self):
        u = phi("x1", 2) * phi("x2", 2)
        dxy = PropPoly.symbol(D("x1", "x2"))
        got = t_expansion_identity(u)
        assert got == u + (4 * dxy) * (phi("x1") * phi("x2")) + Element.scalar(2 * dxy * dxy)

    def test_family_small(self):
        gens = [("x", 1), ("x", 2), ("y", 1), ("y", 3), ("z", 2)]
        for size in range(1, 4):
            for combo in itertools.combinations_with_replacement(gens, size):
                t_expansion_identity(Element.from_monomial(mono(*combo)))

    def test_raises_on_a_t_that_drops_a_term(self, monkeypatch):
        # a t that loses the first term of every value breaks the right side
        exact = coqts.t_monomial

        def dropping_t(m):
            return PropPoly(dict(exact(m).sorted_terms()[1:]))

        u = phi("x1", 2) * phi("x2", 2)
        monkeypatch.setattr(coqts, "t_monomial", dropping_t)
        with pytest.raises(IdentityViolation) as err:
            t_expansion_identity(u)
        assert err.value.lhs == chronological(u)
