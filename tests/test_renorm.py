import itertools
import json
import random
from fractions import Fraction
from math import factorial

import pytest

from qftalg.coqts import chronological, t_expansion_identity
from qftalg.errors import IdentityViolation, NotInKernel
from qftalg.graphs import t_connected_via_graphs
from qftalg import renorm
from qftalg.hopf import (
    Element,
    Generator,
    Monomial,
    VertexWord,
    monomial_coproduct,
    reduced_prime_iter,
)
from qftalg.laws import random_elements
from qftalg.renorm import (
    Vertex,
    comodule_expansion_check,
    connected_T,
    identity_vertex,
    renormalized_T,
    t_c_functional,
    zero_vertex,
)
from qftalg.scalar import D, PropPoly

from qft_oracles import mono, phi, set_partitions


def d(a, b, power=1, coeff=1):
    return PropPoly.symbol(D(a, b), power, coeff)


def dropping_coaction(m):
    """The contraction coproduct read as a coaction: its left factor is a
    Wick monomial, so every emptied vertex drops out of the word."""
    return tuple(
        ((VertexWord(left), right), c) for (left, right), c in monomial_coproduct(m)
    )


class TestVertex:
    def test_identity_vertex(self):
        v = identity_vertex()
        assert v.image(mono(("x", 3))) == phi("x", 3)
        assert not v.image(mono(("x", 1), ("y", 1)))
        assert not v.image(Monomial.unit())

    def test_zero_vertex(self):
        assert not zero_vertex().image(mono(("x", 1)))

    def test_rules_must_land_in_generators(self):
        bad = Element.from_monomial(mono(("x", 1), ("y", 1)))
        with pytest.raises(ValueError):
            Vertex({mono(("x", 2)): bad})

    def test_linear_extension(self):
        v = Vertex({mono(("x", 1), ("y", 1)): 2 * phi("z", 2)})
        u = Fraction(1, 2) * Element.from_monomial(mono(("x", 1), ("y", 1))) + phi("q")
        assert v.apply(u) == phi("z", 2)

    def test_json_round_trip(self):
        text = json.dumps(
            [
                {
                    "from": [{"point": "x", "power": 1, "mult": 2}],
                    "to": [{"point": "y", "power": 2, "coeff": "3/2"}],
                }
            ]
        )
        v = Vertex.from_json(text)
        assert v.image(mono(("x", 1), ("x", 1))) == Fraction(3, 2) * phi("y", 2)


class TestConnectedT:
    def test_two_fields(self):
        got = connected_T(phi("x1") * phi("x2"))
        assert got == Element.scalar(d("x1", "x2"))

    def test_two_squares(self):
        got = connected_T(phi("x1", 2) * phi("x2", 2))
        expected = (4 * d("x1", "x2")) * (phi("x1") * phi("x2")) + Element.scalar(
            d("x1", "x2", 2, 2)
        )
        assert got == expected

    def test_single_generator_fixed(self):
        for n in range(1, 4):
            assert connected_T(phi("x", n)) == phi("x", n)

    def test_kernel_enforcement(self):
        with pytest.raises(NotInKernel):
            connected_T(Element.one())
        assert not connected_T(Element.one(), strict=False)

    def test_linearity(self):
        u = phi("x1") * phi("x2")
        v = phi("x1", 2) * phi("x2", 2)
        combo = 3 * u - Fraction(1, 2) * v
        assert connected_T(combo) == 3 * connected_T(u) - Fraction(1, 2) * connected_T(v)

    def test_termination_term_beyond_bound_vanishes(self):
        for gens in [[("x", 1), ("y", 1)], [("x", 2), ("y", 1), ("z", 1)]]:
            u = Element.from_monomial(mono(*gens))
            assert not reduced_prime_iter(u, len(gens))


class TestTcFunctional:
    def test_two_fields(self):
        assert t_c_functional(phi("x1") * phi("x2")) == d("x1", "x2")

    def test_four_fields_disconnected(self):
        u = phi("x1") * phi("x2") * phi("x3") * phi("x4")
        assert not t_c_functional(u)

    def test_triangle(self):
        u = phi("x1", 2) * phi("x2", 2) * phi("x3", 2)
        expected = PropPoly.from_symbol_powers(
            [(D("x1", "x2"), 1), (D("x1", "x3"), 1), (D("x2", "x3"), 1)], 8
        )
        assert t_c_functional(u) == expected

    def test_agrees_with_connected_product(self):
        # four occurrences are the first with disconnected graphs
        gens = [("x", 1), ("x", 2), ("y", 2), ("z", 1)]
        for size in range(1, 5):
            for combo in itertools.combinations_with_replacement(gens, size):
                u = Element.from_monomial(mono(*combo))
                assert t_c_functional(u) == connected_T(u).counit()


class TestComoduleExpansion:
    def test_two_fields(self):
        u = phi("x1") * phi("x2")
        assert comodule_expansion_check(u) == Element.scalar(d("x1", "x2"))

    def test_two_squares(self):
        u = phi("x1", 2) * phi("x2", 2)
        assert comodule_expansion_check(u) == connected_T(u)

    def test_family_two_generators_exact(self):
        gens = [("x", 1), ("x", 2), ("x", 3), ("y", 1), ("y", 2), ("z", 1)]
        for combo in itertools.combinations_with_replacement(gens, 2):
            u = Element.from_monomial(mono(*combo))
            comodule_expansion_check(u)

    def test_single_generator_known_discrepancy(self, monkeypatch):
        # T_c(phi) = phi, and the coaction keeps the emptied vertex [1] with
        # t_c([1]) = 1.  A coaction that drops it gives 0, which raises
        # whatever ``strict`` is: ``strict`` only chooses the projection.
        u = phi("x")
        assert comodule_expansion_check(u) == connected_T(u) == u
        monkeypatch.setattr(renorm, "monomial_coaction", dropping_coaction)
        with pytest.raises(IdentityViolation) as err:
            comodule_expansion_check(u)
        assert err.value.lhs == u
        assert not err.value.rhs
        with pytest.raises(IdentityViolation):
            comodule_expansion_check(u, strict=False)

    def test_three_generators_known_discrepancy(self, monkeypatch):
        # With three occurrences a coaction that drops emptied vertices picks
        # up connected-subdiagram terms times spectator fields, which T_c
        # cannot contain; with emptied vertices kept those words have
        # t_c = 0.
        u = Element.from_monomial(mono(("x", 1), ("x", 1), ("y", 1)))
        v = phi("x1") * phi("x2") * phi("x3")
        assert not connected_T(u)
        assert comodule_expansion_check(u) == connected_T(u)
        assert comodule_expansion_check(v) == connected_T(v)
        monkeypatch.setattr(renorm, "monomial_coaction", dropping_coaction)
        with pytest.raises(IdentityViolation) as err:
            comodule_expansion_check(u)
        expected_expansion = (2 * d("x", "y")) * phi("x") + d("x", "x") * phi("y")
        assert err.value.rhs == expected_expansion
        # distinct points fail the same way
        with pytest.raises(IdentityViolation) as err:
            comodule_expansion_check(v)
        assert err.value.lhs == connected_T(v)
        with pytest.raises(IdentityViolation):
            comodule_expansion_check(v, strict=False)

    def test_both_expansions_on_rational_coefficients(self):
        # seeded sums of up to three monomials with coefficients other than
        # 1, some with a scalar part that strict=False projects away
        for u in random_elements(3, 40):
            t_expansion_identity(u)
            comodule_expansion_check(u, strict=False)

    def test_scalar_shadow_exact_even_where_element_level_breaks(self):
        # counit(T_c) always agrees with the connected-graph sum, including
        # the monomials where a coaction that drops emptied vertices breaks
        # the element-level expansion.
        for gens in [
            [("x", 1), ("x", 1), ("y", 1)],
            [("x", 1), ("y", 1), ("z", 1)],
            [("x", 2), ("y", 1), ("y", 1)],
        ]:
            m = mono(*gens)
            assert connected_T(Element.from_monomial(m)).counit() == t_connected_via_graphs(m)


class TestRenormalizedT:
    def test_identity_vertex_reproduces_chronological(self):
        cases = [
            mono(("x", 1), ("y", 1)),
            mono(("x", 2), ("y", 1), ("z", 3)),
            mono(("x", 1), ("y", 1), ("z", 1), ("w", 1)),
        ]
        for m in cases:
            u = Element.from_monomial(m)
            assert renormalized_T(u, identity_vertex()) == chronological(u)

    def test_zero_vertex_kills_everything(self):
        u = phi("x1") * phi("x2") + 2 * phi("y", 2)
        assert not renormalized_T(u, zero_vertex())

    def test_partial_identity_vertex(self):
        v = Vertex(
            {
                mono(("x1", 1)): phi("x1"),
                mono(("x2", 1)): phi("x2"),
            }
        )
        u = phi("x1") * phi("x2")
        expected = Element.scalar(d("x1", "x2")) + u
        assert renormalized_T(u, v) == expected

    def test_counterterm_vertex_inserts_generator(self):
        # A vertex that renames points: O(phi(x1)) = phi(y1), O(phi(x2)) = phi(y2).
        v = Vertex(
            {
                mono(("x1", 1)): phi("y1"),
                mono(("x2", 1)): phi("y2"),
            }
        )
        u = phi("x1") * phi("x2")
        assert renormalized_T(u, v) == chronological(phi("y1") * phi("y2"))

    def test_kernel_enforcement(self):
        with pytest.raises(NotInKernel):
            renormalized_T(Element.one(), identity_vertex())

    def test_termwise_degree_in_vertex(self):
        # each n-term is degree n in the vertex: scaling the vertex rules by c
        # scales the n-th term by c^n; with only n=2 surviving the whole
        # result scales by c^2
        base = Vertex({mono(("x1", 1)): phi("x1"), mono(("x2", 1)): phi("x2")})
        scaled = Vertex({mono(("x1", 1)): 3 * phi("x1"), mono(("x2", 1)): 3 * phi("x2")})
        u = phi("x1") * phi("x2")
        assert renormalized_T(u, scaled) == 9 * renormalized_T(u, base)


# the family of acceptance criterion 6: 1-4 distinct generators
ACCEPTANCE_GENERATORS = [Generator(p, n) for p in ("x1", "x2", "x3", "x4") for n in (1, 2, 3)]


def acceptance_family(max_size):
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(ACCEPTANCE_GENERATORS, size):
            yield Element.from_monomial(Monomial.from_occurrences(combo))


# monomials with repeated generators: equal blocks, so a set partition's
# labelled count differs from one
REPEATED = [
    mono(*[("x", 1)] * 4),
    mono(("x", 2), ("x", 2), ("y", 1), ("y", 1)),
    mono(("x", 1), ("x", 1), ("x", 2), ("y", 1), ("y", 1)),
    mono(*[("x", 2)] * 3, ("y", 2)),
]


def seeded_combinations(rng, members, count):
    """``count`` combinations ``a u + b v`` of two members with rational
    coefficients."""
    for _ in range(count):
        u, v = rng.sample(members, 2)
        yield Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) * u + Fraction(-2, 3) * v


def definitional_T_c(u):
    """``sum_n (-1)^(n+1)/n sum c T(u_1)...T(u_n)`` over the ordered tuples
    of the (n-1)-st reduced-partition iterate, one product per tuple."""
    total = Element.zero()
    n = 1
    while True:
        iterate = reduced_prime_iter(u, n - 1)
        if not iterate:
            return total
        for slots, c in iterate.terms.items():
            product = Element.one()
            for s in slots:
                product = product * chronological(s)
            total = total + (c * Fraction((-1) ** (n + 1), n)) * product
        n += 1


class TestConnectedTDefinition:
    """``connected_T`` runs the first-block recursion and ``t_c`` sums the
    connected graphs; both must equal the literal ordered series."""

    def check(self, u):
        expected = definitional_T_c(u)
        assert connected_T(u) == expected, str(u)
        assert t_c_functional(u) == expected.counit(), str(u)

    def test_acceptance_family(self):
        for u in acceptance_family(4):
            self.check(u)

    def test_repeated_generators(self):
        for m in REPEATED:
            self.check(Element.from_monomial(m))

    def test_seeded_linear_combinations(self):
        members = list(acceptance_family(3)) + [Element.from_monomial(m) for m in REPEATED]
        for u in seeded_combinations(random.Random(61), members, 40):
            self.check(u)


class TestExponentialFormula:
    """``T`` is the exponential of ``T_c`` over the partition lattice:
    ``T(m) = sum_pi prod_B T_c(m_B)``, checked with a labelled set-partition
    enumerator that knows nothing of how renorm groups equal blocks."""

    def test_t_is_exponential_of_t_c(self):
        for m in REPEATED + [mono(("x", 1), ("y", 2), ("z", 1))]:
            occurrences = m.occurrences()
            total = Element.zero()
            for partition in set_partitions(list(occurrences)):
                product = Element.one()
                for block in partition:
                    product = product * connected_T(
                        Element.from_monomial(Monomial.from_occurrences(block))
                    )
                total = total + product
            assert total == chronological(m), str(m)

    def test_partition_counts_are_stirling_numbers(self):
        parts = renorm._partitions(mono(*[("x", 1)] * 4))
        by_count = {}
        for blocks, n in parts.items():
            by_count[len(blocks)] = by_count.get(len(blocks), 0) + n
        assert by_count == {1: 1, 2: 7, 3: 6, 4: 1}
        assert sum(parts.values()) == 15

    def test_partitions_group_labelled_partitions(self):
        for m in REPEATED + [mono(("x", 1), ("y", 1), ("z", 2))]:
            expected = {}
            for partition in set_partitions(list(m.occurrences())):
                blocks = tuple(sorted(Monomial.from_occurrences(b) for b in partition))
                expected[blocks] = expected.get(blocks, 0) + 1
            assert renorm._partitions(m) == expected, str(m)


# 5-6 occurrences with repeated generators and mixed powers: the
# first-block recursion meets equal sub-monomials along different splits.
# The first has too few legs to connect its five vertices, so T_c is 0.
RECURSION_SHAPES = [
    mono(("x", 1), ("x", 1), ("y", 2), ("z", 1), ("z", 1)),
    mono(("x", 2), ("x", 2), ("y", 1), ("z", 3), ("z", 1)),
    mono(("x", 1), ("x", 2), ("x", 2), ("y", 1), ("y", 3)),
    mono(("x", 1), ("x", 1), ("y", 2), ("y", 2), ("z", 2), ("z", 3)),
    mono(("x", 2), ("y", 1), ("y", 1), ("y", 2), ("z", 2), ("z", 2)),
]


def mobius_T_c(m):
    """``sum_pi (-1)^(k-1) (k-1)! T(m_B1)...T(m_Bk)`` over the labelled set
    partitions of the occurrences of ``m``, one product per partition."""
    total = Element.zero()
    for partition in set_partitions(list(m.occurrences())):
        k = len(partition)
        product = Element.one()
        for block in partition:
            product = product * chronological(Monomial.from_occurrences(block))
        total = total + ((-1) ** (k - 1) * factorial(k - 1)) * product
    return total


class TestConnectedTRecursion:
    """The first-block recursion against the logarithm over the labelled
    partition lattice, the distinct-field closed forms and the graph sum."""

    def test_matches_mobius_sum_over_labelled_partitions(self):
        for i, m in enumerate(RECURSION_SHAPES):
            expected = mobius_T_c(m)
            assert bool(expected) == (i > 0), str(m)
            assert connected_T(Element.from_monomial(m)) == expected, str(m)

    def test_distinct_fields_beyond_two_vanish(self):
        # no graph on n >= 3 single legs is connected (n = 2 gives the one
        # edge of TestConnectedT.test_two_fields)
        points = [f"x{i}" for i in range(1, 11)]
        for n in range(3, 11):
            m = Monomial.from_occurrences(Generator(p, 1) for p in points[:n])
            assert not connected_T(Element.from_monomial(m)), n

    def test_counit_is_the_graph_sum_on_seven_squares(self):
        m = Monomial.from_occurrences(Generator(f"x{i}", 2) for i in range(1, 8))
        assert connected_T(Element.from_monomial(m)).counit() == t_c_functional(m)


def definitional_T_R(u, vertex):
    """``sum_n 1/n! sum c T(O(u_1)...O(u_n))`` over the ordered tuples of
    the (n-1)-st reduced-partition iterate, one ``T`` per tuple."""
    total = Element.zero()
    n = 1
    while True:
        iterate = reduced_prime_iter(u, n - 1)
        if not iterate:
            return total
        for slots, c in iterate.terms.items():
            product = Element.one()
            for s in slots:
                product = product * vertex.image(s)
            total = total + (c * Fraction(1, factorial(n))) * chronological(product)
        n += 1


class TestRenormalizedTDefinition:
    """``renormalized_T`` sums the series into one element and applies
    ``T`` once; that must equal the definitional sum over ordered tuples."""

    def test_identity_vertex_on_acceptance_family(self):
        vertex = identity_vertex()
        for u in acceptance_family(4):
            assert renormalized_T(u, vertex) == definitional_T_R(u, vertex)

    def test_repeated_generators(self):
        rules = {
            mono(("x", 1)): Fraction(1, 2) * phi("x"),
            mono(("x", 2)): phi("x", 2) - 3 * phi("y"),
            mono(("y", 1)): -1 * phi("y", 2),
            mono(("y", 2)): 2 * phi("y", 2),
            mono(("x", 1), ("x", 1)): 3 * phi("x", 2),
            mono(("x", 2), ("y", 1)): Fraction(-1, 3) * phi("x"),
        }
        for vertex in (identity_vertex(), Vertex(rules)):
            for m in REPEATED:
                u = Element.from_monomial(m)
                assert renormalized_T(u, vertex) == definitional_T_R(u, vertex), str(m)

    def test_seeded_rule_table(self):
        rng = random.Random(6)
        rules = {}
        for g in ACCEPTANCE_GENERATORS:
            image = Element.zero()
            for target in rng.sample(ACCEPTANCE_GENERATORS, 2):
                coeff = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                image = image + PropPoly.constant(coeff) * Element.from_generator(target)
            rules[Monomial.of(g)] = image
        for pair in rng.sample(list(itertools.combinations(ACCEPTANCE_GENERATORS, 2)), 10):
            rules[Monomial.from_occurrences(pair)] = Fraction(1, 2) * Element.from_generator(pair[0])
        vertex = Vertex(rules)
        members = list(acceptance_family(3))
        members += [u + Fraction(-2, 3) * v for u, v in zip(members[::7], members[3::7])]
        for u in rng.sample(members, 60):
            assert renormalized_T(u, vertex) == definitional_T_R(u, vertex)


# Every generator of RECURSION_SHAPES has an image, and so do pairs and a
# triple inside the shapes: the recursion reaches each of those blocks as
# the first block of several different sub-monomials O^(R).
COMPOSITE_RULES = {
    mono(("x", 1)): Fraction(1, 2) * phi("x"),
    mono(("x", 2)): phi("x", 2) - 3 * phi("y"),
    mono(("y", 1)): -1 * phi("y", 2),
    mono(("y", 2)): 2 * phi("z"),
    mono(("y", 3)): phi("y", 3),
    mono(("z", 1)): Fraction(-2, 3) * phi("z"),
    mono(("z", 2)): phi("x") + phi("z", 2),
    mono(("z", 3)): 3 * phi("y"),
    mono(("x", 1), ("x", 1)): 3 * phi("x", 2),
    mono(("y", 1), ("y", 1)): Fraction(5, 2) * phi("y", 2),
    mono(("z", 1), ("z", 1)): -1 * phi("z", 2),
    mono(("z", 2), ("z", 2)): 2 * phi("z"),
    mono(("y", 2), ("z", 1)): Fraction(1, 3) * phi("y"),
    mono(("x", 2), ("z", 3)): phi("x"),
    mono(("y", 2), ("z", 2)): phi("x", 2) + phi("y"),
    mono(("y", 2), ("z", 1), ("z", 1)): 2 * phi("x", 2),
}


class TestRenormalizedTRecursion:
    """The first-block recursion for ``O^`` against the ordered series, on
    5-6 occurrences with composite rules, shared sub-monomials and the
    zero vertex."""

    def test_matches_ordered_series_with_composite_rules(self):
        vertex = Vertex(COMPOSITE_RULES)
        for m in RECURSION_SHAPES:
            u = Element.from_monomial(m)
            expected = definitional_T_R(u, vertex)
            assert expected, str(m)
            assert renormalized_T(u, vertex) == expected, str(m)

    def test_two_monomials_sharing_sub_monomials(self):
        # the second monomial is the first without one x: the values of the
        # sub-monomials of one call serve both
        u = Fraction(-3, 2) * Element.from_monomial(RECURSION_SHAPES[0]) + d("x", "z") * (
            Element.from_monomial(mono(("x", 1), ("y", 2), ("z", 1), ("z", 1)))
        )
        for vertex in (identity_vertex(), Vertex(COMPOSITE_RULES)):
            expected = definitional_T_R(u, vertex)
            assert expected
            assert renormalized_T(u, vertex) == expected

    def test_zero_vertex_gives_zero(self):
        u = Element.from_monomial(RECURSION_SHAPES[1]) + 2 * Element.from_monomial(
            RECURSION_SHAPES[3]
        )
        assert not renormalized_T(u, zero_vertex())
        for m in RECURSION_SHAPES:
            assert not renormalized_T(Element.from_monomial(m), zero_vertex()), str(m)


def symbol_combinations(rng, members, count):
    """``count`` combinations ``D(x1,x2) a + (1/2 D(x2,x3)^2 - 2/3) b`` of two
    members, so that the partition coefficients are polynomials."""
    coeff_a = d("x1", "x2")
    coeff_b = d("x2", "x3", 2, Fraction(1, 2)) - Fraction(2, 3)
    for _ in range(count):
        a, b = rng.sample(members, 2)
        yield coeff_a * a + coeff_b * b


class TestSymbolCoefficients:
    """Coefficients that are propagator polynomials, not rationals, through
    ``connected_T`` and ``renormalized_T``, against the ordered series."""

    MEMBERS = list(acceptance_family(3)) + [Element.from_monomial(m) for m in REPEATED[:2]]

    def test_connected_T(self):
        for u in symbol_combinations(random.Random(17), self.MEMBERS, 12):
            assert connected_T(u) == definitional_T_c(u), str(u)

    def test_renormalized_T(self):
        # every generator of the members has an image, every other one with
        # a polynomial coefficient, so that no partition vanishes wholesale
        gens = ACCEPTANCE_GENERATORS + [Generator("x", 1), Generator("x", 2), Generator("y", 1)]
        rules = {
            Monomial.of(g): (d(g.point, "x4", 1, i) if i % 2 else Fraction(i + 1, 2))
            * Element.from_generator(gens[5 * i % len(gens)])
            for i, g in enumerate(gens)
        }
        rules[Monomial.from_occurrences(gens[:2])] = (d("x2", "x4", 1, 3) + 1) * phi("x3", 2)
        rules[mono(("x", 1), ("x", 1))] = Fraction(-1, 3) * phi("y")
        for vertex in (identity_vertex(), Vertex(rules)):
            for u in symbol_combinations(random.Random(18), self.MEMBERS, 12):
                expected = definitional_T_R(u, vertex)
                assert expected, str(u)
                assert renormalized_T(u, vertex) == expected, str(u)


def test_partition_sums_form_no_polynomial_product_of_their_own(monkeypatch):
    # Once the chronological products and the partition tables are cached,
    # every polynomial product of T_c and T_R goes through the one
    # multiply-accumulate, scalar._poly_dots, and none through PropPoly *.
    u = d("x1", "x2") * Element.from_monomial(mono(("x1", 1), ("x2", 2), ("x3", 1))) + (
        d("x2", "x3", 2, Fraction(1, 2)) - Fraction(2, 3)
    ) * Element.from_monomial(mono(("x1", 1), ("x1", 1), ("x3", 2)))
    vertex = identity_vertex()
    expected = connected_T(u), renormalized_T(u, vertex)

    def refuse(self, other):
        raise AssertionError("PropPoly product formed outside _poly_dots")

    monkeypatch.setattr(PropPoly, "__mul__", refuse)
    monkeypatch.setattr(PropPoly, "__rmul__", refuse)
    assert (connected_T(u), renormalized_T(u, vertex)) == expected
