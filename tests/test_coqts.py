import hashlib
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from qftalg import coqts, hopf
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
from qftalg.hopf import Element, Generator, Monomial, monomial_coproduct
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
    def test_one_generator_builds_no_coproduct(self, mode, monkeypatch):
        # a single generator is paired in closed form: through the coproduct
        # of v instead, t of phi^1700(x)*phi^1700(y) built the coproduct of
        # every phi^k(y) and took tens of seconds
        table = {}
        monkeypatch.setattr(hopf, "_DELTA_CACHE", table)
        g = mono(("x40", 40))
        assert r_bicharacter(g, mono(("y40", 40)), mode)
        assert r_bicharacter(g, mono(("y40", 20), ("z40", 20)), mode)
        assert table == {}

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


# total power 1-3 against 6-9 over a shared point, with repeated
# generators: the twisted product builds the larger side's coproduct only
# up to the smaller total power
SMALL_FAMILY = [
    mono(("x", 1)),
    mono(("x", 2)),
    mono(("x", 1), ("x", 1)),
    mono(("x", 1), ("y", 2)),
    mono(("y", 1), ("y", 1), ("x", 1)),
]
LARGE_FAMILY = [
    mono(("x", 3), ("x", 3)),
    mono(("x", 2), ("y", 2), ("y", 2)),
    mono(("x", 1), ("x", 1), ("y", 3), ("y", 2)),
    mono(("y", 4), ("x", 2), ("x", 2)),
    mono(("x", 3), ("x", 3), ("y", 3)),
]


class TestPowerCap:
    def test_capped_buckets_are_the_low_power_splits(self, monkeypatch):
        # every cap of every monomial, descending and ascending from an
        # empty table: the walks meet rests missing, stored below the cap
        # and stored above it
        monos = [m for e in exhaustive_monomials(3, 3) for m in e.terms]
        for m in monos:
            full = monomial_coproduct(m)
            expected = [
                Counter(s for s in full if s[0][0].total_power == power)
                for power in range(m.total_power + 1)
            ]
            caps = range(m.total_power + 1)
            for order in (reversed(caps), caps):
                monkeypatch.setattr(hopf, "_DELTA_CACHE", {})
                for cap in order:
                    buckets = hopf._graded_coproduct(m, cap)
                    assert cap < len(buckets) <= m.total_power + 1, (str(m), cap)
                    for power, bucket in enumerate(buckets):
                        assert Counter(bucket) == expected[power], (str(m), cap, power)

    def test_one_entry_per_monomial_across_caps(self, monkeypatch):
        # a lower cap reads a prefix of the entry a higher cap stored, and a
        # higher cap replaces it: never one entry per (monomial, cap)
        table = {}
        monkeypatch.setattr(hopf, "_DELTA_CACHE", table)
        m = mono(("x", 2), ("y", 1), ("y", 1), ("z", 3))
        walked = {m, mono(("y", 1), ("y", 1), ("z", 3)), mono(("z", 3))}
        hopf._graded_coproduct(m, 3)
        assert set(table) == walked
        stored = dict(table)
        for cap in (1, 2):
            assert hopf._graded_coproduct(m, cap) is stored[m]
        assert table == stored and all(table[k] is stored[k] for k in walked)
        assert [len(table[k]) for k in sorted(walked)] == [4, 4, 4]
        hopf._graded_coproduct(m, m.total_power)
        assert set(table) == walked
        assert [len(table[k]) for k in sorted(walked)] == [8, 6, 4]

    def test_walk_is_not_a_recursion_per_factor(self, monkeypatch):
        # for each reader, the least recursion limit under which the walk of
        # 4 distinct points returns serves 14 or 100 points too, up to the
        # nested C comparisons of factor tuples that some interpreters count
        # against the limit (at most 4 levels: factors, pair, Generator,
        # str); a walk that recursed once per factor would need 10 or 96
        # frames more
        def least_limit(read, points):
            m = Monomial.from_occurrences(Generator(f"p{i:03}", 1) for i in range(points))
            read(m)  # fills the per-generator caches, so each search starts alike
            saved = sys.getrecursionlimit()
            for limit in itertools.count(1):
                for table in ("_DELTA_CACHE", "_DELTA_PRIME_CACHE"):
                    monkeypatch.setattr(hopf, table, {})
                try:
                    sys.setrecursionlimit(limit)  # below the current depth it raises
                    out = read(m)
                    return limit, out
                except RecursionError:
                    pass
                finally:
                    sys.setrecursionlimit(saved)

        readers = [
            (lambda m: [len(b) for b in hopf._graded_coproduct(m, 1)], 100, [1, 100]),
            # a flat coproduct of n distinct points has 2^n splits
            (lambda m: len(hopf.monomial_coproduct(m)), 14, 2 ** 14),
            (lambda m: len(hopf.monomial_coproduct_prime(m)), 14, 2 ** 14),
        ]
        for read, points, expected in readers:
            base, _ = least_limit(read, 4)
            limit, out = least_limit(read, points)
            assert limit <= base + 4
            assert out == expected

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_pairs_the_cap_prunes_against_tables(self, mode):
        for small, large in itertools.product(SMALL_FAMILY, LARGE_FAMILY):
            for u, v in ((small, large), (large, small)):
                got = twisted_product(Element.from_monomial(u), Element.from_monomial(v), mode)
                assert got == twisted_tables(u, v, mode), (str(u), str(v))


class TestTableReads:
    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_one_closed_form_per_distinct_pair(self, mode, monkeypatch):
        # R(g * rest, v) pairs the peeled g with each v' through the table, so
        # the closed form runs once per distinct (g, v'), not once per split
        # that meets it again under another rest or another v
        monkeypatch.setattr(coqts, "_R_CACHE", {})
        calls = []
        closed_form = coqts._r_generator

        def counting(g, v, sym):
            calls.append((g, v, sym))
            return closed_form(g, v, sym)

        monkeypatch.setattr(coqts, "_r_generator", counting)
        monos = [m for e in exhaustive_monomials(3, 2) for m in e.terms if m.size > 1]
        for u, v in itertools.product(monos, repeat=2):
            if u.total_power == v.total_power:
                r_bicharacter(u, v, mode)
        # 36 distinct pairs here, met in 3,714 splits
        assert calls and len(calls) == len(set(calls))

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_one_coproduct_read_per_monomial(self, mode, monkeypatch):
        # each monomial's buckets are read once, at the other operand's top
        # power; the table ends as the two reads per monomial pair, each at
        # the pair's smaller power, left it
        u = Element.from_monomial(mono(("x", 2))) + Element.from_monomial(
            mono(("x", 1), ("y", 2), ("z", 2)), Fraction(-1, 2)
        )
        v = (
            Element.from_monomial(mono(("y", 3)), Fraction(2, 3))
            + Element.from_monomial(mono(("x", 1), ("z", 1), ("z", 2)))
            + Element.from_monomial(mono(("y", 1), ("y", 2), ("z", 3)), Fraction(5))
        )
        expected = twisted_product(u, v, mode)  # every pairing is now in the R table
        table = {}
        monkeypatch.setattr(hopf, "_DELTA_CACHE", table)
        reads = []
        graded = hopf._graded_coproduct

        def counting(m, cap):
            reads.append(m)
            return graded(m, cap)

        monkeypatch.setattr(coqts, "_graded_coproduct", counting)
        assert twisted_product(u, v, mode) == expected
        assert len(reads) == len(u.terms) + len(v.terms)
        pairwise = {}
        monkeypatch.setattr(hopf, "_DELTA_CACHE", pairwise)
        for mu, mv in itertools.product(u.terms, v.terms):
            cap = min(mu.total_power, mv.total_power)
            graded(mu, cap)
            graded(mv, cap)
        assert table == pairwise

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_a_warm_table_makes_no_bicharacter_call(self, mode, monkeypatch):
        # the pair of units in bucket 0 is stored like any other pairing, so
        # a repeated product reads every R(a1, b1) from the table
        u = Element.from_monomial(mono(("x", 2), ("y", 1))) + Element.from_monomial(
            mono(("z", 1)), Fraction(1, 2)
        )
        v = Element.from_monomial(mono(("w", 3))) + Element.from_monomial(
            mono(("x", 1), ("w", 1)), Fraction(3)
        )
        expected = twisted_product(u, v, mode)
        calls = []
        bicharacter = coqts.r_bicharacter

        def counting(a, b, m):
            calls.append((a, b))
            return bicharacter(a, b, m)

        monkeypatch.setattr(coqts, "r_bicharacter", counting)
        assert twisted_product(u, v, mode) == expected
        assert calls == []


class RecordingTable(dict):
    """A coproduct table that records the key of every store."""

    def __init__(self):
        super().__init__()
        self.stores = []

    def __setitem__(self, key, value):
        self.stores.append(key)
        super().__setitem__(key, value)


class TestOneContractionTable:
    def test_every_reader_reads_the_entry_a_twisted_product_stored(self, monkeypatch):
        # a twisted product at cap 1 stores the low buckets of m in the one
        # contraction table; coproduct(u) regrows that entry to every bucket
        # and replaces it, and from then on every reader reads what it stored
        m = mono(("ot", 2), ("ou", 1), ("ou", 1), ("ov", 3))
        u, v = Element.from_monomial(m), Element.from_monomial(mono(("ow", 1)))
        table = RecordingTable()
        monkeypatch.setattr(hopf, "_DELTA_CACHE", table)

        def other_tables():
            return {
                name: len(value) for name, value in vars(hopf).items()
                if name.startswith("_DELTA") and value is not table
            }

        others = other_tables()
        twisted_product(u, v)
        low = table[m]
        assert len(low) == 2
        keys = set(table)
        hopf.coproduct(u)
        stored = table[m]
        assert stored is not low and len(stored) == m.total_power + 1
        assert stored[:2] == low
        assert table.stores.count(m) == 2 and set(table) == keys
        readers = [
            lambda: hopf.coproduct(u),
            lambda: hopf.monomial_coproduct(m),
            lambda: hopf.monomial_reduced(m),
            lambda: hopf.coaction(u),
            lambda: hopf.antipode(u),
            lambda: twisted_product(u, u),
        ]
        for read in readers:
            read()
        for k in range(m.total_power + 2):
            assert hopf._graded_coproduct(m, k) is stored
        assert table[m] is stored and table.stores.count(m) == 2
        assert other_tables() == others


# sha256 of str(u o v), one line per product, over every ordered pair of
# the 55 monomials of exhaustive_monomials(2, 3), each with its own rational
# coefficient; written from an earlier coproduct walk, so a change to how
# the coproduct is grown or grouped must print the same bytes
TWISTED_GOLDEN = {
    RMode.CHRONOLOGICAL: "61d756a95b416f76474e0cb38b401c92fc7b24f1974d49430f76fa8f9ab11d56",
    RMode.OPERATOR: "ecb7258bf765dfb306004e4d970e2a7976a9ffef508caea8d06b2144da2b9e1c",
}


@pytest.mark.parametrize("mode", BOTH_MODES)
def test_twisted_products_match_the_golden_hash(mode):
    monos = [m for e in exhaustive_monomials(2, 3) for m in e.terms]
    elems = [Element.from_monomial(m, Fraction(i + 1, 2 * i + 3)) for i, m in enumerate(monos)]
    digest = hashlib.sha256()
    for u in elems:
        for v in elems:
            digest.update(str(twisted_product(u, v, mode)).encode() + b"\n")
    assert digest.hexdigest() == TWISTED_GOLDEN[mode]


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


class TestModeMembers:
    # a string mode used to read as operator mode, and a cached operator
    # value answered it once the bicharacter table was warm
    def test_string_mode_is_rejected_with_a_warm_cache(self):
        x, y = phi("x"), phi("y")
        u, v = mono(("x", 1), ("y", 1)), mono(("z", 2))
        for mode in BOTH_MODES:
            twisted_product(x, y, mode)
            r_bicharacter(u, v, mode)
        for mode in ("feynman", "wightman", None, True):
            with pytest.raises(ModeError):
                twisted_product(x, y, mode)
            with pytest.raises(ModeError):
                twisted_product(Element.zero(), y, mode)
            with pytest.raises(ModeError):
                r_bicharacter(u, v, mode)
            with pytest.raises(ModeError):
                r_generators(Generator("x", 1), Generator("y", 2), mode)

    # the unit and unequal-power short-cuts returned before reading the mode
    def test_short_cuts_read_the_mode(self):
        for mode in ("feynman", "wightman", None, True):
            with pytest.raises(ModeError):
                r_bicharacter(UNIT, UNIT, mode)
            with pytest.raises(ModeError):
                r_bicharacter(mono(("x", 1)), mono(("y", 2)), mode)

    # the chronological-only entry points named the string's own mode as the
    # one they require: chronological(u, "feynman") asked for "feynman"
    def test_string_mode_is_not_a_member_in_chronological_only_calls(self):
        u = phi("x") * phi("y")
        for mode in ("feynman", "wightman", None, True):
            with pytest.raises(ModeError, match="RMode member"):
                chronological(u, mode)
            with pytest.raises(ModeError, match="RMode member"):
                t_functional(u, mode)
            with pytest.raises(ModeError, match="RMode member"):
                t_expansion_identity(u, mode)

    def test_operator_mode_keeps_each_gate_message(self):
        u = phi("x") * phi("y")
        with pytest.raises(ModeError, match="chronological product requires"):
            chronological(u, RMode.OPERATOR)
        with pytest.raises(ModeError, match="t is defined through"):
            t_functional(u, RMode.OPERATOR)
        with pytest.raises(ModeError, match="expansion identity lives"):
            t_expansion_identity(u, RMode.OPERATOR)

    def test_generator_pairing_is_the_bicharacter_of_one_generator_monomials(self):
        gens = [Generator(p, n) for p in ("x", "y") for n in (1, 2, 3)]
        for mode in BOTH_MODES:
            for g, h in itertools.product(gens, repeat=2):
                assert r_generators(g, h, mode) == r_bicharacter(
                    Monomial.of(g), Monomial.of(h), mode
                )


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
