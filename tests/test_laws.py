from qftalg.hopf import Element, Monomial, coproduct
from qftalg.laws import (
    ElementFamily,
    bialgebra_family,
    check_antipode,
    check_bialgebra,
    check_coalgebra,
    check_comodule_coalgebra,
    comodule_family,
    default_family,
    exhaustive_monomials,
    mutated_coproduct,
    random_elements,
)
from qftalg.scalar import PropPoly

from qft_oracles import phi


def small_family(seed=0, random_count=10):
    members = exhaustive_monomials(max_generators=2, max_power=2) + random_elements(
        seed, random_count, max_generators=2, max_power=2
    )
    return ElementFamily("small", tuple(members))


def test_family_generation_deterministic():
    a = random_elements(42, 5)
    b = random_elements(42, 5)
    assert a == b
    assert random_elements(43, 5) != a


def test_exhaustive_monomial_count():
    # 9 generators over 3 points with powers <= 3: multisets of size <= 3
    fam = exhaustive_monomials()
    assert len(fam) == 1 + 9 + 45 + 165


def test_coalgebra_checkers_pass():
    fam = small_family()
    for which in ("delta", "delta-prime"):
        report = check_coalgebra(which, fam)
        assert report.passed, report.summary()
        assert report.checked == len(fam.members)


def test_bialgebra_checker_passes():
    fam = small_family(random_count=5)
    report = check_bialgebra(fam)
    assert report.passed
    assert report.checked == len(fam.members) ** 2


def test_antipode_checker_passes():
    report = check_antipode(small_family(random_count=5))
    assert report.passed


def test_comodule_checker_reports_known_discrepancy():
    # The contraction coproduct used as the coaction reads its left factor
    # as a Wick monomial, dropping emptied vertices.  The right side then
    # counts the all-trivial splitting once per subset of the word, the
    # left side once.  The checker must pin that exact discrepancy on phi(x).
    u = phi("x")
    report = check_comodule_coalgebra(ElementFamily("one", (u,)), coproduct_fn=coproduct)
    assert report.checked == 1
    assert len(report.failures) == 1
    failure = report.failures[0]
    diff = failure.rhs - failure.lhs
    unit = Monomial.unit()
    m = next(iter(u.terms))
    assert diff.terms == {(unit, unit, m): PropPoly.one()}


def test_comodule_checker_passes_only_on_unit():
    # The dropping coaction passes on the unit and fails on phi(x); the
    # coaction on vertex words passes on both.
    unit = ElementFamily("unit", (Element.one(),))
    one = ElementFamily("one", (phi("x"),))
    assert check_comodule_coalgebra(unit, coproduct_fn=coproduct).passed
    assert not check_comodule_coalgebra(one, coproduct_fn=coproduct).passed
    assert check_comodule_coalgebra(unit).passed
    assert check_comodule_coalgebra(one).passed


def test_mutated_coproduct_detected():
    fam = small_family(random_count=3)
    report = check_coalgebra("delta", fam, coproduct_fn=mutated_coproduct)
    assert not report.passed


def test_report_json_shape():
    report = check_coalgebra("delta", ElementFamily("tiny", (phi("x"),)))
    data = report.to_json()
    assert data == {"law": "coalgebra(delta)", "checked": 1, "failures": []}


def test_default_families_sizes():
    assert len(default_family(0, 10).members) == 220 + 10
    assert len(bialgebra_family(0, 10).members) == 55 + 10
    assert len(comodule_family(0, 10).members) == 84 + 10
