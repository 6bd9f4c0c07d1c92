"""The public names of qftalg, pinned so that an unchanged API is checked
rather than asserted: the package namespace, the functions and classes
each module defines, and the public attributes of the core classes."""

import importlib
import re
import types
from pathlib import Path

import qftalg
from qftalg import coqts, hopf, renorm

PACKAGE = [
    "AdjacencyTerm", "D", "DegreeSequence", "Dplus", "Element", "ElementFamily",
    "ExprSyntaxError", "Generator", "IdentityViolation", "LawFailure", "LawReport",
    "MissingSymbol", "ModeError", "Monomial", "NotInKernel", "PointId", "PowerError",
    "PropPoly", "PropSymbol", "QftAlgError", "RMode", "Rational", "Tensor",
    "UnsupportedFormat", "Vertex", "VertexWord", "antipode", "check_antipode",
    "check_bialgebra", "check_coalgebra", "check_comodule_coalgebra", "chronological",
    "coaction", "comodule_expansion_check", "connected_T", "coproduct", "coproduct_prime",
    "counit", "enumerate_adjacency", "export_graphs", "frac_str", "identity_vertex",
    "is_connected", "normal_product", "normalize", "parse", "poly_add", "poly_eval",
    "poly_mul", "r_bicharacter", "r_generators", "reduced_prime", "reduced_prime_iter",
    "renormalized_T", "t_c_functional", "t_connected_via_graphs", "t_expansion_identity",
    "t_functional", "t_via_graphs", "twisted_product", "zero_vertex",
]

MODULES = {
    "scalar": ["D", "Dplus", "PropPoly", "PropSymbol", "frac_str", "parse_frac", "poly_add",
               "poly_eval", "poly_mul"],
    "hopf": ["Element", "Generator", "Monomial", "Tensor", "VertexWord", "antipode",
             "coaction", "coproduct", "coproduct_prime", "counit", "kernel_project",
             "monomial_coaction", "monomial_coproduct", "monomial_coproduct_prime",
             "monomial_reduced", "monomial_reduced_prime", "normal_product", "normalize",
             "reduced_prime", "reduced_prime_iter", "word_coproduct_prime"],
    "coqts": ["RMode", "chronological", "r_bicharacter", "r_generators",
              "t_expansion_identity", "t_functional", "t_monomial", "twisted_product"],
    "graphs": ["AdjacencyTerm", "DegreeSequence", "enumerate_adjacency", "export_graphs",
               "is_connected", "t_connected_via_graphs", "t_via_graphs"],
    "renorm": ["Vertex", "comodule_expansion_check", "connected_T", "identity_vertex",
               "renormalized_T", "t_c_functional", "zero_vertex"],
    "laws": ["ElementFamily", "LawFailure", "LawReport", "bialgebra_family", "check_antipode",
             "check_bialgebra", "check_coalgebra", "check_comodule_coalgebra",
             "comodule_family", "default_family", "exhaustive_monomials", "mutated_coproduct",
             "random_elements", "run_all_checks"],
    "expr": ["parse"],
    "cli": ["build_parser", "main"],
    "errors": ["ExprSyntaxError", "IdentityViolation", "MissingSymbol", "ModeError",
               "NotInKernel", "PowerError", "QftAlgError", "UnsupportedFormat"],
}

CLASSES = {
    "PropPoly": ["constant", "constant_term", "evaluate", "from_symbol_powers", "is_one",
                 "one", "sorted_terms", "symbol", "symbols", "terms", "to_json", "zero"],
    "Monomial": ["append", "factors", "from_occurrences", "is_unit", "occurrences", "of",
                 "size", "split_first", "split_last", "to_json", "total_power", "unit"],
    "Element": ["counit", "from_generator", "from_monomial", "one", "scalar", "sorted_terms",
                "terms", "to_json", "zero"],
    "Tensor": ["apply_to_slot", "arity", "counit_slot", "element", "from_element",
               "merge_slots", "pairwise_product", "scale", "sorted_terms", "swap", "terms",
               "to_json"],
    "VertexWord": ["count", "emptied", "index", "is_unit", "to_json", "vertices"],
    "Vertex": ["apply", "from_json", "image", "rules"],
}


def public(names):
    return sorted(n for n in names if not n.startswith("_"))


def test_package_namespace():
    names = (n for n, v in vars(qftalg).items() if not isinstance(v, types.ModuleType))
    assert public(names) == PACKAGE


def test_module_definitions():
    for name, expected in MODULES.items():
        mod = importlib.import_module(f"qftalg.{name}")
        defined = (
            n for n, v in vars(mod).items() if getattr(v, "__module__", None) == mod.__name__
        )
        assert public(defined) == expected, name


def test_class_attributes():
    for name, expected in CLASSES.items():
        assert public(dir(getattr(qftalg, name))) == expected, name


def test_proppoly_representation_is_private():
    # only scalar.py knows how a PropPoly stores its terms (keyed by
    # interned symbol-monomial ids); every other module goes through its
    # operators, its tuple-keyed ``terms`` and scalar._accumulate
    private = ("PropPoly._raw", "._terms", "_SYMMAP_CACHE", "_SYMMAPS", "_SYMMAP_PRODUCT_CACHE",
               "_symmap_id", "_INTERN_LOCK")
    for path in sorted(Path(qftalg.__file__).parent.glob("*.py")):
        if path.name == "scalar.py":
            continue
        text = path.read_text(encoding="utf-8")
        for name in private:
            assert name not in text, f"{path.name} names {name}"


def test_identity_violation_is_raised_in_one_place():
    # every identity check compares through coqts._expansion_identity, so
    # that is the one place an IdentityViolation is built
    built = re.compile(r"(?<!class )\bIdentityViolation\(")
    for path in sorted(Path(qftalg.__file__).parent.glob("*.py")):
        found = len(built.findall(path.read_text(encoding="utf-8")))
        assert found == (1 if path.name == "coqts.py" else 0), path.name


# _accumulate only adds: it is called at the merges whose keys can collide
# (Element and Tensor sums, merge_slots, the coproduct walk and the set
# partitions); every product of coefficients goes through _poly_dots
ACCUMULATE_CALLS = {"hopf.py": 4, "renorm.py": 1}


def test_accumulate_is_called_only_at_the_merges():
    called = re.compile(r"(?<!def )\b_accumulate\(")
    for path in sorted(Path(qftalg.__file__).parent.glob("*.py")):
        found = len(called.findall(path.read_text(encoding="utf-8")))
        assert found == ACCUMULATE_CALLS.get(path.name, 0), path.name



# A pure function of monomials is memoised by functools.cache; a module-level
# dict stays only where it stores more than one entry per call (the coproducts
# keep each monomial they grow from), keys on a reduced argument (the
# bicharacter reads its mode as its propagator) or interns under a lock.
CACHE_DICTS = {
    "coqts._R_CACHE", "hopf._DELTA_CACHE", "hopf._DELTA_PRIME_CACHE", "hopf._MONOMIAL_CACHE",
    "scalar._SYMMAP_CACHE", "scalar._SYMMAP_PRODUCT_CACHE",
}
CACHED_FUNCTIONS = {
    "coqts._chronological_monomial", "coqts._coproduct_by_power", "hopf._antipode_monomial",
    "hopf._binomial_split", "hopf._monomial_product", "renorm._partitions",
    "renorm._t_c_word",
}


def test_memo_tables_are_pinned():
    names = {
        f"{module}.{name}": value
        for module in MODULES
        for name, value in vars(importlib.import_module(f"qftalg.{module}")).items()
    }
    assert {n for n, v in names.items() if isinstance(v, dict) and "CACHE" in n} == CACHE_DICTS
    assert {n for n, v in names.items() if hasattr(v, "cache_info")} == CACHED_FUNCTIONS


def test_cached_functions_hit_on_a_repeated_call():
    m = qftalg.Monomial.from_occurrences(
        qftalg.Generator(p, n) for p, n in [("x", 2), ("y", 1), ("y", 1)]
    )
    u = qftalg.Element.from_monomial(m)
    calls = [
        (hopf._monomial_product, lambda: m * m),
        (hopf._antipode_monomial, lambda: qftalg.antipode(u)),
        (coqts._coproduct_by_power, lambda: qftalg.twisted_product(u, u, qftalg.RMode.OPERATOR)),
        (coqts._chronological_monomial, lambda: qftalg.chronological(m)),
        (renorm._t_c_word, lambda: qftalg.comodule_expansion_check(u)),
        (renorm._partitions, lambda: renorm._partitions(m)),
    ]
    for fn, call in calls:
        call()
        before = fn.cache_info()
        call()
        after = fn.cache_info()
        assert after.misses == before.misses, fn.__name__
        assert after.hits > before.hits, fn.__name__


# wickbench/tracer.py reads these names when it wraps the library, so
# deleting one breaks every traced benchmark run while the rest of tier-1
# passes.  ROADMAP item 1 retires this test: its benchmark change makes
# the tracer read counters and a cache registry instead.
TRACER_READS = (
    "coqts._R_CACHE", "hopf._DELTA_CACHE", "hopf._DELTA_PRIME_CACHE",
    "renorm._reduced_partition_terms",
)


def test_names_the_benchmark_tracer_reads_resolve():
    for dotted in TRACER_READS:
        module, name = dotted.split(".")
        assert hasattr(importlib.import_module(f"qftalg.{module}"), name), dotted
