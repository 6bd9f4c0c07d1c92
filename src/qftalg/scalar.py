"""Exact scalars: arbitrary-precision rationals and the commutative polynomial
ring of formal propagator symbols.

Every numeric coefficient in the package lives in this ring: rational linear
combinations of products of symbols ``D(a, b)`` (symmetric) and
``Dplus(a, b)`` (oriented).  Arithmetic is exact everywhere; no floating
point is used in any computation.

``Rational`` is :class:`fractions.Fraction`: always in lowest terms with a
positive denominator, with arbitrary-precision integer parts, which is
exactly the invariant this ring needs (factorials and binomials never
overflow).

All values are immutable after construction and safe to share across
threads; every operation is a pure function returning a new value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import MissingSymbol

Rational = Fraction

#: kind tags for propagator symbols
SYMMETRIC = "D"
ORIENTED = "Dplus"


class PropSymbol(NamedTuple):
    """A formal propagator symbol attached to an ordered pair of points.

    Symmetric symbols are canonicalized at construction (see :func:`D`) so
    that ``D(x, y)`` and ``D(y, x)`` are the identical value; oriented
    symbols (see :func:`Dplus`) preserve their point order.
    """

    kind: str
    a: str
    b: str

    def __str__(self):
        return f"{self.kind}({self.a},{self.b})"


def D(a: str, b: str) -> PropSymbol:
    """Symmetric propagator symbol; the two points are interchangeable."""
    if b < a:
        a, b = b, a
    return PropSymbol(SYMMETRIC, a, b)


def Dplus(a: str, b: str) -> PropSymbol:
    """Oriented propagator symbol from ``a`` to ``b``; order is preserved."""
    return PropSymbol(ORIENTED, a, b)


def frac_str(q: Fraction) -> str:
    """Render a rational as ``"p/q"`` with the denominator always present."""
    return f"{q.numerator}/{q.denominator}"


def parse_frac(text: str) -> Fraction:
    """Inverse of :func:`frac_str`; also accepts a bare integer string.
    A zero denominator raises :class:`ValueError`, like any malformed text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _accumulate(pairs: Iterable[tuple], acc: dict | None = None) -> dict:
    """Sum ``(key, coeff)`` pairs into ``acc`` (a new dict by default).

    This is the one summation behind every sparse combination of the
    package: a key whose coefficients cancel is dropped, so the result
    holds no zero coefficient.  Works for any coefficient type with ``+``
    and truth testing (rationals, :class:`PropPoly`).
    """
    if acc is None:
        acc = {}
    get = acc.get
    for key, coeff in pairs:
        old = get(key)
        new = coeff if old is None else old + coeff
        if new:
            acc[key] = new
        elif old is not None:
            del acc[key]
    return acc


def _signed_join(pieces: Iterable[str]) -> str:
    """Render a sum of rendered terms: ``" - "`` before a term that starts
    with ``-`` (sign dropped), ``" + "`` before any other; ``"0"`` if none."""
    out = ""
    for piece in pieces:
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out or "0"


# A polynomial monomial: sorted tuple of (symbol, exponent >= 1) pairs.
SymMap = tuple


def _merge_symmaps(s1: SymMap, s2: SymMap) -> SymMap:
    if not s1:
        return s2
    if not s2:
        return s1
    acc = dict(s1)
    for sym, exp in s2:
        acc[sym] = acc.get(sym, 0) + exp
    return tuple(sorted(acc.items()))


class PropPoly:
    """Sparse multivariate polynomial over :class:`PropSymbol` with
    :class:`~fractions.Fraction` coefficients.

    ``terms`` maps a sorted tuple of ``(symbol, exponent)`` pairs to a
    nonzero coefficient; the empty tuple is the constant monomial and the
    empty map is the zero polynomial.  Storage is canonical, so equal
    polynomials compare equal structurally.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[SymMap, Fraction] | None = None):
        clean: dict[SymMap, Fraction] = {}
        if terms:
            for symmap, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[tuple(sorted(symmap))] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "PropPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "PropPoly":
        return _ONE

    @classmethod
    def constant(cls, value) -> "PropPoly":
        value = Fraction(value)
        if not value:
            return _ZERO
        return cls._raw({(): value})

    @classmethod
    def symbol(cls, sym: PropSymbol, exponent: int = 1, coeff=1) -> "PropPoly":
        if exponent < 0:
            raise ValueError("symbol exponents must be nonnegative")
        coeff = Fraction(coeff)
        if not coeff:
            return _ZERO
        if exponent == 0:
            return cls._raw({(): coeff})
        return cls._raw({((sym, exponent),): coeff})

    @classmethod
    def from_symbol_powers(cls, powers: Iterable[tuple[PropSymbol, int]], coeff=1) -> "PropPoly":
        """Product of symbol powers times a rational; repeated symbols merge."""
        acc: dict[PropSymbol, int] = {}
        for sym, exp in powers:
            if exp:
                acc[sym] = acc.get(sym, 0) + exp
        coeff = Fraction(coeff)
        if not coeff:
            return _ZERO
        return cls._raw({tuple(sorted(acc.items())): coeff})

    @classmethod
    def _raw(cls, terms: dict) -> "PropPoly":
        # trusted constructor: terms already canonical and zero-free
        out = object.__new__(cls)
        out.terms = terms
        return out

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PropPoly.constant(other)
        if not isinstance(other, PropPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        return PropPoly._raw(_accumulate(other.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return PropPoly._raw({s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PropPoly.constant(other)
        if not isinstance(other, PropPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other) if other else _ZERO
        if not isinstance(other, PropPoly):
            return NotImplemented
        # constant polynomials scale without any symbol-map merging
        if len(other.terms) == 1 and () in other.terms:
            return self._scaled(other.terms[()])
        if len(self.terms) == 1 and () in self.terms:
            return other._scaled(self.terms[()])
        return PropPoly._raw(_accumulate(
            (_merge_symmaps(s1, s2), c1 * c2)
            for s1, c1 in self.terms.items()
            for s2, c2 in other.terms.items()
        ))

    __rmul__ = __mul__

    def _scaled(self, q) -> "PropPoly":
        # q is a nonzero rational; scaling by 1 shares the (immutable) value
        if q == 1:
            return self
        return PropPoly._raw({s: c * q for s, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in this ring")
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PropPoly.constant(other)
        if not isinstance(other, PropPoly):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- queries --------------------------------------------------------

    def is_one(self) -> bool:
        return self.terms == {(): Fraction(1)}

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def symbols(self) -> set[PropSymbol]:
        return {sym for symmap in self.terms for sym, _ in symmap}

    def sorted_terms(self) -> list[tuple[SymMap, Fraction]]:
        return sorted(self.terms.items())

    def evaluate(self, assignment: Mapping[PropSymbol, Fraction]) -> Fraction:
        """Exact substitution; every symbol occurring must be assigned."""
        total = Fraction(0)
        for symmap, coeff in self.terms.items():
            value = coeff
            for sym, exp in symmap:
                if sym not in assignment:
                    raise MissingSymbol(sym)
                value *= Fraction(assignment[sym]) ** exp
            total += value
        return total

    # -- rendering ------------------------------------------------------

    def __str__(self):
        parts = []
        for symmap, coeff in self.sorted_terms():
            factors = []
            for sym, exp in symmap:
                factors.append(str(sym) if exp == 1 else f"{sym}^{exp}")
            if not factors:
                piece = str(coeff)
            elif coeff == 1:
                piece = "*".join(factors)
            elif coeff == -1:
                piece = "-" + "*".join(factors)
            else:
                piece = "*".join([str(coeff)] + factors)
            parts.append(piece)
        return _signed_join(parts)

    def __repr__(self):
        return f"PropPoly({self})"

    def to_json(self):
        return [
            {
                "coeff": frac_str(coeff),
                "symbols": [
                    {"kind": sym.kind, "a": sym.a, "b": sym.b, "pow": exp}
                    for sym, exp in symmap
                ],
            }
            for symmap, coeff in self.sorted_terms()
        ]


_ZERO = PropPoly._raw({})
_ONE = PropPoly._raw({(): Fraction(1)})


def _poly_sum(polys: Iterable[PropPoly]) -> PropPoly:
    """Sum of polynomials, accumulated in one dict."""
    return PropPoly._raw(_accumulate(pair for p in polys for pair in p.terms.items()))


def poly_add(a: PropPoly, b: PropPoly) -> PropPoly:
    """Coefficient-wise sum; zero terms are dropped."""
    return a + b


def poly_mul(a: PropPoly, b: PropPoly) -> PropPoly:
    """Distributive product with exponent addition on shared symbols."""
    return a * b


def poly_eval(p: PropPoly, assignment: Mapping[PropSymbol, Fraction]) -> Fraction:
    """Exact evaluation; raises :class:`MissingSymbol` on uncovered symbols."""
    return p.evaluate(assignment)
