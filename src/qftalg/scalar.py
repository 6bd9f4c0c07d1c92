"""Exact scalars: arbitrary-precision rationals and the commutative polynomial
ring of formal propagator symbols.

Every numeric coefficient in the package lives in this ring: rational linear
combinations of products of symbols ``D(a, b)`` (symmetric) and
``Dplus(a, b)`` (oriented).  Arithmetic is exact everywhere; no floating
point is used in any computation.

``Rational`` is :class:`fractions.Fraction`: always in lowest terms with a
positive denominator, with arbitrary-precision integer parts, which is
exactly the invariant this ring needs (factorials and binomials never
overflow).  A :class:`PropPoly` stores an integral coefficient as an
``int`` and any other as a ``Fraction``: both are ``numbers.Rational`` and
an integral ``Fraction`` equals and hashes like its ``int``, so the choice
never shows in equality or rendering.  Every polynomial product and sum
goes through one multiply-accumulate kernel, :func:`_poly_dots`, which
does no ``Fraction`` arithmetic: it adds integer numerators over one
common denominator per result and builds a ``Fraction`` only for a
result coefficient that is not integral.

Symbol monomials are interned: each canonical ``(symbol, exponent)`` tuple
gets a small int id for the life of the process (``0`` is the constant
monomial), and a :class:`PropPoly` keys its terms by these ids.  The
product of two ids is one lookup in a table keyed by the unordered id
pair; the tuples are merged only the first time a pair is multiplied, in
either order.  Interning never gives one tuple two ids, also under
threads, and both tables grow only with the distinct monomials and pairs
a session multiplies.  Ids never leave this module:
:attr:`PropPoly.terms` maps them back to tuples, and a pickled polynomial
carries its tuples.

All values are immutable after construction and safe to share across
threads; every operation is a pure function returning a new value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from threading import Lock
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


def _rational(value) -> int | Fraction:
    """``value`` as an exact rational: an ``int`` if integral, else a
    ``Fraction`` (anything ``Fraction()`` accepts)."""
    if type(value) is int:
        return value
    q = value if type(value) is Fraction else Fraction(value)
    return q.numerator if q.denominator == 1 else q


def frac_str(q: Fraction | int) -> str:
    """Render a rational as ``"p/q"`` with the denominator always present,
    so an ``int`` ``p`` reads ``"p/1"``."""
    return f"{q.numerator}/{q.denominator}"


_FRAC_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_frac(text: str) -> Fraction:
    """Inverse of :func:`frac_str`; also accepts a bare integer string.
    Any other text (a decimal point, an exponent, a sign other than a
    leading ``-``, spaces or underscores) or a zero denominator raises
    :class:`ValueError`."""
    if not _FRAC_RE.fullmatch(text):
        raise ValueError(f"rational must read p/q or an integer, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _accumulate(pairs: Iterable[tuple], acc: dict | None = None) -> dict:
    """Sum ``(key, coeff)`` pairs into ``acc`` (a new dict by default).

    This is the summation for merges whose keys can collide and whose
    coefficients are only added, never multiplied: the sum of two elements
    or two tensors, :meth:`~qftalg.hopf.Tensor.merge_slots`, the
    integer-coefficient coproduct and set-partition tables.  A product of
    coefficients goes through :func:`_poly_dots` instead, and a re-keying
    whose keys cannot collide is a dict comprehension.  A key whose
    coefficients cancel is dropped, so the result holds no zero
    coefficient.  Works for any coefficient type with ``+`` and truth
    testing (integers, :class:`PropPoly`).
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

#: symbol monomial <-> id (0 is ``()``); dicts that intern under the lock
_SYMMAP_CACHE: dict[SymMap, int] = {(): 0}
_SYMMAPS: list[SymMap] = [()]
_INTERN_LOCK = Lock()
#: (id, id) -> id of the product; a dict read inline by _poly_dots, whose misses intern
_SYMMAP_PRODUCT_CACHE: dict[tuple[int, int], int] = {}


def _symmap_id(symmap: SymMap) -> int:
    """The id of a canonical symbol monomial, assigned on first sight.

    The tuple is stored under its id before the id is published, and the
    lock makes the check-and-assign one step, so a reader that finds an id
    always finds its tuple and no tuple is ever given two ids.
    """
    sid = _SYMMAP_CACHE.get(symmap)
    if sid is None:
        with _INTERN_LOCK:
            sid = _SYMMAP_CACHE.get(symmap)
            if sid is None:
                sid = len(_SYMMAPS)
                _SYMMAPS.append(symmap)
                _SYMMAP_CACHE[symmap] = sid
    return sid


def _merge_counts(a: tuple, b: tuple) -> tuple:
    """Merge two tuples of ``(key, count)`` pairs sorted by key, adding the
    counts of a key present in both: the product of two symbol monomials,
    or of two Wick monomials' ``(generator, multiplicity)`` factors."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        g, h = a[i][0], b[j][0]
        if g == h:
            out.append((g, a[i][1] + b[j][1]))
            i += 1
            j += 1
        elif g < h:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class PropPoly:
    """Sparse multivariate polynomial over :class:`PropSymbol` with exact
    rational coefficients, each an ``int`` when integral and a
    :class:`~fractions.Fraction` otherwise.

    ``terms`` maps a sorted tuple of ``(symbol, exponent)`` pairs to a
    nonzero coefficient; the empty tuple is the constant monomial and the
    empty map is the zero polynomial.  Storage is canonical, so equal
    polynomials compare equal structurally.  The constructor accepts any
    ``(symbol, exponent)`` iterables as keys: repeated symbols merge, zero
    exponents drop, and keys that become equal are summed.

    The terms are stored keyed by interned symbol-monomial ids (see the
    module docstring); ``terms`` builds the tuple-keyed dict on each read,
    so the operators and queries of this class work on the ids instead.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[SymMap, Fraction] | None = None):
        self._terms = _poly_sum(
            PropPoly.from_symbol_powers(symmap, coeff) for symmap, coeff in (terms or {}).items()
        )._terms

    @property
    def terms(self) -> dict[SymMap, int | Fraction]:
        """A new dict from each sorted ``(symbol, exponent)`` tuple to its
        nonzero coefficient."""
        return {_SYMMAPS[s]: c for s, c in self._terms.items()}

    def __reduce__(self):
        # ids are local to a process, so a pickle carries the tuples
        return PropPoly, (self.terms,)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "PropPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "PropPoly":
        return _ONE

    @classmethod
    def constant(cls, value) -> "PropPoly":
        value = _rational(value)
        if not value:
            return _ZERO
        return cls._raw({0: value})

    @classmethod
    def symbol(cls, sym: PropSymbol, exponent: int = 1, coeff=1) -> "PropPoly":
        return cls.from_symbol_powers(((sym, exponent),), coeff)

    @classmethod
    def from_symbol_powers(cls, powers: Iterable[tuple[PropSymbol, int]], coeff=1) -> "PropPoly":
        """Product of symbol powers times a rational; repeated symbols merge
        and zero exponents drop."""
        acc: dict[PropSymbol, int] = {}
        for sym, exp in powers:
            # an equal float or bool exponent would be interned in place of
            # the int one and reach every later lookup of that symbol map
            if type(exp) is not int:
                raise ValueError(f"symbol exponents must be integers, got {exp!r}")
            if exp < 0:
                raise ValueError("symbol exponents must be nonnegative")
            if exp:
                acc[sym] = acc.get(sym, 0) + exp
        coeff = _rational(coeff)
        if not coeff:
            return _ZERO
        return cls._raw({_symmap_id(tuple(sorted(acc.items()))): coeff})

    @classmethod
    def _raw(cls, terms: dict) -> "PropPoly":
        # trusted constructor: terms keyed by symbol-monomial id, zero-free,
        # every integral coefficient an int
        out = object.__new__(cls)
        out._terms = terms
        return out

    # -- ring operations ----------------------------------------------

    # Each operator tests for a PropPoly operand by its exact type first:
    # Fraction is an abstract base class, so isinstance against it runs
    # ABCMeta.__instancecheck__, in Python.

    def __add__(self, other):
        if type(other) is not PropPoly:
            if isinstance(other, (int, Fraction)):
                other = PropPoly.constant(other)
            elif not isinstance(other, PropPoly):
                return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        return _poly_sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return PropPoly._raw({s: -c for s, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not PropPoly and not isinstance(other, (int, Fraction, PropPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not PropPoly and not isinstance(other, (int, Fraction, PropPoly)):
            return NotImplemented
        return _poly_dot(((other, self),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in this ring")
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is not PropPoly:
            if isinstance(other, (int, Fraction)):
                other = PropPoly.constant(other)
            elif not isinstance(other, PropPoly):
                return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        """The number of terms."""
        return len(self._terms)

    # -- queries --------------------------------------------------------

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get(0, 0))

    def symbols(self) -> set[PropSymbol]:
        return {sym for s in self._terms for sym, _ in _SYMMAPS[s]}

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
_ONE = PropPoly._raw({0: 1})


def _poly_dots(entries: Iterable[tuple]) -> dict:
    """``{key: sum k*a*b}`` over weighted ``(key, k, a, b)`` entries, ``k``
    an integer or rational weight, ``a`` a rational or a :class:`PropPoly`
    and ``b`` a :class:`PropPoly`.

    This is the one multiply-accumulate of the ring, behind every product
    and sum of polynomials, and it does no ``Fraction`` arithmetic.  A
    rational ``a`` joins the weight, so one loop serves every entry.  Each
    key sums ``int`` numerators over one running denominator ``den``,
    starting at 1.  A term product ``n/d`` is read from the integer parts
    of ``k``, ``a`` and ``b`` (``numerator`` and ``denominator``; an
    ``int`` has ``d = 1``) and adds ``n * (den // d)``; a ``d`` that does
    not divide ``den`` first raises ``den`` to ``lcm(den, d)`` and rescales
    that key's numerators once.  The denominators are products of the
    inputs' small denominators, so ``den`` changes only a few times per
    key.  A term is dropped where its sum reaches zero, and a zero product
    is never stored, so each key's accumulator becomes the result's
    storage: only at the end is each coefficient reduced, by one gcd, and
    stored as an ``int`` when integral and a ``Fraction`` otherwise; a key
    with no term left is dropped.  No polynomial is built per entry.  The
    product of two symbol monomials is looked up by their ids, smaller id
    first, in ``_SYMMAP_PRODUCT_CACHE``; only a pair not seen in either
    order is merged.
    """
    accs: dict = {}
    dens: dict = {}  # the running denominator of each key that has one above 1
    product = _SYMMAP_PRODUCT_CACHE.get
    for key, k, a, b in entries:
        acc = accs.get(key)
        if acc is None:
            acc = accs[key] = {}
            den = 1
        else:
            den = dens.get(key, 1) if dens else 1
        get = acc.get
        if type(k) is int:
            kn, kd = k, 1
        else:
            kn, kd = k.numerator, k.denominator
        if not isinstance(a, PropPoly):
            kn, kd, a = kn * a.numerator, kd * a.denominator, _ONE
        for s1, c1 in a._terms.items():
            if type(c1) is int:
                n1, d1 = kn * c1, kd
            else:
                n1, d1 = kn * c1.numerator, kd * c1.denominator
            for s2, c in b._terms.items():
                if not s1:
                    s = s2
                elif not s2:
                    s = s1
                else:
                    pair = (s1, s2) if s1 < s2 else (s2, s1)
                    s = product(pair)
                    if s is None:
                        # threads that meet a new pair at once store one id
                        s = _SYMMAP_PRODUCT_CACHE[pair] = _symmap_id(
                            _merge_counts(_SYMMAPS[s1], _SYMMAPS[s2])
                        )
                if type(c) is int:
                    n, d = n1 * c, d1
                else:
                    n, d = n1 * c.numerator, d1 * c.denominator
                if d != den:
                    if den % d:
                        den = dens[key] = _rescaled(acc, den, d)
                    n *= den // d
                old = get(s)
                if old is not None:
                    n += old
                if n:
                    acc[s] = n
                elif old is not None:
                    del acc[s]
    for key, den in dens.items():
        acc = accs[key]
        for s, n in acc.items():
            acc[s] = n // den if n % den == 0 else Fraction(n, den)
    return {key: PropPoly._raw(acc) for key, acc in accs.items() if acc}


def _rescaled(acc: dict, den: int, d: int) -> int:
    """Raise the common denominator ``den`` of the numerators in ``acc`` to
    ``lcm(den, d)``, rescaling them in place; returns the new denominator."""
    scale = d // gcd(den, d)
    for s in acc:
        acc[s] *= scale
    return den * scale


def _poly_dot(pairs: Iterable[tuple]) -> PropPoly:
    """``sum a*b`` over ``(a, b)`` pairs: :func:`_poly_dots` under one key,
    each pair of weight 1."""
    return _poly_dots((None, 1, a, b) for a, b in pairs).get(None, _ZERO)


def _poly_sum(polys: Iterable[PropPoly]) -> PropPoly:
    """Sum of polynomials, accumulated in one dict."""
    return _poly_dot((1, p) for p in polys)


def poly_add(a: PropPoly, b: PropPoly) -> PropPoly:
    """Coefficient-wise sum; zero terms are dropped."""
    return a + b


def poly_mul(a: PropPoly, b: PropPoly) -> PropPoly:
    """Distributive product with exponent addition on shared symbols."""
    return a * b


def poly_eval(p: PropPoly, assignment: Mapping[PropSymbol, Fraction]) -> Fraction:
    """Exact evaluation; raises :class:`MissingSymbol` on uncovered symbols."""
    return p.evaluate(assignment)
