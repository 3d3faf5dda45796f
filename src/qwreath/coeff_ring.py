"""Exact scalars: rationals, rational functions in named parameters, and
prime fields.

Three variants, all immutable and canonical, so ``==`` is mathematical
equality and ``bool(x)`` is a zero test:

* plain rationals: an ``int`` when integral, else a
  :class:`fractions.Fraction`.  The two mix exactly under ``+ - *``, compare
  and hash alike (``2 == Fraction(2)``) and print alike, so the integral
  structure constants of a rational pack run on int arithmetic.  Only true
  division needs care, as ``int / int`` is a float: library code divides
  rationals in this module alone (see ``echelon_pivots``);
* :class:`RatFun`, fractions of sparse polynomials in named parameters
  with ``int`` coefficients: a Laurent numerator over a denominator with
  no monomial factor, so the usual denominator is a positive integer and
  its arithmetic needs no polynomial gcd.  Sums and products are memoized
  by value in two LRU caches of 4,096 entries each: values are canonical,
  so a remembered result is the exact answer and may be shared.  The
  bound holds every distinct operand pair of each benchmark job (at most
  529 per operation) and of ``K_(5)^2`` on affine_hecke and qt_hecke (196
  and 1,076 pairs); a long run keeps making new pairs, so no cache over
  scalars may be unbounded;
* :class:`GFElement`, residues in a prime field.

Ints embed into every variant and Fractions into RatFun; every other
cross-variant combination raises :class:`MixedVariant`.  An integral
rational is an int, so it is also a valid prime-field operand: elements
over packs of different fields are kept apart by the packs, whose elements
refuse to combine with those of another pack.  Every stored coefficient
is a nonzero scalar of the pack's field: the sparse sums' public
constructors store what :meth:`Field.coerce` makes of each coefficient,
and drop the zeros.
"""

from __future__ import annotations

import ast
import warnings
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from operator import add, eq, mul, sub, truediv


class MixedVariant(TypeError):
    """Scalars from incompatible fields were combined."""


class DivisionByZero(ZeroDivisionError):
    """Division by a zero scalar."""


class DenominatorVanishes(ZeroDivisionError):
    """A specialization sent a denominator to zero."""


class UnboundParameter(KeyError):
    """A specialization left a parameter without a value."""


def declare_param(name: str) -> "RatFun":
    # monomials are keyed by name, so a parameter needs no registration
    return _new({((name, 1),): 1}, _ONE_DEN)


# ---------------------------------------------------------------------------
# sparse polynomials: dict monomial -> nonzero int, monomial = ((name, exp),
# ...) sorted by name with all exponents nonzero; the empty tuple is the
# constant monomial, the empty dict is zero.  A RatFun numerator may carry
# negative exponents (a Laurent polynomial); the gcd and division routines
# take polynomials only.

_ONE_DEN = {(): 1}  # shared by every RatFun over 1; never mutated
_ONE_NUM = {(): 1}  # the numerator of one; never mutated


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1:
        (x, e), = a
        (y, f), = b
        if x == y:
            return ((x, e + f),) if e + f else ()
        return (a[0], b[0]) if x < y else (b[0], a[0])
    d = dict(a)
    for name, e in b:
        ne = d.get(name, 0) + e
        if ne:
            d[name] = ne
        else:
            del d[name]
    return tuple(sorted(d.items()))


def _mono_div(a, b):
    d = dict(a)
    for name, e in b:
        ne = d.get(name, 0) - e
        if ne < 0:
            return None
        if ne:
            d[name] = ne
        else:
            d.pop(name, None)
    return tuple(sorted(d.items()))


def _mono_inv(m):
    return tuple((name, -e) for name, e in m)


def _mono_gcd(f):
    """The monomial whose exponent of each name is the least over f's terms
    (an absent name counts 0); f over it has no monomial factor and no
    negative exponent."""
    low = ((n, min(dict(m).get(n, 0) for m in f)) for n in _pnames(f))
    return tuple((n, e) for n, e in low if e)


def _shift(f, m):
    # f times the monomial m
    return {_mono_mul(k, m): c for k, c in f.items()} if m else f


def _padd(f, g):
    out = dict(f)
    for m, c in g.items():
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        else:
            del out[m]
    return out


def _pneg(f):
    return {m: -c for m, c in f.items()}


def _pscale(f, k):
    return {m: c * k for m, c in f.items()} if k != 1 else f


def _pmul(f, g):
    if len(g) == 1:
        f, g = g, f
    if len(f) == 1:
        (m1, c1), = f.items()
        if not m1:
            return _pscale(g, c1)
        return {_mono_mul(m1, m2): c1 * c2 for m2, c2 in g.items()}
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _pnames(*polys):
    names = set()
    for f in polys:
        for m in f:
            for n, _ in m:
                names.add(n)
    return sorted(names)


def _grlex(names):
    """Sort key of the graded lexicographic order; names must cover the
    monomials it is applied to."""
    def key(m):
        d = dict(m)
        return (sum(d.values()), tuple(d.get(n, 0) for n in names))
    return key


def _plead(f, names):
    # graded lexicographic leading monomial
    m = max(f, key=_grlex(names))
    return m, f[m]


def _pdiv_exact(f, g):
    """Divide f by g over the integers, which must be exact.  Raises
    ValueError otherwise."""
    if not g:
        raise DivisionByZero("polynomial division by zero")
    if not f:
        return {}
    key = _grlex(_pnames(f, g))
    gm = max(g, key=key)
    gc = g[gm]
    q = {}
    r = dict(f)
    while r:
        rm = max(r, key=key)
        mq = _mono_div(rm, gm)
        c, rest = divmod(r[rm], gc)
        if mq is None or rest:
            raise ValueError("inexact polynomial division")
        q[mq] = c  # leading monomials strictly fall, so mq is new
        for m2, c2 in g.items():
            mm = _mono_mul(mq, m2)
            nc = r.get(mm, 0) - c * c2
            if nc:
                r[mm] = nc
            else:
                r.pop(mm, None)
    return q


def _as_uni(f, x):
    # split off the powers of x: degree -> polynomial in the other names
    out = {}
    for m, c in f.items():
        deg = 0
        rest = []
        for name, e in m:
            if name == x:
                deg = e
            else:
                rest.append((name, e))
        coef = out.setdefault(deg, {})
        coef[tuple(rest)] = c  # distinct monomials of f stay distinct
    return out


def _from_uni(u, x):
    out = {}
    for deg, coef in u.items():
        xm = ((x, deg),) if deg else ()
        for m, c in coef.items():
            out[_mono_mul(m, xm)] = c
    return out


def _prem(F, G):
    # pseudo-remainder in the main variable of univariate views F, G
    F = {d: dict(c) for d, c in F.items()}
    n = max(G)
    gl = G[n]
    while F:
        m = max(F)
        if m < n:
            break
        fl = F.pop(m)
        newF = {}
        for d2, c in F.items():
            newF[d2] = _pmul(gl, c)
        for d2, c in G.items():
            if d2 == n:
                continue
            nd = d2 + m - n
            newF[nd] = _padd(newF.get(nd, {}), _pneg(_pmul(fl, c)))
        F = {dd: cc for dd, cc in newF.items() if cc}
    return F


def _uni_content(u, rest):
    cont = {}
    for coef in u.values():
        cont = _gcd_rec(cont, coef, rest)
    return cont


def _eval_poly(f, point):
    """f at point, a dict name -> value; raises UnboundParameter on a name
    the point does not bind."""
    total = 0
    try:
        for m, c in f.items():
            val = c
            for name, e in m:
                val *= point[name] ** e
            total += val
    except KeyError as exc:
        raise UnboundParameter(exc.args[0]) from None
    return total


def _gcd_rec(f, g, names):
    """A gcd of f and g in Z[names], unique up to sign: the gcd of the
    contents in the last name times the last remainder of the primitive
    polynomial remainder sequence (Brown 1971; Knuth, TAOCP vol. 2,
    4.6.1)."""
    if not f:
        return dict(g)
    if not g:
        return dict(f)
    if not names:
        return {(): gcd(f[()], g[()])}
    x = names[-1]
    rest = names[:-1]
    fu = _as_uni(f, x)
    gu = _as_uni(g, x)
    if set(fu) == {0} and set(gu) == {0}:
        return _gcd_rec(f, g, rest)
    cf = _uni_content(fu, rest)
    cg = _uni_content(gu, rest)
    ppf = {d: _pdiv_exact(c, cf) for d, c in fu.items()}
    ppg = {d: _pdiv_exact(c, cg) for d, c in gu.items()}
    cont = _gcd_rec(cf, cg, rest)
    A, B = (ppf, ppg) if max(ppf) >= max(ppg) else (ppg, ppf)
    while B:
        R = _prem(A, B)
        if R:
            rc = _uni_content(R, rest)
            R = {d: _pdiv_exact(c, rc) for d, c in R.items()}
        A, B = B, R
    return _pmul(_from_uni(A, x), cont)


# rendering ------------------------------------------------------------------

def _term_str(m, c) -> str:
    if not m:
        return str(c)
    body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return f"{c}*{body}"


def _pstr(f) -> str:
    if not f:
        return "0"
    parts = []
    for m in sorted(f, key=_grlex(_pnames(f)), reverse=True):
        t = _term_str(m, f[m])
        if parts and not t.startswith("-"):
            parts.append("+" + t)
        else:
            parts.append(t)
    return "".join(parts)


# canonical forms ------------------------------------------------------------
# Each helper returns a (num, den) pair in RatFun's canonical form.

def _over_int(num, n):
    """num / n for a nonzero int n."""
    if n == 1:
        return num, _ONE_DEN
    g = gcd(n, *num.values())
    if n < 0:
        g = -g
    if g != 1:
        n //= g
        num = {m: c // g for m, c in num.items()}
    return num, (_ONE_DEN if n == 1 else {(): n})


def _normalize(num, den):
    """num / den when gcd(num, den) is a constant and den has no monomial
    factor: fix the sign of den and divide out the common integer content."""
    if not num:
        return {}, _ONE_DEN
    if len(den) == 1:
        return _over_int(num, den[()])
    g = gcd(*num.values(), *den.values())
    if _plead(den, _pnames(den))[1] < 0:
        g = -g
    if g != 1:
        num = {m: c // g for m, c in num.items()}
        den = {m: c // g for m, c in den.items()}
    return num, den


def _cancel(num, den):
    """Divide num and den, den without monomial factor, by their
    polynomial gcd."""
    if len(num) <= 1 or len(den) == 1:
        return num, den  # a term and a polynomial share only a constant
    m = _mono_gcd(num)
    poly = _shift(num, _mono_inv(m))
    g = _gcd_rec(poly, den, _pnames(poly, den))
    if not any(g):
        return num, den
    return _shift(_pdiv_exact(poly, g), m), _pdiv_exact(den, g)


def _reduce(num, den):
    """num / den for a Laurent num and a nonzero Laurent den."""
    if not num:
        return {}, _ONE_DEN
    inv = _mono_inv(_mono_gcd(den))
    num, den = _cancel(_shift(num, inv), _shift(den, inv))
    return _normalize(num, den)


def _inverse(num, den):
    # den / num; the pair is already coprime
    inv = _mono_inv(_mono_gcd(num))
    return _normalize(_shift(den, inv), _shift(num, inv))


def _int_poly(x):
    """(f, n) with f an int polynomial and n a positive int, x = f / n; x is
    an int, a Fraction or a dict of int or Fraction coefficients."""
    if isinstance(x, (int, Fraction)):
        x = {(): x}
    n = lcm(*(Fraction(c).denominator for c in x.values()))
    return {m: int(c * n) for m, c in x.items() if c}, n


def _as_quotient(x):
    """num and den of x with the monomial denominator folded back out of
    num: two polynomials without negative exponents."""
    lift = tuple((n, -e) for n, e in _mono_gcd(x.num) if e < 0)
    return _shift(x.num, lift), _shift(x.den, lift)


# ---------------------------------------------------------------------------

class RatFun:
    """Rational function in named parameters with rational coefficients.

    Stored as ``num / den``, two sparse polynomials with ``int``
    coefficients.  ``num`` is a Laurent polynomial: the monomial part of the
    denominator is folded into its negative exponents.  The form is
    canonical:

    * num and den have no common factor of positive degree;
    * den has no monomial factor, so a one-term den is a positive integer;
    * the graded-lex leading coefficient of den is positive;
    * the integer contents of num and den are coprime.

    So structurally equal means equal, and zero is ``{}`` over 1.  When
    both denominators are integers, ``*`` and ``+`` are one sparse product
    or sum and one integer gcd.  Fractions appear only at the boundary:
    construction from one, ``str``, ``as_fraction``, ``specialize`` and the
    hash of a constant, which equals the hash of its Fraction.

    ``+`` and ``*`` are memoized, after coercion and the product-by-one
    short cut, in ``_sum`` and ``_product``: ``lru_cache``s keyed by the
    two operands' values, never by their ids (an id is reused once its
    object is freed).  Values are immutable and canonical, and ``==`` and
    ``hash`` agree on them, so the remembered result is the exact answer
    and may be shared between callers, as ``x * 1`` already returns ``x``.
    The work repeats heavily: most operand pairs of a certification come
    back, 99 % of those reaching the memos in the pro_p PBW report at
    degree 2.  Each cache holds 4,096 entries.  That is more than the
    distinct pairs per operation of any benchmark job (529 sums in the
    pro_p crossing identity at d = 4) and than all pairs of ``K_(5)^2``
    on affine_hecke (196) and qt_hecke (1,076).  pro_p ``K_(4)^2`` alone
    makes 12,769 distinct pairs and ``K_(5)^2`` 1.13 million, so an
    unbounded cache would grow without end; there the bounded one keeps
    only recent pairs.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        n, a = _int_poly(num)
        d, b = _int_poly(1 if den is None else den)
        if not d:
            raise DivisionByZero("zero denominator")
        num, den = _reduce(_pscale(n, b), _pscale(d, a))
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    # arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFun):
            return x
        if isinstance(x, int):
            return _new({(): x} if x else {}, _ONE_DEN)
        if isinstance(x, Fraction):
            return _new(*_over_int({(): x.numerator} if x else {}, x.denominator))
        return None

    @staticmethod
    def _refuse(other):
        if isinstance(other, GFElement):
            raise MixedVariant("cannot mix rational-function and prime-field scalars")
        return NotImplemented

    def __add__(self, other):
        o = other if type(other) is RatFun else self._coerce(other)
        if o is None:
            return self._refuse(other)
        return _sum(self, o)

    __radd__ = __add__

    def __neg__(self):
        return _new(_pneg(self.num), self.den)

    def __sub__(self, other):
        o = other if type(other) is RatFun else self._coerce(other)
        if o is None:
            return self._refuse(other)
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = other if type(other) is RatFun else self._coerce(other)
        if o is None:
            return self._refuse(other)
        # values are immutable, so a product by one may return the other factor
        if o.num == _ONE_NUM and o.den == _ONE_DEN:
            return self
        if self.num == _ONE_NUM and self.den == _ONE_DEN:
            return o
        return _product(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is RatFun else self._coerce(other)
        if o is None:
            return self._refuse(other)
        if not o.num:
            raise DivisionByZero("division by zero scalar")
        return _times(self.num, self.den, *_inverse(o.num, o.den))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            if not self.num:
                raise DivisionByZero("inverse of zero scalar")
            base, n = _new(*_inverse(self.num, self.den)), -n
        return power(base, n, _ONE)

    # structure ------------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = other if type(other) is RatFun else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        num, den = self.num, self.den
        if len(den) == 1 and not any(num):
            # constants hash like the Fraction they compare equal to
            h = hash(Fraction(num.get((), 0), den[()]))
        else:
            h = hash((frozenset(num.items()), frozenset(den.items())))
        _set_hash(self, h)
        return h

    def parameters(self) -> tuple[str, ...]:
        return tuple(_pnames(self.num, self.den))

    def as_fraction(self) -> Fraction:
        if self.parameters():
            raise UnboundParameter(self.parameters()[0])
        return Fraction(self.num.get((), 0), self.den[()])

    def __str__(self):
        # printed as num/den over Q with den monic in graded-lex order
        num, den = _as_quotient(self)
        lc = _plead(den, _pnames(den))[1]
        if lc != 1:
            num = {m: Fraction(c, lc) for m, c in num.items()}
            den = {m: Fraction(c, lc) for m, c in den.items()}
        num_s = _pstr(num)
        if den == _ONE_DEN:
            return num_s
        if len(num) > 1:
            num_s = f"({num_s})"
        den_simple = (
            len(den) == 1
            and next(iter(den.values())) == 1
            and len(next(iter(den))) == 1
        )
        den_s = _pstr(den)
        if not den_simple:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self):
        return f"RatFun({self})"


_set_num = RatFun.num.__set__
_set_den = RatFun.den.__set__
_set_hash = RatFun._hash.__set__


def _new(num, den):
    # a RatFun from a pair already in canonical form
    r = object.__new__(RatFun)
    _set_num(r, num)
    _set_den(r, den)
    return r


def _times(n1, d1, n2, d2):
    """(n1/d1) * (n2/d2) for two canonical pairs."""
    if len(d1) == 1 and len(d2) == 1:
        n = d1[()] * d2[()]
        num = _pmul(n1, n2)
        return _new(num, _ONE_DEN) if n == 1 else _new(*_over_int(num, n))
    # each pair is coprime, so only n1 with d2 and n2 with d1 can cancel
    n1, d2 = _cancel(n1, d2)
    n2, d1 = _cancel(n2, d1)
    return _new(*_normalize(_pmul(n1, n2), _pmul(d1, d2)))


# entries in each of the two memos of RatFun arithmetic (see RatFun)
_MEMO_SIZE = 4096


@lru_cache(maxsize=_MEMO_SIZE)
def _sum(x, y):
    """x + y for two RatFuns."""
    d1, d2 = x.den, y.den
    if len(d1) == 1 and len(d2) == 1:
        a, b = d1[()], d2[()]
        if a == b:
            return _new(*_over_int(_padd(x.num, y.num), a))
        g = gcd(a, b)
        num = _padd(_pscale(x.num, b // g), _pscale(y.num, a // g))
        return _new(*_over_int(num, a // g * b))
    num = _padd(_pmul(x.num, d2), _pmul(y.num, d1))
    return _new(*_reduce(num, _pmul(d1, d2)))


@lru_cache(maxsize=_MEMO_SIZE)
def _product(x, y):
    """x * y for two RatFuns."""
    return _times(x.num, x.den, y.num, y.den)


_ONE = _new({(): 1}, _ONE_DEN)


class GFElement:
    """Residue in the prime field of the given characteristic."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v):
        if isinstance(v, Fraction):
            if v.denominator % p == 0:
                raise DenominatorVanishes(f"denominator divisible by {p}")
            v = v.numerator * pow(v.denominator, -1, p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v", v % p)

    def __setattr__(self, *a):
        raise AttributeError("GFElement is immutable")

    def _coerce(self, x):
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise MixedVariant(f"mixed characteristics {self.p} and {x.p}")
            return x
        if isinstance(x, int):
            return GFElement(self.p, x)
        if isinstance(x, (Fraction, RatFun)):
            raise MixedVariant("cannot mix prime-field scalars with rationals")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise DivisionByZero("division by zero scalar")
        return GFElement(self.p, self.v * pow(o.v, -1, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            if self.v == 0:
                raise DivisionByZero("inverse of zero scalar")
            return GFElement(self.p, pow(self.v, -1, self.p)) ** (-n)
        return GFElement(self.p, pow(self.v, n, self.p))

    def __bool__(self):
        return self.v != 0

    # an int equals only the canonical residue, so that equal values hash
    # alike: GFElement(5, 2) == 2 but != 7
    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return other == self.v
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __str__(self):
        return str(self.v)

    def __repr__(self):
        return f"GFElement({self.p}, {self.v})"


# ---------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def _rational(c: int | Fraction):
    """The rational c as an int when it is integral, else c itself."""
    return c.numerator if c.denominator == 1 else c


class Field:
    """Handle naming the ground field; builds scalars of a single variant.

    A rational scalar it builds is an ``int`` when integral and a
    ``Fraction`` otherwise; a rational-function scalar is a RatFun and a
    prime-field scalar a GFElement."""

    RATIONAL = "rational"
    RATFUN = "ratfun"
    PRIME = "prime"

    __slots__ = ("kind", "p", "_zero", "_one", "is_one")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in (self.RATIONAL, self.RATFUN, self.PRIME):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == self.PRIME:
            if p is None or not _is_prime(p):
                raise ValueError(f"characteristic must be prime, got {p!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_zero", self.coerce(0))
        object.__setattr__(self, "_one", self.coerce(1))
        # is_one(c): whether the scalar c is one
        object.__setattr__(self, "is_one", partial(eq, self._one))

    def __setattr__(self, *a):
        raise AttributeError("Field is immutable")

    @staticmethod
    def rationals() -> "Field":
        return Field(Field.RATIONAL)

    @staticmethod
    def rational_functions() -> "Field":
        return Field(Field.RATFUN)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(Field.PRIME, p)

    def zero(self):
        """The field's zero, one shared immutable constant."""
        return self._zero

    def one(self):
        """The field's one, one shared immutable constant."""
        return self._one

    def coerce(self, x):
        """x as a scalar of this field: an int or a Fraction maps into the
        field, a scalar of the field's own variant is kept, and anything
        else raises MixedVariant."""
        if isinstance(x, (int, Fraction)):
            if self.kind == self.RATIONAL:
                return _rational(x)
            return RatFun._coerce(x) if self.p is None else GFElement(self.p, x)
        if type(x) is type(self._one) and getattr(x, "p", None) == self.p:
            return x
        raise MixedVariant(f"{_quoted(repr(x))} is not a scalar of {self!r}")

    def param(self, name: str):
        if self.kind != self.RATFUN:
            raise MixedVariant(f"field {self.kind!r} has no formal parameters")
        return declare_param(name)

    def parse(self, text: str):
        """A scalar of this field; a parameter name raises MixedVariant
        unless the field is the rational function field, also where it
        cancels, as in ``q/q``."""
        if self.kind == self.RATFUN:
            return self.coerce(parse_scalar(text))
        return self.coerce(_parse(text, self.p, names_allowed=False))

    def __eq__(self, other):
        return isinstance(other, Field) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Field({self.kind!r})" if self.p is None else f"Field({self.kind!r}, {self.p})"


# parsing / serialization ----------------------------------------------------

_BINARY = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: truediv}


def _evaluate(node, src: str, names_allowed: bool):
    """The value of a node of the tree parse_scalar reads from src."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_evaluate(node.left, src, names_allowed),
                                      _evaluate(node.right, src, names_allowed))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_evaluate(node.operand, src, names_allowed)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exp, sign = node.right, 1
        if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
            exp, sign = exp.operand, -1
        if not (isinstance(exp, ast.Constant) and ast.get_source_segment(src, exp).isdigit()):
            raise ValueError("exponent must be an integer")
        return _evaluate(node.left, src, names_allowed) ** (sign * exp.value)
    segment = ast.get_source_segment(src, node)
    if isinstance(node, ast.Constant) and segment.isdigit():
        return Fraction(node.value)
    # a letter or _, then letters, digits and _: Python's names also admit
    # combining marks and a few symbols
    if isinstance(node, ast.Name) and (segment[0] == "_" or segment[0].isalpha()) \
            and all(ch == "_" or ch.isalnum() for ch in segment):
        if not names_allowed:
            raise MixedVariant("formal parameters are not available in this field")
        return declare_param(node.id)
    raise ValueError(f"unexpected {_quoted(segment.replace('**', '^'))} in "
                     f"scalar {_quoted(src.replace('**', '^'))}")


def _quoted(text: str) -> str:
    """repr of text for an error message: at most its first 60 characters,
    then the total length when it is longer."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60]!r}... ({len(text)} characters)"


def parse_scalar(text: str):
    """Parse the canonical string form back into a scalar.

    The grammar is Python's, restricted to integer literals of digits only,
    parameter names, parentheses, unary minus, ``+ - * /`` and ``^`` with
    an integer literal, optionally negated, as exponent: ``-q^2`` is
    -(q^2) and ``^`` does not chain.  Other text, and text nested too deeply
    to parse, raises ValueError; a zero divisor raises DivisionByZero
    naming the text.  Messages quote at most the first 60 characters of the
    text.

    The result is a Fraction when parameter-free and a RatFun when names
    occur.  Literals are read as Fractions, so ``2^-1`` is exact;
    ``Field.parse`` of the rational field turns an integral result into an
    int, and that of a prime field reads the same grammar without names.
    """
    val = _parse(text, None, names_allowed=True)
    if isinstance(val, RatFun) and not val.parameters():
        return val.as_fraction()
    return val


def _parse(text: str, p: int | None, names_allowed: bool):
    """The value of text as ``parse_scalar`` reads it, a parameter-free
    RatFun left as it is, or its element of GF(p) when p is given (a
    denominator divisible by p raises DivisionByZero); a parameter name
    raises MixedVariant unless names_allowed."""
    # Python would read ** as a power and # as a comment; joining the text
    # into one line keeps line breaks and continuations from Python too
    if "**" in text or "#" in text:
        raise ValueError(f"unexpected '**' or '#' in scalar {_quoted(text)}")
    src = " ".join(text.split()).replace("^", "**")
    try:
        with warnings.catch_warnings():  # "1if" warns, then fails
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(src, mode="eval")
        val = _evaluate(tree.body, src, names_allowed)
        return val if p is None else GFElement(p, val)
    except SyntaxError as exc:
        raise ValueError(f"cannot parse scalar {_quoted(text)}: {exc.msg}") from None
    except ZeroDivisionError:
        raise DivisionByZero(f"division by zero in scalar {_quoted(text)}") from None
    except (RecursionError, MemoryError):
        # Python's parser and _evaluate give up on deep nesting with one or
        # the other
        raise ValueError(f"scalar {_quoted(text)} is nested too deeply or too "
                         "large") from None


# the types a scalar of some field can have; the algebra types multiply
# these and leave any other operand to its own reflected method
SCALARS = (int, Fraction, RatFun, GFElement)


def scalar_str(x) -> str:
    """Canonical compact string form, inverse to parse_scalar."""
    if isinstance(x, SCALARS):
        return str(x)
    raise TypeError(f"not a scalar: {x!r}")


def term_str(coeff, body, right=False) -> str:
    """The term coeff times body, coeff written before body, or after it if
    right; coeff is a string, None meaning one.  A coefficient of one is
    left out.  A leading minus that is coeff's only sign outside brackets
    moves to the front of the term, where signed_join reads it; otherwise
    coeff is bracketed when it has a sign or a slash outside brackets.  The
    sign of an exponent, as in ``x1^-1``, does not count."""
    if coeff is None or coeff == "1":
        return body
    depth, signs, slash = 0, [], False
    for i, ch in enumerate(coeff):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+-" and coeff[i - 1:i] != "^":
            signs.append(i)
        elif depth == 0 and ch == "/":
            slash = True
    if signs == [0]:
        return "-" + term_str(coeff[1:], body, right)
    if signs or slash:
        coeff = f"({coeff})"
    return f"{body}*{coeff}" if right else f"{coeff}*{body}"


def signed_join(parts) -> str:
    """Term strings as one sum: " + " before a later term, " - " before one
    that starts with "-"; "0" for no term."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def power(base, n: int, one):
    """base**n for an int n >= 0 by square-and-multiply, starting from one."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base if n > 1 else base
        n >>= 1
    return out


def specialize(x, bindings: dict[str, int | Fraction]):
    """Substitute rational values for parameters.

    The result is a plain Fraction.  Raises UnboundParameter when a
    parameter has no binding and DenominatorVanishes when the substituted
    denominator is zero.  Rational and prime-field scalars pass through.
    """
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, GFElement)):
        return x
    if not isinstance(x, RatFun):
        raise TypeError(f"not a scalar: {x!r}")

    point = {name: Fraction(v) for name, v in bindings.items()}
    num, den = _as_quotient(x)
    den = _eval_poly(den, point)
    if den == 0:
        raise DenominatorVanishes(str(x))
    return Fraction(_eval_poly(num, point)) / den


def echelon_pivots(rows) -> dict:
    """Sparse Gaussian elimination over a field.  Each row is a dict
    {column: scalar} with mutually comparable columns.  Returns the reduced
    rows keyed by their leading (smallest) column, in the order of the rows
    they came from; the rank is the number of pivots, and a free column is
    one that is not a key.  Rational entries stay exact: a quotient of two
    ints is built as a Fraction."""
    pivots = {}
    for row in rows:
        live = {c: v for c, v in row.items() if v}
        while live:
            lead = min(live)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = live
                break
            a, b = live[lead], prow[lead]
            if type(a) is int and type(b) is int:
                factor = _rational(Fraction(a, b))  # a / b would be a float
            else:
                factor = a / b
            for c, v in prow.items():
                nv = live.get(c, 0) - factor * v
                if not nv:
                    live.pop(c, None)
                else:
                    live[c] = nv
    return pivots
