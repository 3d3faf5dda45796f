"""Exact scalars: rationals, rational functions in named parameters, and
prime fields.

Three variants, all immutable and canonical, so ``==`` is mathematical
equality and ``bool(x)`` is a zero test:

* plain rationals, represented directly by :class:`fractions.Fraction`;
* :class:`RatFun`, reduced fractions of sparse polynomials in named
  parameters with Fraction coefficients and a monic denominator;
* :class:`GFElement`, residues in a prime field.

Ints and Fractions embed into RatFun implicitly; every other cross-variant
combination raises :class:`MixedVariant`.
"""

from __future__ import annotations

from fractions import Fraction


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
    return RatFun({(((name, 1),)): Fraction(1)})


# ---------------------------------------------------------------------------
# sparse polynomials: dict monomial -> Fraction, monomial = ((name, exp), ...)
# sorted by name with all exponents positive; the empty tuple is the constant
# monomial, the empty dict is zero.

_ZERO = Fraction(0)
_ONE_POLY = {(): Fraction(1)}


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
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


def _padd(f, g):
    out = dict(f)
    for m, c in g.items():
        nc = out.get(m, _ZERO) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def _pneg(f):
    return {m: -c for m, c in f.items()}


def _psub(f, g):
    return _padd(f, _pneg(g))


def _pmul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, _ZERO) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


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


def _monic(f):
    if not f:
        return f
    _, lc = _plead(f, _pnames(f))
    if lc == 1:
        return dict(f)
    inv = 1 / lc
    return {m: c * inv for m, c in f.items()}


def _pdiv_exact(f, g):
    """Divide f by g, which must be exact. Raises ValueError otherwise."""
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
        if mq is None:
            raise ValueError("inexact polynomial division")
        c = r[rm] / gc
        q[mq] = q.get(mq, _ZERO) + c
        for m2, c2 in g.items():
            mm = _mono_mul(mq, m2)
            nc = r.get(mm, _ZERO) - c * c2
            if nc:
                r[mm] = nc
            else:
                r.pop(mm, None)
    return {m: c for m, c in q.items() if c}


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
        coef[tuple(rest)] = coef.get(tuple(rest), _ZERO) + c
    return {d: {m: c for m, c in coef.items() if c} for d, coef in out.items() if any(coef.values())}


def _from_uni(u, x):
    out = {}
    for deg, coef in u.items():
        for m, c in coef.items():
            mm = _mono_mul(m, ((x, deg),) if deg else ())
            out[mm] = out.get(mm, _ZERO) + c
    return {m: c for m, c in out.items() if c}


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
            newF[nd] = _psub(newF.get(nd, {}), _pmul(fl, c))
        F = {dd: cc for dd, cc in newF.items() if cc}
    return F


def _uni_content(u, rec_names):
    cont = {}
    for coef in u.values():
        cont = _gcd_rec(cont, coef, rec_names)
    return cont


def _uni_frac_gcd(a: dict, b: dict) -> dict:
    # Euclid on dense Fraction coefficients keyed by degree, monic result
    def monic(f):
        lc = f[max(f)]
        return {d: c / lc for d, c in f.items()} if lc != 1 else f

    while b:
        n, gl = max(b), b[max(b)]
        r = dict(a)
        while r and max(r) >= n:
            m = max(r)
            c = r.pop(m) / gl
            for d2, c2 in b.items():
                if d2 == n:
                    continue
                nd = d2 + m - n
                nc = r.get(nd, _ZERO) - c * c2
                if nc:
                    r[nd] = nc
                else:
                    r.pop(nd, None)
        a, b = b, r
    return monic(a)


def _eval_poly(f, point):
    """f at point, a dict name -> Fraction; raises UnboundParameter on a
    name the point does not bind."""
    total = Fraction(0)
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
    if not f:
        return dict(g)
    if not g:
        return dict(f)
    if not names:
        return dict(_ONE_POLY)
    x = names[-1]
    rest = names[:-1]
    fu = _as_uni(f, x)
    gu = _as_uni(g, x)
    if set(fu) == {0} and set(gu) == {0}:
        return _gcd_rec(f, g, rest)
    if not rest:
        a = {d: c[()] for d, c in fu.items()}
        b = {d: c[()] for d, c in gu.items()}
        return _from_uni({d: {(): c} for d, c in _uni_frac_gcd(a, b).items()}, x)
    cf = _uni_content(fu, rest)
    cg = _uni_content(gu, rest)
    ppf = {d: _pdiv_exact(c, cf) for d, c in fu.items()}
    ppg = {d: _pdiv_exact(c, cg) for d, c in gu.items()}
    cont = _gcd_rec(cf, cg, rest)
    # Coprimality filter: evaluate the spectator names at a point keeping
    # the leading coefficient of ppf nonzero.  A unit gcd of the images
    # certifies that the primitive parts are coprime.
    lead = ppf[max(ppf)]
    for seed in range(1, 8):
        point = {n: Fraction(seed + i) for i, n in enumerate(rest)}
        if _eval_poly(lead, point) == 0:
            continue
        a = {d: _eval_poly(c, point) for d, c in ppf.items()}
        a = {d: c for d, c in a.items() if c}
        b = {d: _eval_poly(c, point) for d, c in gu.items()}
        b = {d: c for d, c in b.items() if c}
        if not b:
            break
        if max(_uni_frac_gcd(a, b)) == 0:
            return cont
        break
    A, B = (ppf, ppg) if max(ppf) >= max(ppg) else (ppg, ppf)
    while B:
        R = _prem(A, B)
        if R:
            rc = _uni_content(R, rest)
            R = {d: _pdiv_exact(c, rc) for d, c in R.items()}
        A, B = B, R
    return _pmul(_from_uni(A, x), cont)


def _pgcd(f, g):
    """Monic gcd of two parameter polynomials over the rationals."""
    if not f and not g:
        return {}
    if not f:
        return _monic(g)
    if not g:
        return _monic(f)
    if () in f and len(f) == 1:
        return dict(_ONE_POLY)
    if () in g and len(g) == 1:
        return dict(_ONE_POLY)
    names = _pnames(f, g)
    if not names:
        return dict(_ONE_POLY)
    return _monic(_gcd_rec(f, g, names))


# rendering ------------------------------------------------------------------

def _frac_str(c: Fraction) -> str:
    return str(c)


def _term_str(m, c) -> str:
    if not m:
        return _frac_str(c)
    body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return f"{_frac_str(c)}*{body}"


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


# ---------------------------------------------------------------------------

def _cancel_monomial(num, den):
    """Reduce num/den when one side is a single term: the gcd is then the
    shared monomial factor, no Euclid needed."""
    one_sided = num if len(num) == 1 else den
    other = den if one_sided is num else num
    (mono, _), = one_sided.items()
    if not mono:
        return num, den
    shared = {}
    for name, exp in mono:
        low = exp
        for m in other:
            got = 0
            for n, e in m:
                if n == name:
                    got = e
                    break
            low = min(low, got)
            if low == 0:
                break
        if low > 0:
            shared[name] = low
    if not shared:
        return num, den
    g = tuple(sorted(shared.items()))

    def strip(poly):
        return {_mono_div(m, g): c for m, c in poly.items()}

    return strip(num), strip(den)


class RatFun:
    """Rational function in named parameters, stored in lowest terms.

    The denominator is monic in graded-lex order; a zero value has an empty
    numerator.  Construction reduces, so structurally equal means equal.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = {(): Fraction(num)} if num else {}
        if den is None:
            den = dict(_ONE_POLY)
        elif isinstance(den, (int, Fraction)):
            if not den:
                raise DivisionByZero("zero denominator")
            den = {(): Fraction(den)}
        if not den:
            raise DivisionByZero("zero denominator")
        num = {m: Fraction(c) for m, c in num.items() if c}
        den = {m: Fraction(c) for m, c in den.items() if c}
        if not num:
            den = dict(_ONE_POLY)
        else:
            num_const = len(num) == 1 and () in num
            den_const = len(den) == 1 and () in den
            if den != _ONE_POLY and not (num_const or den_const):
                if len(num) == 1 or len(den) == 1:
                    num, den = _cancel_monomial(num, den)
                else:
                    g = _pgcd(num, den)
                    if g != _ONE_POLY and g != {}:
                        num = _pdiv_exact(num, g)
                        den = _pdiv_exact(den, g)
            if den != _ONE_POLY:
                _, lc = _plead(den, _pnames(den))
                if lc != 1:
                    inv = 1 / lc
                    num = {m: c * inv for m, c in num.items()}
                    den = {m: c * inv for m, c in den.items()}
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    # arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFun):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFun(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, GFElement):
                raise MixedVariant("cannot mix rational-function and prime-field scalars")
            return NotImplemented
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return RatFun(num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFun(_pneg(self.num), dict(self.den))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, GFElement):
                raise MixedVariant("cannot mix rational-function and prime-field scalars")
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, GFElement):
                raise MixedVariant("cannot mix rational-function and prime-field scalars")
            return NotImplemented
        return RatFun(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, GFElement):
                raise MixedVariant("cannot mix rational-function and prime-field scalars")
            return NotImplemented
        if not o.num:
            raise DivisionByZero("division by zero scalar")
        return RatFun(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.num:
                raise DivisionByZero("inverse of zero scalar")
            return RatFun(dict(self.den), dict(self.num)) ** (-n)
        out = RatFun(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # structure ------------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.den == _ONE_POLY and set(self.num) <= {()}:
                # constants hash like the Fraction they compare equal to
                h = hash(self.num.get((), _ZERO))
            else:
                h = hash((frozenset(self.num.items()), frozenset(self.den.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def parameters(self) -> tuple[str, ...]:
        names = set()
        for m in (*self.num, *self.den):
            for n, _ in m:
                names.add(n)
        return tuple(sorted(names))

    def as_fraction(self) -> Fraction:
        if self.parameters():
            raise UnboundParameter(self.parameters()[0])
        num = self.num.get((), _ZERO)
        den = self.den.get((), Fraction(1))
        return num / den

    def __str__(self):
        num_s = _pstr(self.num)
        if self.den == _ONE_POLY:
            return num_s
        if len(self.num) > 1:
            num_s = f"({num_s})"
        den_simple = (
            len(self.den) == 1
            and next(iter(self.den.values())) == 1
            and len(next(iter(self.den))) == 1
        )
        den_s = _pstr(self.den)
        if not den_simple:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self):
        return f"RatFun({self})"


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

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

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


class Field:
    """Handle naming the ground field; builds scalars of a single variant."""

    RATIONAL = "rational"
    RATFUN = "ratfun"
    PRIME = "prime"

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in (self.RATIONAL, self.RATFUN, self.PRIME):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == self.PRIME:
            if p is None or not _is_prime(p):
                raise ValueError(f"characteristic must be prime, got {p!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

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
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        if self.kind == self.RATIONAL:
            return Fraction(n)
        if self.kind == self.RATFUN:
            return RatFun(n)
        return GFElement(self.p, n)

    def from_fraction(self, c: Fraction):
        if self.kind == self.RATIONAL:
            return Fraction(c)
        if self.kind == self.RATFUN:
            return RatFun(c)
        return GFElement(self.p, Fraction(c))

    def param(self, name: str):
        if self.kind != self.RATFUN:
            raise MixedVariant(f"field {self.kind!r} has no formal parameters")
        return declare_param(name)

    def parse(self, text: str):
        """A scalar of this field; a parameter name raises MixedVariant
        unless the field is the rational function field."""
        val = parse_scalar(text, p=self.p if self.kind == self.PRIME else None)
        if self.kind == self.RATFUN:
            return RatFun(val) if isinstance(val, Fraction) else val
        if isinstance(val, RatFun):
            raise MixedVariant(f"field {self.kind!r} has no formal parameters")
        return val

    def __eq__(self, other):
        return isinstance(other, Field) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Field({self.kind!r})" if self.p is None else f"Field({self.kind!r}, {self.p})"


# parsing / serialization ----------------------------------------------------

def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in scalar {text!r}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens, names_allowed: bool):
        self.tokens = tokens
        self.pos = 0
        self.names_allowed = names_allowed

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        val = self.term()
        while self.peek() in "+-":
            op = self.next()[0]
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            rhs = self.factor()
            val = val * rhs if op == "*" else val / rhs
        return val

    def factor(self):
        if self.peek() == "-":
            self.next()
            return -self.factor()
        val = self.primary()
        if self.peek() == "^":
            self.next()
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            kind, n = self.next()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            val = val ** (sign * n)
        return val

    def primary(self):
        kind, v = self.next()
        if kind == "int":
            return Fraction(v)
        if kind == "name":
            if not self.names_allowed:
                raise MixedVariant("formal parameters are not available in this field")
            return declare_param(v)
        if kind == "(":
            val = self.expr()
            kind, _ = self.next()
            if kind != ")":
                raise ValueError("unbalanced parentheses")
            return val
        raise ValueError(f"unexpected token {kind!r}")


def parse_scalar(text: str, p: int | None = None):
    """Parse the canonical string form back into a scalar.

    With ``p`` the result is a prime-field element and parameter names are
    rejected.  Otherwise the result is a Fraction when parameter-free and a
    RatFun when names occur.
    """
    parser = _Parser(_tokenize(text), names_allowed=p is None)
    val = parser.expr()
    if parser.peek() != "end":
        raise ValueError(f"trailing input in scalar {text!r}")
    if p is not None:
        return GFElement(p, val if isinstance(val, Fraction) else Fraction(val))
    if isinstance(val, RatFun) and not val.parameters():
        return val.as_fraction()
    return val


def scalar_str(x) -> str:
    """Canonical compact string form, inverse to parse_scalar."""
    if isinstance(x, (int, Fraction, RatFun, GFElement)):
        return str(x)
    raise TypeError(f"not a scalar: {x!r}")


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
    den = _eval_poly(x.den, point)
    if den == 0:
        raise DenominatorVanishes(str(x))
    return _eval_poly(x.num, point) / den


def is_zero(x) -> bool:
    return not x


def echelon_pivots(rows) -> dict:
    """Sparse Gaussian elimination over a field.  Each row is a dict
    {column: scalar} with mutually comparable columns.  Returns the reduced
    rows keyed by their leading (smallest) column; the rank is the number of
    pivots, and a free column is one that is not a key."""
    pivots = {}
    for row in rows:
        live = {c: v for c, v in row.items() if not is_zero(v)}
        while live:
            lead = min(live)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = live
                break
            factor = live[lead] / prow[lead]
            for c, v in prow.items():
                nv = live.get(c, 0) - factor * v
                if is_zero(nv):
                    live.pop(c, None)
                else:
                    live[c] = nv
    return pivots
