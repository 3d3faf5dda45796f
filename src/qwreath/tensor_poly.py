"""Polynomials and Laurent polynomials over tensor powers of F: the ring
B^{tensor d} = F^{tensor d}[x_1..x_d], the place permutation action, plain
and twisted divided differences, and a localized wrapper whose denominators
are products of (x_i - x_j) and P_{ij} factors.

The twisted divided difference rho_i(f*x^e) = sigma_i(f) * d_i(x^e) *
beta_{i,i+1} is local: beta_{i,i+1} is the unit outside slots i and i+1, so
rho_i changes a monomial only there.  It is read from a per-pack table of
rho_1 on two-slot monomials, each entry built once from the definition,
with no TensorPoly product per call."""

from __future__ import annotations

from collections import Counter
from itertools import product as iproduct
from operator import add

from .coeff_ring import SCALARS, echelon_pivots, power, scalar_str, signed_join, term_str
from .base_algebra import FTensor, IdentityFailed, SparseSum, _Frozen, pack_cached
from .symcomb import blocks, simple


class SizeMismatch(ValueError):
    pass


class InvarianceViolation(ValueError):
    """Raised when a stored value fails its required symmetry."""


class TensorPoly(SparseSum):
    """Element of F^{tensor d}[x_1..x_d]; keys are pairs (exponent vector,
    F-basis index vector).  Laurent variant admits negative exponents,
    polynomial variant rejects them.  Every stored coefficient is a nonzero
    scalar of the pack's field: the public constructor checks every key,
    then keeps each ``field.coerce(c)`` that is not zero.

    No operation changes ``terms`` after construction, so results may
    share their term dict with an operand (a product by the unit returns
    the other factor itself)."""

    __slots__ = ("params", "d", "terms")

    def __init__(self, params, d, terms=None):
        self.params = params
        self.d = d
        clean = {}
        if terms:
            laurent = params.variant == "laurent"
            coerce = params.field.coerce
            for (exps, fkey), c in terms.items():
                if len(exps) != d or len(fkey) != d:
                    raise SizeMismatch(f"term arity differs from d={d}")
                if not laurent and any(e < 0 for e in exps):
                    raise ValueError("negative exponent in polynomial variant")
                c = coerce(c)
                if c:
                    clean[(tuple(exps), tuple(fkey))] = c
        self.terms = clean

    # construction helpers

    def _kept(self, terms):
        """A result in the same ring with the terms of the dict terms, all
        nonzero.  Keys made by the ring operations already have arity d
        and, in the polynomial variant, nonnegative exponents."""
        out = object.__new__(TensorPoly)
        out.params = self.params
        out.d = self.d
        out.terms = terms
        return out

    def _unit_coeff(self):
        """c if self is c times (1⊗…⊗1)·x⁰, else None."""
        if len(self.terms) != 1:
            return None
        ((exps, fkey), c), = self.terms.items()
        if any(exps) or fkey.count(self.params.algebra.unit_index) != self.d:
            return None
        return c

    def _same_space(self, other):
        if self.params is not other.params or self.d != other.d:
            raise SizeMismatch("operands live in different rings")

    # arithmetic

    def __mul__(self, other):
        if not isinstance(other, TensorPoly):
            return self.scale(other) if isinstance(other, SCALARS) else NotImplemented
        self._same_space(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        # the unit is central, so c·1 on either side is scaling by c
        is_one = self.params.field.is_one
        c = other._unit_coeff()
        if c is not None:
            return self if is_one(c) else self.scale(c)
        c = self._unit_coeff()
        if c is not None:
            return other if is_one(c) else other.scale(c)
        # right-hand terms once per call: None stands for x⁰
        right = [(e2 if any(e2) else None, f2, c2) for (e2, f2), c2 in other.terms.items()]
        slot_product = self.params.algebra.slot_product
        out = {}
        for (e1, f1), c1 in self.terms.items():
            for e2, f2, c2 in right:
                exps = e1 if e2 is None else tuple(map(add, e1, e2))
                c12 = c1 * c2
                for fkey, sc in slot_product(f1, f2):
                    c = c12 * sc
                    k = (exps, fkey)
                    v = out.get(k)
                    out[k] = c if v is None else v + c
        return self._like(out)

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, SCALARS) else NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a TensorPoly")
        return power(self, n, unit_poly(self.params, self.d))

    # structure maps

    def place_permute(self, w) -> "TensorPoly":
        """Slot i moves to slot w[i], both x's and F-legs; a ring map."""
        if len(w) != self.d:
            raise SizeMismatch("permutation size differs from d")
        out = {}
        for (exps, fkey), c in self.terms.items():
            ne = [0] * self.d
            nf = [0] * self.d
            for i in range(self.d):
                ne[w[i]] = exps[i]
                nf[w[i]] = fkey[i]
            out[(tuple(ne), tuple(nf))] = c
        return self._kept(out)

    def place_permute_simple(self, i) -> "TensorPoly":
        """Swap adjacent slots i, i+1."""
        j = i + 1
        out = {}
        for (exps, fkey), c in self.terms.items():
            ne = list(exps)
            nf = list(fkey)
            ne[i], ne[j] = ne[j], ne[i]
            nf[i], nf[j] = nf[j], nf[i]
            out[(tuple(ne), tuple(nf))] = c
        return self._kept(out)

    def demazure(self, i) -> "TensorPoly":
        """Divided difference in x_i, x_{i+1}; F-legs ride along unchanged.
        Valid for negative exponents: the signed geometric sum form."""
        j = i + 1
        out = {}
        for (exps, fkey), c in self.terms.items():
            k, l = exps[i], exps[j]
            if k == l:
                continue
            # the k < l sum is the k > l one with k and l swapped, negated
            hi, lo, c = (k, l, c) if k > l else (l, k, -c)
            base = list(exps)
            for step in range(hi - lo):
                base[i], base[j] = hi - 1 - step, lo + step
                key = (tuple(base), fkey)
                v = out.get(key)
                out[key] = c if v is None else v + c
        return self._like(out)

    def twisted_demazure(self, i) -> "TensorPoly":
        """rho_i: monomial f*x^e goes to sigma_i(f) * (divided difference of
        x^e) * beta_{i,i+1}.  Only the F-legs are flipped before the
        difference; flipping the x-part too would negate it.

        Every factor is the unit outside slots i and i+1 and the unit of F is
        two-sided, so each term changes only in those two slots: its image
        is the term with slots i, i+1 replaced by the terms of rho_1 of the
        two-slot monomial (e_a x1^k) ⊗ (e_b x2^l), read from the pack's
        table ``_two_slot_rho`` and scaled by the term's coefficient."""
        j = i + 1
        params = self.params
        out = {}
        for (exps, fkey), c in self.terms.items():
            k, l = exps[i], exps[j]
            if k == l:
                continue
            ne, nf = list(exps), list(fkey)
            for (ke, le), (a, b), c2 in _two_slot_rho(params, k, l, fkey[i], fkey[j]):
                ne[i], ne[j] = ke, le
                nf[i], nf[j] = a, b
                key = (tuple(ne), tuple(nf))
                c12 = c * c2
                v = out.get(key)
                out[key] = c12 if v is None else v + c12
        return self._like(out)

    # rendering

    def _term_str(self, key) -> str:
        (exps, fkey), c = key, self.terms[key]
        labels = self.params.algebra.labels
        fpart = "(" + "⊗".join(labels[i] for i in fkey) + ")"
        xs = []
        for i, e in enumerate(exps):
            if e == 1:
                xs.append(f"x{i + 1}")
            elif e != 0:
                xs.append(f"x{i + 1}^{e}")
        return term_str(scalar_str(c), "*".join([fpart] + xs))

    def __str__(self):
        return signed_join([self._term_str(k)
                            for k in sorted(self.terms, reverse=True)])

    def factor_str(self):
        """self as the coefficient of a basis element H_w or v[idx], for
        term_str: None for the unit, else str(self)."""
        c = self._unit_coeff()
        if c is not None and self.params.field.is_one(c):
            return None
        return str(self)


# constructors ------------------------------------------------------------------

def zero_poly(params, d) -> TensorPoly:
    return TensorPoly(params, d)


def unit_key(params, d):
    """The key of (1⊗…⊗1)·x⁰."""
    return (0,) * d, (params.algebra.unit_index,) * d


def unit_poly(params, d) -> TensorPoly:
    return TensorPoly(params, d, {unit_key(params, d): params.field.one()})


def x_var(params, d, i) -> TensorPoly:
    exps = tuple(1 if k == i else 0 for k in range(d))
    key = (exps, (params.algebra.unit_index,) * d)
    return TensorPoly(params, d, {key: params.field.one()})


def monomial(params, d, fkey, exps, coeff=None) -> TensorPoly:
    c = params.field.one() if coeff is None else coeff
    return TensorPoly(params, d, {(tuple(exps), tuple(fkey)): c})


def monomial_box(params, d, degree) -> list:
    """The monomials f*x^e of F^{tensor d}[x] with every exponent at most
    degree, as ((F-key, exponents), monomial) pairs, F-keys outermost and
    both in lexicographic order."""
    return [((fkey, exps), monomial(params, d, fkey, exps))
            for fkey in iproduct(range(params.algebra.dim), repeat=d)
            for exps in iproduct(range(degree + 1), repeat=d)]


def of_ftensor(params, d, ft: FTensor) -> TensorPoly:
    if ft.arity != d:
        raise SizeMismatch("tensor arity differs from d")
    zero_exps = (0,) * d
    return TensorPoly(params, d, {(zero_exps, key): c for key, c in ft.terms.items()})


# named elements, cached in the pack's memo per (d, i, j) --------------------------

@pack_cached
def alpha_ij(params, d, a, b) -> TensorPoly:
    return of_ftensor(params, d, params.alpha.embed((a, b), d))


@pack_cached
def abar_ij(params, d, a, b) -> TensorPoly:
    return of_ftensor(params, d, params.alpha_bar.embed((a, b), d))


@pack_cached
def s_ij(params, d, a, b) -> TensorPoly:
    return of_ftensor(params, d, params.s_elt.embed((a, b), d))


@pack_cached
def r_ij(params, d, a, b) -> TensorPoly:
    return of_ftensor(params, d, params.r_elt.embed((a, b), d))


@pack_cached
def beta_ij(params, d, a, b) -> TensorPoly:
    out = zero_poly(params, d)
    for (r, s), delta in params.deltas.items():
        if not delta:
            continue
        exps = [0] * d
        exps[a] = r
        exps[b] = s
        part = {(tuple(exps), key): c for key, c in delta.embed((a, b), d).terms.items()}
        out = out + TensorPoly(params, d, part)
    return out


@pack_cached
def _two_slot_rho(params, k, l, a, b):
    """rho_1 of (e_a x1^k) ⊗ (e_b x2^l) at d = 2, from the definition: flip
    the legs, take the divided difference, multiply by beta_12.  The terms
    as ((k', l'), (a', b'), coeff) triples."""
    legs = monomial(params, 2, (b, a), (k, l))
    image = legs.demazure(0) * beta_ij(params, 2, 0, 1)
    return tuple((exps, fkey, c) for (exps, fkey), c in image.terms.items())


@pack_cached
def p_ij(params, d, a, b) -> TensorPoly:
    lin = x_var(params, d, a) - x_var(params, d, b)
    return alpha_ij(params, d, a, b) * lin + beta_ij(params, d, a, b)


# exact division ------------------------------------------------------------------

def divide_exact_linear(p: TensorPoly, i: int, j: int):
    """Quotient p / (x_i - x_j) if the division is exact, else None.

    Grouped synthetic division.  The terms are grouped by their F-key and
    by their exponent vector with e_i and e_j replaced by e_i + e_j = s;
    each group is a homogeneous Laurent polynomial sum_k c_k x_i^k x_j^(s-k)
    in two variables, and the groups are divided independently.  Taken from
    the top power of x_i down, the quotient coefficient at
    x_i^(k-1) x_j^(s-k) is the running sum of the c_m with m >= k, and
    stays at that value down to the next power present in the group.  The
    division is exact iff every group's coefficients sum to zero.  Each
    quotient exponent lies within the range of the dividend's group, so
    Laurent input needs no shift and polynomial input gives a polynomial."""
    if not p:
        return p
    groups = {}
    for (exps, fkey), c in p.terms.items():
        e = list(exps)
        e[i] += e[j]
        e[j] = 0
        groups.setdefault((tuple(e), fkey), []).append((exps[i], c))
    out = {}
    for (base, fkey), col in groups.items():
        col.sort(key=lambda kc: kc[0], reverse=True)
        s = base[i]
        e = list(base)
        acc = None
        for (k, c), (k_next, _) in zip(col, col[1:]):
            acc = c if acc is None else acc + c
            if not acc:
                continue
            for t in range(k_next, k):
                e[i], e[j] = t, s - 1 - t
                out[(tuple(e), fkey)] = acc
        last = col[-1][1]
        if (last if acc is None else acc + last):
            return None
    return p._like(out)


# localized elements ---------------------------------------------------------------

def factor_value(params, d, tag) -> TensorPoly:
    kind, a, b = tag
    if kind == "lin":
        return x_var(params, d, a) - x_var(params, d, b)
    if kind == "P":
        return p_ij(params, d, a, b)
    raise ValueError(f"unknown factor tag {tag!r}")


def _times_factors(p: TensorPoly, fac) -> TensorPoly:
    """p times the product of the factors in the tag Counter fac, taken in
    sorted tag order."""
    for tag, k in sorted(fac.items()):
        v = factor_value(p.params, p.d, tag)
        for _ in range(k):
            p = p * v
    return p


def permute_factors(fac, w):
    """Move the tags of fac by the place permutation w.  Returns the moved
    Counter and the sign picked up by writing each moved linear factor
    (x_a - x_b) with a < b."""
    out = Counter()
    sign = 1
    for (kind, a, b), k in fac.items():
        na, nb = w[a], w[b]
        if kind == "lin" and na > nb:
            na, nb = nb, na
            if k % 2:
                sign = -sign
        out[(kind, na, nb)] += k
    return out, sign


class LocalizedElement(_Frozen):
    """core * (product of nfac factors) / (product of dfac factors), the
    factors drawn from (x_i - x_j) and P_{ij}.  Numerator factors are kept
    unexpanded so that identical factors cancel syntactically.

    The public constructor stores the reduced form: no tag is in both nfac
    and dfac, a zero core carries no factor, and no linear denominator
    divides the core exactly.  It divides the core by each linear
    denominator while the division is exact, at most the tag's
    multiplicity, and one pass suffices: distinct linear forms are coprime
    and each stays a non-zero-divisor modulo another, so a division that
    failed cannot succeed after another one does.  Negation, place
    permutation and scaling keep the reduced form, and build their results
    with ``_make``, which trusts its caller; results may share their
    Counters with an operand, so no code changes nfac or dfac in place.

    Equality is decided by cross-multiplication: a == b iff
    a.core * a.nfac * b.dfac == b.core * b.nfac * a.dfac; values over
    different packs or sizes are unequal.  The factors the two sides share
    (a numerator tag of both elements, or a denominator tag of both) are
    cancelled before anything is multiplied out.  Cancelling,
    like cross-multiplying, assumes a commutative F and factors that are not
    zero divisors (condition C3)."""

    __slots__ = ("core", "nfac", "dfac")

    def __init__(self, core: TensorPoly, nfac=None, dfac=None):
        if not core:
            self._store(core, Counter(), Counter())
            return
        nfac, dfac = Counter(nfac), Counter(dfac)
        nfac, dfac = nfac - dfac, dfac - nfac
        # exact division clears linear denominators when the core allows it
        for tag, k in list(dfac.items()):
            if tag[0] != "lin":
                continue
            while k and (q := divide_exact_linear(core, tag[1], tag[2])) is not None:
                core, k = q, k - 1
            dfac[tag] = k
        self._store(core, nfac, +dfac)

    @staticmethod
    def zero(params, d) -> "LocalizedElement":
        return LocalizedElement._make(zero_poly(params, d), Counter(), Counter())

    @staticmethod
    def one(params, d) -> "LocalizedElement":
        return LocalizedElement._make(unit_poly(params, d), Counter(), Counter())

    @property
    def params(self):
        return self.core.params

    @property
    def d(self):
        return self.core.d

    def __bool__(self):
        return bool(self.core)

    # factor-aware constructors

    def scale(self, c) -> "LocalizedElement":
        core = self.core.scale(c)
        if not core:
            return LocalizedElement.zero(self.params, self.d)
        return LocalizedElement._make(core, self.nfac, self.dfac)

    def over_lin(self, i, j) -> "LocalizedElement":
        core = self.core if i < j else -self.core
        tag = ("lin", min(i, j), max(i, j))
        return LocalizedElement(core, self.nfac, self.dfac + Counter([tag]))

    # arithmetic

    def __neg__(self):
        return LocalizedElement._make(-self.core, self.nfac, self.dfac)

    def _over_common_factors(self, other):
        """(lc, rc, nfac, dfac) with self = lc * nfac / dfac and
        other = rc * nfac / dfac: nfac holds the numerator tags the two
        share, dfac the union of their denominators, and every other factor
        is multiplied into lc or rc."""
        self.core._same_space(other.core)
        nfac = self.nfac & other.nfac
        dfac = self.dfac | other.dfac
        lc = _times_factors(self.core, self.nfac - nfac + (dfac - self.dfac))
        rc = _times_factors(other.core, other.nfac - nfac + (dfac - other.dfac))
        return lc, rc, nfac, dfac

    def __add__(self, other):
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        lc, rc, nfac, dfac = self._over_common_factors(other)
        return LocalizedElement(lc + rc, nfac, dfac)

    def __sub__(self, other):
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TensorPoly):
            other = LocalizedElement(other)
        elif not isinstance(other, LocalizedElement):
            return self.scale(other)
        return LocalizedElement(self.core * other.core,
                                self.nfac + other.nfac,
                                self.dfac + other.dfac)

    def __rmul__(self, other):
        # F need not be commutative: the TensorPoly stays the left factor
        if isinstance(other, TensorPoly):
            return LocalizedElement(other) * self
        return self.scale(other)

    def numerator(self) -> TensorPoly:
        return _times_factors(self.core, self.nfac)

    def as_tensor_poly(self) -> TensorPoly:
        if self.dfac:
            raise ValueError(f"denominator factors remain: {sorted(self.dfac)}")
        return self.numerator()

    def place_permute(self, w) -> "LocalizedElement":
        core = self.core.place_permute(w)
        nfac, nsign = permute_factors(self.nfac, w)
        dfac, dsign = permute_factors(self.dfac, w)
        if nsign != dsign:
            core = -core
        return LocalizedElement._make(core, nfac, dfac)

    def __eq__(self, other):
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        try:
            lc, rc, _, _ = self._over_common_factors(other)
        except SizeMismatch:
            return False
        return lc == rc

    def __str__(self):
        def fac_str(fac):
            bits = []
            for (kind, a, b), k in sorted(fac.items()):
                s = f"(x{a + 1}-x{b + 1})" if kind == "lin" else f"P{a + 1}{b + 1}"
                bits.append(s if k == 1 else f"{s}^{k}")
            return "*".join(bits)

        out = f"[{self.core}]"
        if self.nfac:
            out += "*" + fac_str(self.nfac)
        if self.dfac:
            out += "/" + fac_str(self.dfac)
        return out

    def __repr__(self):
        return f"LocalizedElement({self})"


def require_invariant(value, lam):
    """value, a TensorPoly or LocalizedElement, after checking that the
    place action of S_lam fixes it.  The simple reflections inside the
    blocks of lam generate S_lam, so only they are tried."""
    for blk in blocks(lam):
        for i in range(blk.start, blk.stop - 1):
            if value.place_permute(simple(value.d, i)) != value:
                raise InvarianceViolation(
                    f"{value} moves under s_{i + 1}, not S_{lam}-invariant")
    return value


# annihilator certificate for the C3 condition --------------------------------------

def annihilator_certificate(params, degree_bound: int = 3):
    """Look for a nonzero zeta of x-degree at most degree_bound with
    zeta*P = 0 or P*zeta = 0 where P = alpha*(x1-x2) + beta.  Returns a
    rank note when none exists in the window; raises IdentityFailed naming
    the first annihilator found, or when P itself is zero.  A negative
    degree_bound is a ValueError."""
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be non-negative, got degree_bound={degree_bound}")
    d = 2
    P = p_ij(params, d, 0, 1)
    if not P:
        raise IdentityFailed("P = alpha*(x1-x2) + beta is itself zero")
    unknowns = [zeta for _, zeta in monomial_box(params, d, degree_bound)]
    one = params.field.one()
    for side in ("left", "right"):
        # one row per unknown: its product with P, then a tag column (1, idx)
        rows = []
        for idx, zeta in enumerate(unknowns):
            prod = zeta * P if side == "left" else P * zeta
            rows.append({**{(0, k): c for k, c in prod.terms.items()},
                         (1, idx): one})
        # a pivot led by a tag is a vanishing combination of the unknowns;
        # pivots are filed in row order, so the first one comes from the
        # first unknown whose product lies in the span of the earlier ones
        witness = next((row for (kind, _), row in echelon_pivots(rows).items()
                        if kind == 1), None)
        if witness is not None:
            zeta = zero_poly(params, d)
            for (_, idx), coeff in witness.items():
                zeta = zeta + unknowns[idx].scale(coeff)
            raise IdentityFailed(f"{side} annihilator of P found: {zeta}")
    return f"no annihilator up to x-degree {degree_bound} (both sides full rank)"
