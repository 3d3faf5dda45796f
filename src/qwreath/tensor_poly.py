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

import json
from collections import Counter
from operator import add

from .coeff_ring import SCALARS, echelon_pivots, scalar_str
from .base_algebra import FTensor, SparseSum, pack_cached
from .symcomb import blocks, simple


class SizeMismatch(ValueError):
    pass


class InvarianceViolation(ValueError):
    """Raised when a stored value fails its required symmetry."""


class TensorPoly(SparseSum):
    """Element of F^{tensor d}[x_1..x_d]; keys are pairs (exponent vector,
    F-basis index vector).  Laurent variant admits negative exponents,
    polynomial variant rejects them.

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
            for (exps, fkey), c in terms.items():
                if not c:
                    continue
                if len(exps) != d or len(fkey) != d:
                    raise SizeMismatch(f"term arity differs from d={d}")
                if not laurent and any(e < 0 for e in exps):
                    raise ValueError("negative exponent in polynomial variant")
                clean[(tuple(exps), tuple(fkey))] = c
        self.terms = clean

    # construction helpers

    def _like(self, terms):
        """A result in the same ring, taking ownership of the dict terms.
        Keys made by the ring operations already have arity d and, in the
        polynomial variant, nonnegative exponents; only zero coefficients
        (the falsy scalars) are dropped."""
        out = object.__new__(TensorPoly)
        out.params = self.params
        out.d = self.d
        out.terms = terms if all(terms.values()) else {
            k: c for k, c in terms.items() if c}
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
        # right-hand terms once per call: None stands for x⁰ and for c = 1
        right = [(e2 if any(e2) else None, f2, None if is_one(c2) else c2)
                 for (e2, f2), c2 in other.terms.items()]
        slot_product = self.params.algebra.slot_product
        out = {}
        for (e1, f1), c1 in self.terms.items():
            for e2, f2, c2 in right:
                exps = e1 if e2 is None else tuple(map(add, e1, e2))
                c12 = c1 if c2 is None else c1 * c2
                for fkey, sc in slot_product(f1, f2):
                    c = c12 if sc is None else c12 * sc
                    k = (exps, fkey)
                    v = out.get(k)
                    out[k] = c if v is None else v + c
        return self._like(out)

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, SCALARS) else NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a TensorPoly")
        out = unit_poly(self.params, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, TensorPoly) and self.params is other.params
                and self.d == other.d and self.terms == other.terms)

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
        return self._like(out)

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
        return self._like(out)

    def demazure(self, i) -> "TensorPoly":
        """Divided difference in x_i, x_{i+1}; F-legs ride along unchanged.
        Valid for negative exponents: the signed geometric sum form."""
        j = i + 1
        out = {}
        for (exps, fkey), c in self.terms.items():
            k, l = exps[i], exps[j]
            if k == l:
                continue
            base = list(exps)
            if k > l:
                for step in range(k - l):
                    base[i] = k - 1 - step
                    base[j] = l + step
                    key = (tuple(base), fkey)
                    v = out.get(key)
                    out[key] = c if v is None else v + c
            else:
                for step in range(l - k):
                    base[i] = k + step
                    base[j] = l - 1 - step
                    key = (tuple(base), fkey)
                    v = out.get(key)
                    out[key] = -c if v is None else v - c
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
                c12 = c if c2 is None else c * c2
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
        body = "*".join([fpart] + xs)
        cs = scalar_str(c)
        if cs == "1":
            return body
        if cs == "-1":
            return f"-{body}"
        if any(ch in cs[1:] for ch in "+-") or "/" in cs:
            cs = f"({cs})"
        return f"{cs}*{body}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [self._term_str(k) for k in sorted(self.terms, reverse=True)]
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"TensorPoly({self})"

    def to_json(self) -> str:
        rows = []
        for (exps, fkey) in sorted(self.terms, reverse=True):
            rows.append({"exps": list(exps), "fslots": list(fkey),
                         "coeff": scalar_str(self.terms[(exps, fkey)])})
        return json.dumps({"terms": rows})


# constructors ------------------------------------------------------------------

def zero_poly(params, d) -> TensorPoly:
    return TensorPoly(params, d)


def unit_poly(params, d) -> TensorPoly:
    key = ((0,) * d, (params.algebra.unit_index,) * d)
    return TensorPoly(params, d, {key: params.field.one()})


def x_var(params, d, i) -> TensorPoly:
    exps = tuple(1 if k == i else 0 for k in range(d))
    key = (exps, (params.algebra.unit_index,) * d)
    return TensorPoly(params, d, {key: params.field.one()})


def monomial(params, d, fkey, exps, coeff=None) -> TensorPoly:
    c = params.field.one() if coeff is None else coeff
    return TensorPoly(params, d, {(tuple(exps), tuple(fkey)): c})


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
        if delta.is_zero():
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
    as ((k', l'), (a', b'), coeff) triples, a coefficient 1 stored as None."""
    legs = monomial(params, 2, (b, a), (k, l))
    image = legs.demazure(0) * beta_ij(params, 2, 0, 1)
    is_one = params.field.is_one
    return tuple((exps, fkey, None if is_one(c) else c)
                 for (exps, fkey), c in image.terms.items())


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
    if p.is_zero():
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


class LocalizedElement:
    """core * (product of nfac factors) / (product of dfac factors), the
    factors drawn from (x_i - x_j) and P_{ij}.  Numerator factors are kept
    unexpanded so that identical factors cancel syntactically; leftover
    linear denominators are removed by exact division when possible.

    Equality is decided by cross-multiplication: a == b iff
    a.core * a.nfac * b.dfac == b.core * b.nfac * a.dfac.  The factors the
    two sides share (a numerator tag of both elements, or a denominator tag
    of both) are cancelled before anything is multiplied out.  Cancelling,
    like cross-multiplying, assumes a commutative F and factors that are not
    zero divisors (condition C3)."""

    __slots__ = ("core", "nfac", "dfac")

    def __init__(self, core: TensorPoly, nfac=None, dfac=None):
        self.core = core
        self.nfac = Counter(nfac) if nfac else Counter()
        self.dfac = Counter(dfac) if dfac else Counter()
        self._reduce()

    @staticmethod
    def zero(params, d) -> "LocalizedElement":
        return LocalizedElement(zero_poly(params, d))

    @staticmethod
    def one(params, d) -> "LocalizedElement":
        return LocalizedElement(unit_poly(params, d))

    @property
    def params(self):
        return self.core.params

    @property
    def d(self):
        return self.core.d

    def is_zero(self) -> bool:
        return self.core.is_zero()

    def __bool__(self):
        return bool(self.core)

    def _reduce(self):
        if self.core.is_zero():
            self.nfac.clear()
            self.dfac.clear()
            return
        common = self.nfac & self.dfac
        if common:
            self.nfac -= common
            self.dfac -= common
        # exact division clears linear denominators when the core allows it
        progress = True
        while progress and self.dfac:
            progress = False
            for tag in list(self.dfac):
                if tag[0] != "lin":
                    continue
                q = divide_exact_linear(self.core, tag[1], tag[2])
                if q is not None:
                    self.core = q
                    self.dfac[tag] -= 1
                    if self.dfac[tag] == 0:
                        del self.dfac[tag]
                    progress = True

    # factor-aware constructors

    def scale(self, c) -> "LocalizedElement":
        return LocalizedElement(self.core.scale(c), self.nfac, self.dfac)

    def over_lin(self, i, j) -> "LocalizedElement":
        core = self.core if i < j else -self.core
        tag = ("lin", min(i, j), max(i, j))
        return LocalizedElement(core, self.nfac, self.dfac + Counter([tag]))

    # arithmetic

    def __neg__(self):
        return LocalizedElement(-self.core, self.nfac, self.dfac)

    def __add__(self, other):
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        self.core._same_space(other.core)
        shared_n = self.nfac & other.nfac
        lhs_extra = self.nfac - shared_n
        rhs_extra = other.nfac - shared_n
        den = self.dfac | other.dfac
        lc = _times_factors(self.core, lhs_extra + (den - self.dfac))
        rc = _times_factors(other.core, rhs_extra + (den - other.dfac))
        return LocalizedElement(lc + rc, shared_n, den)

    def __sub__(self, other):
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LocalizedElement):
            self.core._same_space(other.core)
            return LocalizedElement(self.core * other.core,
                                    self.nfac + other.nfac,
                                    self.dfac + other.dfac)
        if isinstance(other, TensorPoly):
            return LocalizedElement(self.core * other, self.nfac, self.dfac)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, TensorPoly):
            return LocalizedElement(other * self.core, self.nfac, self.dfac)
        return self.scale(other)

    def numerator(self) -> TensorPoly:
        return _times_factors(self.core, self.nfac)

    def denominator(self) -> TensorPoly:
        return _times_factors(unit_poly(self.params, self.d), self.dfac)

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
        return LocalizedElement(core, nfac, dfac)

    def __eq__(self, other):
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        self.core._same_space(other.core)
        lhs_fac = self.nfac + other.dfac
        rhs_fac = other.nfac + self.dfac
        shared = lhs_fac & rhs_fac
        return (_times_factors(self.core, lhs_fac - shared)
                == _times_factors(other.core, rhs_fac - shared))

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
    zeta*P = 0 or P*zeta = 0 where P = alpha*(x1-x2) + beta.  Returns
    (True, rank note) if none exists in the window, else (False, witness)."""
    d = 2
    P = p_ij(params, d, 0, 1)
    if P.is_zero():
        return False, "P = alpha*(x1-x2) + beta is itself zero"
    alg = params.algebra
    from itertools import product as iproduct
    unknowns = [(fkey, exps)
                for fkey in iproduct(range(alg.dim), repeat=d)
                for exps in iproduct(range(degree_bound + 1), repeat=d)]
    for side in ("left", "right"):
        columns = []
        for (fkey, exps) in unknowns:
            zeta = monomial(params, d, fkey, exps)
            prod = zeta * P if side == "left" else P * zeta
            columns.append(prod.terms)
        row_keys = sorted({k for col in columns for k in col})
        row_index = {k: r for r, k in enumerate(row_keys)}
        # sparse Gaussian elimination on the transpose: solve A z = 0
        rows = [dict() for _ in row_keys]
        for cidx, col in enumerate(columns):
            for k, c in col.items():
                rows[row_index[k]][cidx] = c
        pivots = echelon_pivots(rows)
        if len(pivots) < len(unknowns):
            free = next(c for c in range(len(unknowns)) if c not in pivots)
            sol = {free: params.field.one()}
            for lead in sorted(pivots, reverse=True):
                prow = pivots[lead]
                acc = params.field.zero()
                for c, v in prow.items():
                    if c != lead and c in sol:
                        acc = acc + v * sol[c]
                sol[lead] = -acc / prow[lead]
            zeta = zero_poly(params, d)
            for cidx, coeff in sol.items():
                if not coeff:
                    continue
                fkey, exps = unknowns[cidx]
                zeta = zeta + monomial(params, d, fkey, exps, coeff)
            return False, f"{side} annihilator of P found: {zeta}"
    return True, f"no annihilator up to x-degree {degree_bound} (both sides full rank)"
