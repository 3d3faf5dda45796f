"""Twisted convolution algebra on products of partial flag varieties of the
symmetric group, with the wreath Hecke algebra embedded as the full-flag block.

The underlying sets are Y_lam = S_d / S_lam.  A block element is a G-equivariant
function on Y_lam x Y_mu with values in the fraction field of F^{(x) d}[x], and
the product twists the middle sum by the inverse of

    e_lam = prod_{(i,j) in N_lam} (x_i - x_j) * prod_{(i,j) in P_lam} P_ij,

the value of the twist function at the base point.  Equivariance reduces every
function to its values at pairs ([1], [g]) with g a minimal double coset
representative, and we store the normalized value r_g = f([1],[g]) / e_lam, so
that on the full-flag block the map g -> r_g lists the coefficients of f in the
basis of point-supported functions.  In these coordinates the twist cancels out
of the product entirely:

    r_{f*h}(y) = sum_z u_z(r_f(g_z)) * z(u'_z(r_h(g'_z))),

where z runs over cosets of the middle subgroup, z = u_z g_z v_z and
z^{-1} y = u'_z g'_z v'_z are the double coset decompositions.

Splits, merges and invariant multiplications generate the Schur algebra of
interest; the polynomial representation on direct sums of invariant rings
R^{S_lam} is faithful and serves as the zero-testing oracle.  It is the
column (d) of the algebra: a function on Y_lam x Y_(d) is determined by its
value at the base point, an S_lam-invariant, so a vector of the lam
component is the (lam, (d)) column block, and an element acts on vectors by
the convolution product.
"""

from collections import Counter
from itertools import product as iproduct

from .base_algebra import IdentityFailed, SparseSum, _Frozen, pack_cached
from .coeff_ring import signed_join
from .pqwp import PqwpElement, _alpha_over_pairs, pqwp_mul
from .symcomb import (block_of, blocks, check_comp, check_refines, coset_reps,
                      coset_shapes, double_coset_decompose, double_coset_reps,
                      identity, inverse, length, matrix_to_perm, mul,
                      region_L, region_N, region_P, simple, ThetaMatrix,
                      to_one_line, young_subgroup)
from .tensor_poly import (LocalizedElement, TensorPoly, beta_ij, monomial,
                          require_invariant, unit_poly, zero_poly)


class BlockMismatch(ValueError):
    """Raised when block rows/columns or vector components do not line up."""


class CharacteristicTooSmall(ValueError):
    """Raised when the ground field cannot support the detecting family."""


# twists ----------------------------------------------------------------------

def _e_localized(params, d: int, lam, invert: bool) -> LocalizedElement:
    """e_lam, or its inverse, the value of the twist at the base point of
    Y_lam: linear factors over the cross-block pairs N_lam, P factors over
    the complementary ordered pairs.  It is kept entirely in factored form
    so that products cancel syntactically."""
    lam = check_comp(d, lam)
    tags = Counter([("lin", i, j) for (i, j) in sorted(region_N(lam))]
                   + [("P", i, j) for (i, j) in sorted(region_P(lam))])
    if invert:
        return LocalizedElement(unit_poly(params, d), None, tags)
    return LocalizedElement(unit_poly(params, d), tags, None)


# blocks ----------------------------------------------------------------------

def _same_data(a, b):
    """Blocks and elements combine only over one (params, d)."""
    if (a.params, a.d) != (b.params, b.d):
        raise BlockMismatch("mixed parameter sets")


class ConvBlock(SparseSum, _Frozen):
    """One block of the convolution algebra: rows indexed by Y_lam, columns by
    Y_mu.  ``terms[g]`` holds the normalized value at ([1],[g]) for each
    minimal double coset representative g.  Composition pairs the column
    composition of the left factor with the row composition of the right
    factor.

    The public constructor checks that every key is a minimal representative
    and every value lives over the same (params, d) and is invariant under
    the stabilizer of its base pair; ``_make`` trusts its caller, who drops
    zero values."""

    __slots__ = ("params", "d", "lam", "mu", "terms")

    def __init__(self, params, d, lam, mu, terms=None):
        d = int(d)
        lam, mu = check_comp(d, lam), check_comp(d, mu)
        reps = set(double_coset_reps(lam, mu))
        clean = {}
        for g, r in (terms or {}).items():
            g = tuple(g)
            if g not in reps:
                raise ValueError(f"{g} is not a minimal representative for "
                                 f"({lam}, {mu})")
            if isinstance(r, TensorPoly):
                r = LocalizedElement(r)
            if r.params is not params or r.d != d:
                raise BlockMismatch(f"value at {g} lives over different data")
            if r:
                clean[g] = r
        self._store(params, d, lam, mu, clean)
        self.check_invariance()

    def _kept(self, terms):
        return ConvBlock._make(self.params, self.d, self.lam, self.mu, terms)

    def check_invariance(self):
        """Stored values must be fixed by the stabilizer of the base pair.
        For a minimal g it is S_lam & g S_mu g^{-1}, the Young subgroup of
        the row reading delta_r of the double coset's matrix."""
        for g, r in self.terms.items():
            delta_r, _ = coset_shapes(self.lam, g, self.mu)
            require_invariant(r, delta_r)

    @staticmethod
    def zero(params, d, lam, mu) -> "ConvBlock":
        return ConvBlock._make(params, int(d), check_comp(d, lam),
                               check_comp(d, mu), {})

    def _same_space(self, other):
        _same_data(self, other)
        if (self.lam, self.mu) != (other.lam, other.mu):
            raise BlockMismatch(f"({self.lam},{self.mu}) vs "
                                f"({other.lam},{other.mu})")

    def mul(self, other: "ConvBlock") -> "ConvBlock":
        _same_data(self, other)
        if self.mu != other.lam:
            raise BlockMismatch(f"cannot compose ({self.lam},{self.mu}) with "
                                f"({other.lam},{other.mu})")
        out = {}
        for z in coset_reps(self.mu, "right"):
            u, g, _ = double_coset_decompose(z, self.lam, self.mu)
            rf = self.terms.get(g)
            if rf is None:
                continue
            left = rf.place_permute(u)
            zi = inverse(z)
            for y in double_coset_reps(self.lam, other.mu):
                u2, g2, _ = double_coset_decompose(mul(zi, y), other.lam, other.mu)
                rh = other.terms.get(g2)
                if rh is None:
                    continue
                term = left * rh.place_permute(mul(z, u2))
                cur = out.get(y)
                out[y] = term if cur is None else cur + term
        return ConvBlock._make(self.params, self.d, self.lam, other.mu,
                               {y: r for y, r in out.items() if r})

    def leading(self):
        """(g, value) with g of maximal length in the support."""
        if not self.terms:
            return None
        g = max(self.terms, key=lambda w: (length(w), w))
        return g, self.terms[g]

    def __str__(self):
        if not self.terms:
            return f"0[{self.lam}|{self.mu}]"
        bits = [f"{to_one_line(g)} -> {self.terms[g]}"
                for g in sorted(self.terms, key=lambda w: (length(w), w))]
        return f"[{self.lam}|{self.mu}] " + "; ".join(bits)


class SchurElement(SparseSum, _Frozen):
    """Sum of blocks, keyed by (row composition, column composition); the
    public constructor checks each block's key and (params, d)."""

    __slots__ = ("params", "d", "terms")

    def __init__(self, params, d, terms=None):
        clean = {}
        for key, blk in (terms or {}).items():
            if (blk.lam, blk.mu) != tuple(map(tuple, key)):
                raise ValueError(f"block filed under {key} is ({blk.lam},{blk.mu})")
            if (blk.params, blk.d) != (params, d):
                raise BlockMismatch(f"block at {key} lives over different data")
            if blk:
                clean[(blk.lam, blk.mu)] = blk
        self._store(params, int(d), clean)

    def _kept(self, terms):
        return SchurElement._make(self.params, self.d, terms)

    @staticmethod
    def from_block(blk: ConvBlock) -> "SchurElement":
        return SchurElement(blk.params, blk.d, {(blk.lam, blk.mu): blk})

    @staticmethod
    def idempotent(params, d, lam) -> "SchurElement":
        lam = check_comp(d, lam)
        blk = ConvBlock._make(params, d, lam, lam,
                              {identity(d): LocalizedElement.one(params, d)})
        return SchurElement.from_block(blk)

    def block(self, lam, mu) -> ConvBlock:
        lam = check_comp(self.d, lam)
        mu = check_comp(self.d, mu)
        blk = self.terms.get((lam, mu))
        if blk is None:
            return ConvBlock.zero(self.params, self.d, lam, mu)
        return blk

    _same_space = _same_data

    def scale(self, c) -> "SchurElement":
        return self._like({k: b.scale(c) for k, b in self.terms.items()})

    def __mul__(self, other):
        """Convolution product, extended bilinearly over the block direct
        sum: pairs whose inner compositions differ contribute zero, which is
        what makes the idempotents 1_lam mutually orthogonal."""
        if not isinstance(other, SchurElement):
            return NotImplemented
        self._same_space(other)
        out = {}
        for (lam, mu), blk in self.terms.items():
            for (mu2, kap), blk2 in other.terms.items():
                if mu != mu2:
                    continue
                piece = blk.mul(blk2)
                if not piece:
                    continue
                cur = out.get((lam, kap))
                out[(lam, kap)] = piece if cur is None else cur + piece
        return self._like(out)

    def __str__(self):
        return signed_join([str(self.terms[k]) for k in sorted(self.terms)])


# generators ------------------------------------------------------------------

def _p_over_lin(params, d, pairs) -> LocalizedElement:
    """The product of P_ij / (x_i - x_j) over the pairs i < j, built as one
    localized element."""
    pairs = tuple(pairs)
    return LocalizedElement(unit_poly(params, d),
                            Counter(("P", i, j) for i, j in pairs),
                            Counter(("lin", i, j) for i, j in pairs))


def split_merge(params, d, lam, nu=None, kind="split") -> SchurElement:
    """The four splitting and merging generators.

    split:          rows (1^d), columns lam; value e_lam at the base point.
    merge:          rows lam, columns (1^d); value e_lam at the base point.
    partial_split:  rows nu, columns lam, for nu refining lam.
    partial_merge:  rows lam, columns nu, for nu refining lam.
    """
    lam = check_comp(d, lam)
    omega = (1,) * d
    e = identity(d)
    if kind in ("split", "merge"):
        if nu is not None and check_comp(d, nu) != omega:
            raise ValueError("full split/merge take no refinement")
        nu = omega
    elif kind in ("partial_split", "partial_merge"):
        if nu is None:
            raise ValueError(f"{kind} needs a refinement")
        nu = check_comp(d, nu)
        check_refines(nu, lam)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if kind in ("split", "partial_split"):
        ratio = _p_over_lin(params, d, region_L(lam) - region_L(nu))
        blk = ConvBlock._make(params, d, nu, lam, {e: ratio})
    else:
        blk = ConvBlock._make(params, d, lam, nu,
                              {e: LocalizedElement.one(params, d)})
    return SchurElement.from_block(blk)


def diagonal_element(params, d, lam, t) -> SchurElement:
    """Multiplication by an S_lam-invariant t on the lam component."""
    blk = ConvBlock(params, d, lam, lam, {identity(d): t})
    return SchurElement.from_block(blk)


def k_block(params, d, lam) -> SchurElement:
    """The full-flag block of merge-then-split: value e_lam on all of S_lam."""
    lam = check_comp(d, lam)
    ratio = _p_over_lin(params, d, region_L(lam))
    omega = (1,) * d
    values = {w: ratio for w in young_subgroup(lam)}
    return SchurElement.from_block(ConvBlock._make(params, d, omega, omega, values))


# the embedding of the wreath Hecke algebra -----------------------------------

@pack_cached
def _phi_gen(params, d, i) -> ConvBlock:
    """Image of the i-th braid generator on the full-flag block."""
    omega = (1,) * d
    lower = LocalizedElement(beta_ij(params, d, i, i + 1)).over_lin(i, i + 1)
    upper = _p_over_lin(params, d, ((i, i + 1),))
    # lower is zero where beta is, on wreath products
    terms = ((identity(d), lower), (simple(d, i), upper))
    return ConvBlock._make(params, d, omega, omega, {g: r for g, r in terms if r})


@pack_cached
def _phi_word(params, d, w) -> ConvBlock:
    omega = (1,) * d
    if w == identity(d):
        return ConvBlock._make(params, d, omega, omega,
                               {identity(d): LocalizedElement.one(params, d)})
    wi = inverse(w)
    # w is not the identity, so it has a left descent
    i = next(i for i in range(d - 1) if wi[i] > wi[i + 1])
    return _phi_gen(params, d, i).mul(_phi_word(params, d, mul(simple(d, i), w)))


def phi_embed(a: PqwpElement) -> SchurElement:
    """Algebra embedding into the full-flag block: coefficients become
    point-supported functions, braid generators become the two-term kernels
    with first-order poles."""
    params, d = a.params, a.d
    omega = (1,) * d
    out = None
    for w, b in a.terms.items():
        # b * r.core is zero for some r when F has zero divisors
        piece = ConvBlock._make(params, d, omega, omega, {
            g: LocalizedElement(c, r.nfac, r.dfac)
            for g, r in _phi_word(params, d, w).terms.items() if (c := b * r.core)})
        out = piece if out is None else out + piece
    if out is None:
        out = ConvBlock.zero(params, d, omega, omega)
    return SchurElement.from_block(out)


# polynomial representation ---------------------------------------------------

def poly_vector(params, d, lam, value) -> SchurElement:
    """The vector of the lam component with an S_lam-invariant value: the
    (lam, (d)) column block, whose one double coset, the identity, holds
    value / e_lam.  e_lam is S_lam-invariant, so the block's constructor
    checks the invariance of value; a value over other data is refused."""
    d = int(d)
    if value.params is not params or value.d != d:
        raise BlockMismatch("vector value lives over different data")
    blk = ConvBlock(params, d, lam, (d,),
                    {identity(d): value * _e_localized(params, d, lam, True)})
    return SchurElement.from_block(blk)


def poly_value(v: SchurElement, lam) -> LocalizedElement:
    """The lam component of the vector v: the value of its (lam, (d))
    column block at the base point."""
    r = v.block(lam, (v.d,)).terms.get(identity(v.d))
    if r is None:
        return LocalizedElement.zero(v.params, v.d)
    return r * _e_localized(v.params, v.d, lam, False)


def merge_apply(params, d, lam, nu, value) -> LocalizedElement:
    """Fraction-free action of the merge from nu-invariants to lam-invariants,
    one pairwise block fusion at a time: the first two adjacent blocks a, b
    of nu inside a common lam-block fuse into one, giving fused, and the
    fusion is the symmetrized sum

        sum_w w( value * prod_{i in a, j in b} P_ij / (x_i - x_j) )

    over the shuffles w of a and b, ``coset_reps(nu, "right", fused)`` (S_nu
    and S_fused agree on every other block), which always collapses to a
    polynomial."""
    lam = check_comp(d, lam)
    nu = check_comp(d, nu)
    check_refines(nu, lam)
    if isinstance(value, TensorPoly):
        value = LocalizedElement(value)
    if lam == nu:
        return value
    bo, nb = block_of(lam), blocks(nu)
    step = next(k for k in range(len(nu) - 1)
                if bo[nb[k].start] == bo[nb[k + 1].start])
    fused = nu[:step] + (nu[step] + nu[step + 1],) + nu[step + 2:]
    arg = value * _p_over_lin(params, d, ((i, j) for i in nb[step]
                                          for j in nb[step + 1]))
    acc = None
    for w in coset_reps(nu, "right", fused):
        term = arg.place_permute(w)
        acc = term if acc is None else acc + term
    assert not acc.dfac, "pairwise fusion did not collapse"
    return merge_apply(params, d, lam, fused, acc)


def poly_rep_apply(s: SchurElement, v: SchurElement) -> SchurElement:
    """The action of s on a vector of the polynomial representation: the
    convolution product with the vector's column blocks."""
    return s * v


# the faithfulness oracle -----------------------------------------------------

@pack_cached
def _detecting_family(params, d, mu) -> tuple:
    """The column blocks of the symmetrized products (staircase monomial) x
    (basis tensor): vectors of the mu component enough to separate every
    block with column composition mu.  The staircase monomials are the d!
    monomials x_1^e_1 ... x_d^e_d with e_j <= d - j, a basis of the
    polynomials over the symmetric ones."""
    alg = params.algebra
    family = []
    exp_ranges = [range(d - j + 1) for j in range(1, d)]
    for fkey in iproduct(range(alg.dim), repeat=d):
        for exps in iproduct(*exp_ranges):
            base = monomial(params, d, fkey, tuple(exps) + (0,))
            acc = zero_poly(params, d)
            for u in young_subgroup(mu):
                acc = acc + base.place_permute(u)
            if acc:
                family.append(poly_vector(params, d, mu, acc).block(mu, (d,)))
    return tuple(family)


def zero_test_via_poly_rep(s: SchurElement) -> bool:
    """True iff the element annihilates the detecting family of every column
    component it touches; sound because the staircase monomials realize the
    regular representation of S_d when the characteristic is zero or > d."""
    field = s.params.algebra.field
    if field.kind == field.PRIME and field.p <= s.d:
        raise CharacteristicTooSmall(
            f"characteristic {field.p} <= d = {s.d}: the staircase matrix "
            "is singular, the detecting family proves nothing")
    for blk in s.terms.values():
        for column in _detecting_family(s.params, s.d, blk.mu):
            if blk.mul(column):
                return False
    return True


# crossings -------------------------------------------------------------------

def _coset_datum(d, lam, mu, g):
    """(lam, mu, g, nu, delta) for a minimal representative g of
    S_lam \\ S_d / S_mu, with nu and delta the row and column readings of
    its matrix."""
    lam, mu, g = check_comp(d, lam), check_comp(d, mu), tuple(g)
    if g not in double_coset_reps(lam, mu):
        raise ValueError(f"{g} is not minimal for ({lam}, {mu})")
    return (lam, mu, g) + coset_shapes(lam, g, mu)


def _two_part(d, lam):
    """lam as a checked two-part composition (d1, d2), and (d2, d1)."""
    lam = check_comp(d, lam)
    if len(lam) != 2:
        raise ValueError(f"need a two-part composition, got {lam}")
    return lam, lam[::-1]


def h_tilde(params, d, lam, mu, g) -> SchurElement:
    """Thick crossing attached to a double coset: the unique block element x
    with rows nu, columns delta such that x followed by the full merge equals
    the merge of nu followed by the braid word of g on the full-flag block.
    The (nu, 1^d) block of that product is constant on S_delta columns, so x
    keeps its values at the minimal (nu, delta) representatives."""
    lam, mu, g, nu, delta = _coset_datum(d, lam, mu, g)
    merged = split_merge(params, d, nu, kind="merge") * \
        phi_embed(PqwpElement.h_of_perm(params, d, g))
    cblk = merged.block(nu, (1,) * d)
    values = {rep: cblk.terms[rep] for rep in double_coset_reps(nu, delta)
              if rep in cblk.terms}
    return SchurElement.from_block(ConvBlock._make(params, d, nu, delta, values))


def crossing(params, d, lam) -> SchurElement:
    """Sum of thick-crossing sandwiches dual to merging through the full
    block: for a two-part shape lam = (d1, d2) this rewrites
    split-after-merge as the laurel elements

        sum_i laurel(lam, mu, g_i, c_i),   mu = (d2, d1),

    for i = 0..min(d1, d2), where g_i is the permutation of the matrix
    [[i, d1 - i], [d2 - i, i]] and c_i the product of alpha_{a, d-i+b} over
    a, b < i: alpha between the first i strands and the last i."""
    lam, mu = _two_part(d, lam)
    d1, d2 = lam
    total = None
    for i in range(min(d1, d2) + 1):
        g = matrix_to_perm(ThetaMatrix([[i, d1 - i], [d2 - i, i]]))
        c = _alpha_over_pairs(params, d, [(a, d - i + b) for a in range(i)
                                          for b in range(i)])
        term = laurel_basis_element(params, d, lam, mu, g, c)
        total = term if total is None else total + term
    return total


def dumb_vs_smart_identity(params, d, lam, oracle="values") -> dict:
    """Check that splitting out of the full merge equals the crossing sum for
    a two-part shape and its reversal, by comparing stored block values.
    oracle='values' and oracle='both' run this one check.  A zero test of
    left - right on the polynomial representation would add nothing: it
    could only run after the values agreed, when the difference is zero.
    The argument stays because callers pass either value (perfbench's
    crossing workload passes 'both'); any other is a ValueError.  Returns a
    summary dict; raises IdentityFailed on mismatch."""
    if oracle not in ("values", "both"):
        raise ValueError(f"unknown oracle {oracle!r}")
    lam, mu = _two_part(d, lam)
    full = (d,)
    left = split_merge(params, d, full, lam, kind="partial_split") * \
        split_merge(params, d, full, mu, kind="partial_merge")
    right = crossing(params, d, lam)
    terms = min(lam) + 1
    if left != right:
        raise IdentityFailed(
            f"crossing decomposition failed for {lam}: {left} != {right}")
    return {"lam": lam, "mu": mu, "terms": terms, "oracle": oracle}


# coil and laurel elements ----------------------------------------------------

def coil_basis_element(params, d, lam, mu, g, b) -> SchurElement:
    """Merge, braid word with invariant coefficient, split: the spanning
    elements of the block with the given rows and columns.  The coefficient
    b is a TensorPoly over the pack; an algebra element raises
    ParamMismatch."""
    lam, mu, g, nu, _ = _coset_datum(d, lam, mu, g)
    elt = PqwpElement.of_poly(b)
    require_invariant(b, nu)
    word = pqwp_mul(elt, PqwpElement.h_of_perm(params, d, g))
    return split_merge(params, d, lam, kind="merge") * phi_embed(word) * \
        split_merge(params, d, mu, kind="split")


def laurel_basis_element(params, d, lam, mu, g, b) -> SchurElement:
    """Partial merge, invariant diagonal, thick crossing, partial split."""
    lam, mu, g, nu, delta = _coset_datum(d, lam, mu, g)
    out = split_merge(params, d, lam, nu, kind="partial_merge")
    out = out * diagonal_element(params, d, nu, b)
    out = out * h_tilde(params, d, lam, mu, g)
    out = out * split_merge(params, d, mu, delta, kind="partial_split")
    return out
