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
R^{S_lam} is faithful and serves as the zero-testing oracle.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, product as iproduct

from .base_algebra import SparseSum, pack_cached
from .pqwp import IdentityFailed, PqwpElement, pqwp_mul
from .symcomb import (block_of, check_comp, check_refines, coset_reps,
                      coset_shapes, double_coset_decompose, double_coset_reps,
                      identity, inverse, length, matrix_from_triple,
                      matrix_to_perm, mul, region_L, region_N, region_P,
                      simple, ThetaMatrix, young_subgroup)
from .tensor_poly import (LocalizedElement, TensorPoly, alpha_ij, beta_ij,
                          monomial, permute_factors, require_invariant,
                          unit_poly, zero_poly)


class BlockMismatch(ValueError):
    """Raised when block rows/columns or vector components do not line up."""


class CharacteristicTooSmall(ValueError):
    """Raised when the ground field cannot support the detecting family."""


# twists ----------------------------------------------------------------------

def twist_e(params, d: int, lam) -> TensorPoly:
    """Value of the twist at the base point of Y_lam: linear factors over the
    cross-block pairs N_lam, P factors over the complementary ordered pairs."""
    return _e_localized(params, d, lam, False).numerator()


@lru_cache(maxsize=None)
def _e_factors(d: int, lam) -> tuple:
    """The twist at the base point as a factor list: lin tags and P tags."""
    fac = []
    for (i, j) in sorted(region_N(lam)):
        fac.append(("lin", i, j))
    for (i, j) in sorted(region_P(lam)):
        fac.append(("P", i, j))
    return tuple(fac)


def _e_localized(params, d: int, lam, invert: bool, w=None) -> LocalizedElement:
    """e_lam, or its inverse, optionally moved by the place permutation w,
    kept entirely in factored form so that products cancel syntactically."""
    tags = Counter(_e_factors(d, check_comp(d, lam)))
    sign = 1
    if w is not None:
        tags, sign = permute_factors(tags, w)
    core = unit_poly(params, d) if sign > 0 else -unit_poly(params, d)
    if invert:
        return LocalizedElement(core, None, tags)
    return LocalizedElement(core, tags, None)


# blocks ----------------------------------------------------------------------

class _Frozen:
    """Immutable slots, filled once: by the public constructor after it has
    validated its input, or by ``_make``, which trusts its caller."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _store(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _make(cls, *values):
        out = object.__new__(cls)
        out._store(*values)
        return out


class ConvBlock(SparseSum, _Frozen):
    """One block of the convolution algebra: rows indexed by Y_lam, columns by
    Y_mu.  ``terms[g]`` holds the normalized value at ([1],[g]) for each
    minimal double coset representative g.  Composition pairs the column
    composition of the left factor with the row composition of the right
    factor.

    The public constructor checks that every key is a minimal representative
    and every value lives over the same (params, d) and is invariant under
    the stabilizer of its base pair; ``_make`` trusts its caller."""

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

    @classmethod
    def _make(cls, params, d, lam, mu, terms) -> "ConvBlock":
        """A block with checked lam and mu, and keys and values right by
        construction; only zero values are dropped."""
        return super()._make(params, d, lam, mu,
                             {g: r for g, r in terms.items() if r})

    def _like(self, terms):
        return ConvBlock._make(self.params, self.d, self.lam, self.mu, terms)

    def check_invariance(self):
        """Stored values must be fixed by the stabilizer of the base pair.
        For a minimal g it is S_lam & g S_mu g^{-1}, the Young subgroup of
        the row reading delta_r of the double coset's matrix."""
        for g, r in self.terms.items():
            delta_r, _ = coset_shapes(matrix_from_triple(self.lam, g, self.mu))
            require_invariant(r, delta_r)

    @staticmethod
    def zero(params, d, lam, mu) -> "ConvBlock":
        return ConvBlock._make(params, int(d), check_comp(d, lam),
                               check_comp(d, mu), {})

    def _same_space(self, other):
        if (self.params, self.d) != (other.params, other.d):
            raise BlockMismatch("mixed parameter sets")
        if (self.lam, self.mu) != (other.lam, other.mu):
            raise BlockMismatch(f"({self.lam},{self.mu}) vs "
                                f"({other.lam},{other.mu})")

    def mul(self, other: "ConvBlock") -> "ConvBlock":
        if (self.params, self.d) != (other.params, other.d):
            raise BlockMismatch("mixed parameter sets")
        if self.mu != other.lam:
            raise BlockMismatch(f"cannot compose ({self.lam},{self.mu}) with "
                                f"({other.lam},{other.mu})")
        d = self.d
        out = {}
        omega = (1,) * d
        if self.lam == self.mu == other.mu == omega:
            # point-supported coordinates compose pairwise
            for z, rf in self.terms.items():
                for y1, rh in other.terms.items():
                    y = mul(z, y1)
                    term = rf * rh.place_permute(z)
                    cur = out.get(y)
                    out[y] = term if cur is None else cur + term
        else:
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
        return ConvBlock._make(self.params, d, self.lam, other.mu, out)

    def leading(self):
        """(g, value) with g of maximal length in the support."""
        if not self.terms:
            return None
        g = max(self.terms, key=lambda w: (length(w), w))
        return g, self.terms[g]

    def __eq__(self, other):
        if not isinstance(other, ConvBlock):
            return NotImplemented
        self._same_space(other)
        keys = set(self.terms) | set(other.terms)
        zero = LocalizedElement.zero(self.params, self.d)
        return all(self.terms.get(g, zero) == other.terms.get(g, zero)
                   for g in keys)

    def __str__(self):
        if not self.terms:
            return f"0[{self.lam}|{self.mu}]"
        bits = []
        for g in sorted(self.terms, key=lambda w: (length(w), w)):
            one_line = " ".join(str(i + 1) for i in g)
            bits.append(f"|{one_line}| -> {self.terms[g]}")
        return f"[{self.lam}|{self.mu}] " + "; ".join(bits)

    def __repr__(self):
        return f"ConvBlock({self})"


class SchurElement(SparseSum, _Frozen):
    """Sum of blocks, keyed by (row composition, column composition)."""

    __slots__ = ("params", "d", "terms")

    def __init__(self, params, d, terms=None):
        clean = {}
        for key, blk in (terms or {}).items():
            if (blk.lam, blk.mu) != tuple(map(tuple, key)):
                raise ValueError(f"block filed under {key} is ({blk.lam},{blk.mu})")
            if blk:
                clean[(blk.lam, blk.mu)] = blk
        self._store(params, int(d), clean)

    def _like(self, terms):
        return SchurElement._make(self.params, self.d,
                                  {k: b for k, b in terms.items() if b})

    @staticmethod
    def zero(params, d) -> "SchurElement":
        return SchurElement(params, d, {})

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

    def _same_space(self, other):
        if (self.params, self.d) != (other.params, other.d):
            raise BlockMismatch("mixed parameter sets")

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

    def __eq__(self, other):
        if not isinstance(other, SchurElement):
            return NotImplemented
        self._same_space(other)
        keys = set(self.terms) | set(other.terms)
        for lam, mu in keys:
            if self.block(lam, mu) != other.block(lam, mu):
                return False
        return True

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(str(self.terms[k]) for k in sorted(self.terms))

    def __repr__(self):
        return f"SchurElement({self})"


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
    return ConvBlock._make(params, d, omega, omega,
                           {identity(d): lower, simple(d, i): upper})


@pack_cached
def _phi_word(params, d, w) -> ConvBlock:
    omega = (1,) * d
    if w == identity(d):
        return ConvBlock._make(params, d, omega, omega,
                               {identity(d): LocalizedElement.one(params, d)})
    wi = inverse(w)
    for i in range(d - 1):
        if wi[i] > wi[i + 1]:
            return _phi_gen(params, d, i).mul(
                _phi_word(params, d, mul(simple(d, i), w)))
    raise AssertionError("unreachable")


def phi_embed(a: PqwpElement) -> SchurElement:
    """Algebra embedding into the full-flag block: coefficients become
    point-supported functions, braid generators become the two-term kernels
    with first-order poles."""
    params, d = a.params, a.d
    omega = (1,) * d
    out = None
    for w, b in a.terms.items():
        blk = _phi_word(params, d, w)
        piece = ConvBlock._make(params, d, omega, omega,
                                {g: LocalizedElement(b * r.core, r.nfac, r.dfac)
                                 for g, r in blk.terms.items()})
        out = piece if out is None else out + piece
    if out is None:
        out = ConvBlock.zero(params, d, omega, omega)
    return SchurElement.from_block(out)


# polynomial representation ---------------------------------------------------

class PolyRepVector(_Frozen):
    """Element of the lam component of the polynomial representation: an
    S_lam-invariant value, polynomial in practice but allowed to carry
    denominators transiently.

    Only the public constructor validates its input: a value over the same
    (params, d), invariant under S_lam.  Results of the action are built
    by ``_make``, which trusts them."""

    __slots__ = ("params", "d", "lam", "value")

    def __init__(self, params, d, lam, value):
        d = int(d)
        lam = check_comp(d, lam)
        if isinstance(value, TensorPoly):
            value = LocalizedElement(value)
        if value.params is not params or value.d != d:
            raise BlockMismatch("vector value lives over different data")
        self._store(params, d, lam, require_invariant(value, lam))

    @staticmethod
    def one(params, d, lam) -> "PolyRepVector":
        return PolyRepVector(params, d, lam, LocalizedElement.one(params, d))

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __add__(self, other):
        if not isinstance(other, PolyRepVector):
            return NotImplemented
        if (self.params, self.d, self.lam) != (other.params, other.d, other.lam):
            raise BlockMismatch("cannot add vectors of different components")
        return PolyRepVector._make(self.params, self.d, self.lam,
                                   self.value + other.value)

    def __eq__(self, other):
        if not isinstance(other, PolyRepVector):
            return NotImplemented
        return (self.lam, self.d) == (other.lam, other.d) and \
            self.value == other.value

    def __str__(self):
        return f"[{self.lam}] {self.value}"

    def __repr__(self):
        return f"PolyRepVector({self})"


def _block_apply(blk: ConvBlock, v: PolyRepVector) -> PolyRepVector:
    """Action of one block on a column vector:

        (f v)([1]) = sum_h f([1],[h]) h(e_mu)^{-1} h(v)

    over coset representatives h; the merge-shaped blocks short-circuit to the
    fraction-free symmetrization."""
    params, d = blk.params, blk.d
    if blk.mu != v.lam:
        raise BlockMismatch(f"block columns {blk.mu} vs vector {v.lam}")
    e = identity(d)
    one = LocalizedElement.one(params, d)
    if set(blk.terms) == {e} and blk.terms[e] == one and \
            region_L(blk.mu) <= region_L(blk.lam):
        return PolyRepVector._make(params, d, blk.lam,
                                   merge_apply(params, d, blk.lam, blk.mu, v.value))
    acc = LocalizedElement.zero(params, d)
    for h in coset_reps(blk.mu, "right"):
        u, g, _ = double_coset_decompose(h, blk.lam, blk.mu)
        r = blk.terms.get(g)
        if r is None:
            continue
        term = r.place_permute(u) * v.value.place_permute(h)
        acc = acc + term * _e_localized(params, d, blk.mu, True, w=h)
    result = acc * _e_localized(params, d, blk.lam, False)
    return PolyRepVector._make(params, d, blk.lam, result)


def merge_apply(params, d, lam, nu, value) -> LocalizedElement:
    """Fraction-free action of the merge from nu-invariants to lam-invariants,
    one pairwise block fusion at a time; each fusion is the symmetrized sum

        sum_w w( value * prod P_ij / (x_i - x_j) )

    over shuffles of the two sub-blocks, which always collapses to a
    polynomial."""
    lam = check_comp(d, lam)
    nu = check_comp(d, nu)
    check_refines(nu, lam)
    if isinstance(value, TensorPoly):
        value = LocalizedElement(value)
    if lam == nu:
        return value
    # fuse the first two nu-parts inside a common lam-block
    bo = block_of(lam)
    cuts = [0]
    for part in nu:
        cuts.append(cuts[-1] + part)
    step = None
    for k in range(len(nu) - 1):
        if bo[cuts[k]] == bo[cuts[k + 1]]:
            step = k
            break
    assert step is not None
    fused = nu[:step] + (nu[step] + nu[step + 1],) + nu[step + 2:]
    a = list(range(cuts[step], cuts[step + 1]))
    b = list(range(cuts[step + 1], cuts[step + 2]))
    arg = value * _p_over_lin(params, d, ((i, j) for i in a for j in b))
    acc = None
    for w in _two_block_shuffles(d, tuple(a), tuple(b)):
        term = arg.place_permute(w)
        acc = term if acc is None else acc + term
    assert not acc.dfac, "pairwise fusion did not collapse"
    return merge_apply(params, d, lam, fused, acc)


@lru_cache(maxsize=None)
def _two_block_shuffles(d, a, b) -> tuple:
    """Permutations of a+b (contiguous, adjacent) increasing on both halves,
    fixing everything else."""
    span = a + b
    out = []
    for picks in combinations(range(len(span)), len(a)):
        w = list(range(d))
        rest = [k for k in range(len(span)) if k not in picks]
        for src, dst in zip(a, picks):
            w[src] = span[dst]
        for src, dst in zip(b, rest):
            w[src] = span[dst]
        out.append(tuple(w))
    return tuple(out)


def poly_rep_apply(s: SchurElement, v: PolyRepVector) -> PolyRepVector:
    """Apply a Schur element to a vector in the v.lam component.  The element
    must carry the result into a single component; a zero result stays in the
    component of v."""
    if (s.params, s.d) != (v.params, v.d):
        raise BlockMismatch("mixed parameter sets")
    results = {}
    for (lam, mu), blk in s.terms.items():
        if mu != v.lam:
            continue
        piece = _block_apply(blk, v)
        cur = results.get(lam)
        results[lam] = piece if cur is None else cur + piece
    results = {lam: r for lam, r in results.items() if not r.is_zero()}
    if not results:
        return PolyRepVector._make(v.params, v.d, v.lam,
                                   LocalizedElement.zero(v.params, v.d))
    if len(results) > 1:
        raise BlockMismatch(
            f"result spans components {sorted(results)}; apply blockwise")
    return next(iter(results.values()))


# the faithfulness oracle -----------------------------------------------------

@pack_cached
def _detecting_family(params, d, mu) -> tuple:
    """Symmetrized products (staircase monomial) x (basis tensor), enough to
    separate every block with column composition mu."""
    alg = params.algebra
    family = []
    exp_ranges = [range(d - j) for j in range(1, d)]
    for fkey in iproduct(range(alg.dim), repeat=d):
        for exps in iproduct(*exp_ranges):
            base = monomial(params, d, fkey, tuple(exps) + (0,))
            acc = zero_poly(params, d)
            for u in young_subgroup(mu):
                acc = acc + base.place_permute(u)
            if not acc.is_zero():
                family.append(acc)
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
    for (lam, mu), blk in s.terms.items():
        if not blk:
            continue
        for b in _detecting_family(s.params, s.d, mu):
            v = PolyRepVector._make(s.params, s.d, mu, LocalizedElement(b))
            if not _block_apply(blk, v).is_zero():
                return False
    return True


def elements_equal(a: SchurElement, b: SchurElement) -> bool:
    """Equality through the polynomial representation."""
    return zero_test_via_poly_rep(a - b)


# crossings -------------------------------------------------------------------

def _coset_datum(d, lam, mu, g):
    """(lam, mu, g, nu, delta) for a minimal representative g of
    S_lam \\ S_d / S_mu, with nu and delta the row and column readings of
    its matrix."""
    lam, mu, g = check_comp(d, lam), check_comp(d, mu), tuple(g)
    if g not in double_coset_reps(lam, mu):
        raise ValueError(f"{g} is not minimal for ({lam}, {mu})")
    return (lam, mu, g) + coset_shapes(matrix_from_triple(lam, g, mu))


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
        c = unit_poly(params, d)
        for a in range(i):
            for b in range(i):
                c = c * alpha_ij(params, d, a, d - i + b)
        term = laurel_basis_element(params, d, lam, mu, g, c)
        total = term if total is None else total + term
    return total


def dumb_vs_smart_identity(params, d, lam, oracle="values") -> dict:
    """Check that splitting out of the full merge equals the crossing sum for
    a two-part shape and its reversal.  oracle='values' compares stored block
    values; oracle='family' additionally runs the polynomial representation.
    Returns a summary dict; raises IdentityFailed on mismatch."""
    lam, mu = _two_part(d, lam)
    full = (d,)
    left = split_merge(params, d, full, lam, kind="partial_split") * \
        split_merge(params, d, full, mu, kind="partial_merge")
    right = crossing(params, d, lam)
    terms = min(lam) + 1
    if oracle not in ("values", "family", "both"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if oracle in ("values", "both"):
        if left != right:
            raise IdentityFailed(
                f"crossing decomposition failed for {lam}: {left} != {right}")
    if oracle in ("family", "both"):
        if not elements_equal(left, right):
            raise IdentityFailed(
                f"crossing decomposition failed on the detecting family for {lam}")
    return {"lam": lam, "mu": mu, "terms": terms, "oracle": oracle}


# coil and laurel elements ----------------------------------------------------

def coil_basis_element(params, d, lam, mu, g, b) -> SchurElement:
    """Merge, braid word with invariant coefficient, split: the spanning
    elements of the block with the given rows and columns."""
    lam, mu, g, nu, _ = _coset_datum(d, lam, mu, g)
    if isinstance(b, TensorPoly):
        require_invariant(b, nu)
        elt = PqwpElement.of_poly(b)
    else:
        elt = b
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
