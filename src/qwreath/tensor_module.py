"""Tensor powers of the free rank-n module with the Hecke-generator
action, their weight-slice submodules, and the block maps between slices
indexed by integer matrices with a partially symmetric coefficient.

The permutation module y_lam * H and the weight-lam slice are linked by one
right-linear map, psi_lam(y_lam * a) = v_lam+ * a, where v_lam+ is the basis
vector of weight lam with sorted index tuple and coefficient one.  For a
shortest representative w, v_mu+ * H_w is the basis vector indexed by the
sorted tuple shuffled through w, so v_mu+ generates the weight-mu slice, and
a block map from it is fixed by one vector, z = v_lam+ * core, the image of
v_mu+: it sends v_{mu+ . w} * c to z * H_w * c."""

from functools import cached_property
from itertools import product

from .base_algebra import _UNSEEN, IdentityFailed, SparseSum, _add_terms, add_batch
from .coeff_ring import echelon_pivots, signed_join, term_str
from .pqwp import ParamMismatch, PqwpElement, _check_letter, k_lambda, pqwp_mul
from .symcomb import (ThetaMatrix, blocks, check_comp, coset_reps,
                      coset_shapes, double_coset_decompose, double_coset_reps,
                      length, longest_in_young, matrix_from_triple,
                      matrix_to_perm, mul, reduced_word, sort_index,
                      strip_zeros, to_one_line, weak_compositions,
                      young_subgroup)
from .tensor_poly import (TensorPoly, abar_ij, monomial, r_ij,
                          require_invariant, s_ij, unit_poly, zero_poly)


class ModuleMismatch(ValueError):
    """Operands attached to different slices, sizes, or parameter packs."""


class SpanViolation(ValueError):
    """Element does not lie in the expected free module."""


# tensor vectors ---------------------------------------------------------------


class TensorVector(SparseSum):
    """Sum of v_i * b over index tuples i with entries in 1..n; the
    coefficients b live in the d-fold tensor polynomial ring.  Immutable,
    like its TensorPoly coefficients; the public constructor checks the
    index tuples and that each b is a TensorPoly over (params, d), a zero b
    included, before it drops the zero coefficients."""

    __slots__ = ("params", "n", "d", "terms")

    def __init__(self, params, n, d, terms=None):
        self.params = params
        self.n = n
        self.d = d
        clean = {}
        for idx, b in (terms or {}).items():
            if not (isinstance(b, TensorPoly) and b.params is params and b.d == d):
                raise ModuleMismatch(f"coefficient at {idx} lives over other data")
            if len(idx) != d or any(not 1 <= v <= n for v in idx):
                raise ModuleMismatch(f"index tuple {idx} not in [1..{n}]^{d}")
            if b:
                clean[tuple(idx)] = b
        self.terms = clean

    def _kept(self, terms):
        out = object.__new__(TensorVector)
        out.params = self.params
        out.n = self.n
        out.d = self.d
        out.terms = terms
        return out

    @staticmethod
    def zero(params, n, d) -> "TensorVector":
        return TensorVector(params, n, d, {})

    @staticmethod
    def basis(params, n, d, idx, b=None) -> "TensorVector":
        if b is None:
            b = unit_poly(params, d)
        return TensorVector(params, n, d, {tuple(idx): b})

    def _same_space(self, other):
        if (self.params is not other.params or self.n != other.n
                or self.d != other.d):
            raise ModuleMismatch("vectors live in different tensor powers")

    def times_poly(self, q: TensorPoly) -> "TensorVector":
        """Right action of the coefficient ring, factor by factor: the
        batched product on a batch of one."""
        return times_poly_batch((self,), q)[0]

    def support(self):
        return sorted(self.terms)

    def __str__(self):
        chunks = []
        for idx in self.support():
            tag = "v[" + ",".join(map(str, idx)) + "]"
            chunks.append(term_str(self.terms[idx].factor_str(), tag, right=True))
        return signed_join(chunks)


def times_poly_batch(vectors, q: TensorPoly) -> list:
    """Right action of the coefficient ring on each vector of a batch, in
    order: every coefficient b becomes b * q, with b kept on the left, as F
    need not be commutative.  The product is computed and tested for zero
    once per coefficient object b of the batch, through a lookup keyed by
    ``id(b)`` that lives only for the call, as in ``act_H_batch``; only the
    nonzero products are stored, so the results need no second zero scan."""
    products = {}
    out = []
    for v in vectors:
        terms = {}
        for idx, b in v.terms.items():
            bq = products.get(id(b), _UNSEEN)
            if bq is _UNSEEN:
                bq = products[id(b)] = b * q or None
            if bq is not None:
                terms[idx] = bq
        out.append(v._kept(terms))
    return out


def _swap(idx, k):
    out = list(idx)
    out[k], out[k + 1] = out[k + 1], out[k]
    return tuple(out)


def act_H(v: TensorVector, k: int) -> TensorVector:
    """Right action of the k-th Hecke generator on one vector: the batch
    action on a batch of one, so it shares sigma_k(b) and rho_k(b) only
    between the terms of v that hold the same coefficient object b."""
    return act_H_batch((v,), k)[0]


def act_H_batch(vectors, k: int) -> list:
    """Right action of the k-th Hecke generator on each vector of a batch,
    in order, by the three-way case split on the neighbouring index entries
    of each term v_i * b:

        i_k < i_k+1:  v_{s_k i} * sigma_k(b) + v_i * rho_k(b)
        i_k = i_k+1:  v_i * (abar * sigma_k(b) + rho_k(b))
        i_k > i_k+1:  v_{s_k i} * (R * sigma_k(b)) + v_i * (rho_k(b) + S * sigma_k(b))

    sigma_k(b) and rho_k(b) are computed once per coefficient object b of
    the batch, and the products of each case once per object and case, so
    vectors that hold the same b share them.  Images of such a batch hold
    shared objects again, so the sharing carries over to the next generator:
    ``tensor_relations_check`` acts on its pure vectors, which hold one
    unit object, a letter at a time and keeps the sharing along each word.
    Each image adds its swapped terms to its kept ones as ``add_batch``
    does, with one lookup of sums for the whole call.  The lookups are
    keyed by ``id`` and live only for the call, while the batch and the
    case lookup keep every b and summand alive; equal but distinct objects
    are worked out separately.  All vectors must live in one tensor power
    (ModuleMismatch otherwise); an empty batch gives []."""
    vectors = tuple(vectors)
    if not vectors:
        return []
    first = vectors[0]
    for v in vectors:
        first._same_space(v)
    params, d = first.params, first.d
    _check_letter(d, k)
    abar = abar_ij(params, d, k, k + 1)
    rr = r_ij(params, d, k, k + 1)
    ss = s_ij(params, d, k, k + 1)
    sigma_rho = {}
    cases = {}
    sums = {}

    def parts(b, case):
        """(coefficient at the swapped index, coefficient at the index) of a
        term v_i * b whose case is the sign of i_k - i_k+1; None for zero."""
        hit = cases.get((id(b), case))
        if hit is None:
            pair = sigma_rho.get(id(b))
            if pair is None:
                pair = sigma_rho[id(b)] = (b.place_permute_simple(k),
                                           b.twisted_demazure(k))
            swapped, rho = pair
            if case < 0:
                hit = (swapped, rho or None)
            elif case == 0:
                hit = (None, abar * swapped + rho or None)
            else:
                hit = (rr * swapped or None, rho + ss * swapped or None)
            cases[(id(b), case)] = hit
        return hit

    out_vectors = []
    for v in vectors:
        stay, swap = {}, {}
        for idx, b in v.terms.items():
            i, j = idx[k], idx[k + 1]
            to_swap, to_stay = parts(b, (i > j) - (i < j))
            if to_swap is not None:
                swap[_swap(idx, k)] = to_swap
            if to_stay is not None:
                stay[idx] = to_stay
        out_vectors.append(v._kept(_add_terms(stay, swap, sums)))
    return out_vectors


def act_word(v: TensorVector, letters) -> TensorVector:
    for k in letters:
        v = act_H(v, k)
    return v


def act_pqwp(v: TensorVector, a: PqwpElement) -> TensorVector:
    """Right action of a full algebra element: each normal-form term b*H_w
    acts as multiplication by b followed by the generator word of w."""
    if a.params is not v.params or a.d != v.d:
        raise ModuleMismatch("element and vector live over different data")
    out = TensorVector.zero(v.params, v.n, v.d)
    for w, b in a.terms.items():
        out = out + act_word(v.times_poly(b), reduced_word(w))
    return out


# well-definedness of the action ------------------------------------------------


def _random_poly(params, d, rng):
    """A sum of three random monomials of exponents at most 3."""
    labels = range(len(params.algebra.labels))
    out = zero_poly(params, d)
    for _ in range(3):
        exps = tuple(rng.randrange(4) for _ in range(d))
        fkey = tuple(rng.choice(list(labels)) for _ in range(d))
        out = out + monomial(params, d, fkey, exps, rng.randrange(1, 5))
    return out


def tensor_relations_check(params, n, d, rng=None) -> int:
    """Act with both sides of every defining relation on all pure basis
    vectors and on 20 random coefficients; the sides must agree exactly.
    Returns the number of identities compared.  n and d must be at least 1
    (ValueError naming the argument otherwise); at d = 1 there is no
    relation to compare and the count is 0.

    The vectors are worked in batches, and each identity is still compared
    vector by vector.  The pure vectors v_i * 1 form one batch and all hold
    one unit object; each random coefficient sits on a batch of one.  On a
    batch, the images under the quadratic, braid and commuting words are
    built a letter at a time over the prefix-closed set of those words, one
    ``act_H_batch`` per word, the products v * S and v * R of the
    quadratic relations are one ``times_poly_batch`` each, and their sums
    (v * S) * H_k + v * R one ``add_batch``.  The images of the pure batch
    hold few distinct coefficient objects, so sigma_k, rho_k, the
    coefficient products and the coefficient sums are computed once per
    object or pair of objects, not once per vector.  The random samples
    share no coefficient object: batching them together would save no work
    and only hold all their images at once.

    The pass-through identities (v * H_k) * q = (v * sigma_k(q)) * H_k
    + v * rho_k(q) follow on the pure vectors, for each k and then each
    random coefficient q in turn: (v * H_k) * q, v * sigma_k(q) and
    v * rho_k(q) are one batched product each over the pure batch, the
    action of H_k on the middle one is one ``act_H_batch``, and the sum of
    the right-hand side one ``add_batch``."""
    for name, size in (("n", n), ("d", d)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {name}={size}")
    import random
    rng = rng or random.Random(0)
    polys = [_random_poly(params, d, rng) for _ in range(20)]
    one = unit_poly(params, d)
    pure = [TensorVector.basis(params, n, d, idx, one)
            for idx in product(range(1, n + 1), repeat=d)]
    randoms = []
    for q in polys:
        idx = tuple(rng.randrange(1, n + 1) for _ in range(d))
        randoms.append(TensorVector.basis(params, n, d, idx, q))

    pairs = [((k, k + 1, k), (k + 1, k, k + 1), f"braid k={k + 1}")
             for k in range(d - 2)]
    pairs += [((k, m), (m, k), f"commuting k={k + 1} m={m + 1}")
              for k in range(d - 1) for m in range(k + 2, d - 1)]
    words = [(k, k) for k in range(d - 1)]
    words += [w for left, right, _ in pairs for w in (left, right)]
    # sorted, every proper prefix comes before the words it begins
    prefixes = sorted({w[:end] for w in words for end in range(1, len(w) + 1)})
    count = 0

    def demand(lhs, rhs, label):
        nonlocal count
        if lhs != rhs:
            raise IdentityFailed(f"tensor action breaks {label}",
                                 witness={"relation": label,
                                          "left": str(lhs), "right": str(rhs)})
        count += 1

    def relations(batch):
        """Compare the quadratic, braid and commuting relations on every
        vector of the batch; returns the images v * H_k, for each k."""
        images = {(): batch}
        for w in prefixes:
            images[w] = act_H_batch(images[w[:-1]], w[-1])
        for k in range(d - 1):
            moved = act_H_batch(times_poly_batch(batch, s_ij(params, d, k, k + 1)), k)
            kept = times_poly_batch(batch, r_ij(params, d, k, k + 1))
            for lhs, rhs in zip(images[(k, k)], add_batch(moved, kept)):
                demand(lhs, rhs, f"quadratic k={k + 1}")
        for left, right, label in pairs:
            for lhs, rhs in zip(images[left], images[right]):
                demand(lhs, rhs, label)
        return [images[(k,)] for k in range(d - 1)]

    first_steps = relations(pure)
    for v in randoms:
        relations([v])
    for k in range(d - 1):
        for q in polys:
            lhs = times_poly_batch(first_steps[k], q)
            moved = act_H_batch(times_poly_batch(pure, q.place_permute_simple(k)), k)
            kept = times_poly_batch(pure, q.twisted_demazure(k))
            for left, rhs in zip(lhs, add_batch(moved, kept)):
                demand(left, rhs, f"coefficient pass-through k={k + 1}")
    return count


# weight slices -----------------------------------------------------------------


def weight_of(idx, n):
    lam = [0] * n
    for v in idx:
        lam[v - 1] += 1
    return tuple(lam)


def plus_vector(params, lam) -> TensorVector:
    """v_lam+: the basis vector of weight lam whose index tuple is sorted,
    with coefficient one.  psi(y_lam * a) = v_lam+ * a."""
    idx = [v + 1 for v, part in enumerate(lam) for _ in range(part)]
    return TensorVector.basis(params, len(lam), len(idx), idx)


# block maps between slices -----------------------------------------------------


class ThetaMap:
    """Right-linear map between two weight slices, indexed by an integer
    matrix A (row sums: target weight, column sums: source weight) and a
    coefficient P invariant under the column-reading Young subgroup.

    The map sends y_mu to y_lam * core, where core is the normal form of
    H_g * P * K^upper_{mu,delta} (P * H_g * K is no module map in general),
    and extends by right linearity; every term of core sits on a shortest
    representative of the target.  ``source`` and ``target`` are the weights
    mu and lam, zero parts kept."""

    def __init__(self, params, A: ThetaMatrix, P: TensorPoly = None):
        self.params = params
        self.A = A
        self.target, self.g, self.source = A.lam, matrix_to_perm(A), A.mu
        _, self.delta = coset_shapes(self.target, self.g, self.source)
        self.d = A.d
        if P is None:
            P = unit_poly(params, self.d)
        if P.params is not params or P.d != self.d:
            raise ModuleMismatch("coefficient lives over different data")
        self.P = require_invariant(P, self.delta)
        k_upper = k_lambda(params, self.d, strip_zeros(self.source), "upper",
                           self.delta)
        self.core = pqwp_mul(PqwpElement.h_of_perm(params, self.d, self.g),
                             k_upper.poly_left(P))

    @cached_property
    def z(self) -> TensorVector:
        """v_lam+ * core, the image of v_mu+, which fixes the map."""
        return act_pqwp(plus_vector(self.params, self.target), self.core)


def theta_apply(theta: ThetaMap, coords) -> dict:
    """Apply a block map to source-slice coordinates {g: b_g}, meaning the
    sum of y_mu * b_g * H_g over shortest representatives g; the result is
    in target-slice coordinates, read from the leading terms: the term of
    y_lam * b * H_g on w0 * g is w0(b), for w0 the longest element of S_lam.
    A coset without its leading term raises SpanViolation; a coefficient
    over other data raises ModuleMismatch."""
    reps = set(coset_reps(strip_zeros(theta.source), "left"))
    for g in coords:
        if g not in reps:
            raise ModuleMismatch(
                f"{to_one_line(g)} is not a shortest representative "
                f"for {theta.source}")
    lam = strip_zeros(theta.target)
    try:
        w_elt = PqwpElement(theta.params, theta.d, dict(coords))
    except ParamMismatch as exc:
        raise ModuleMismatch("coordinates live over different data") from exc
    total = pqwp_mul(k_lambda(theta.params, theta.d, lam),
                     pqwp_mul(theta.core, w_elt))
    w0 = longest_in_young(lam)
    omega = (1,) * theta.d
    out = {}
    for g in sorted({double_coset_decompose(w, lam, omega)[1]
                     for w in total.terms},
                    key=lambda g: (length(g), g)):
        top = total.terms.get(mul(w0, g))
        if top is None:
            raise SpanViolation(
                f"no leading term over the coset of {to_one_line(g)}")
        out[g] = top.place_permute(w0)
    return out


def theta_on_tensor(theta: ThetaMap, v: TensorVector) -> TensorVector:
    """The block map as an operator on the whole tensor power, through z:
    each term v_{mu+ . w} * c of the source slice of v is v_mu+ * H_w * c,
    so its image is z * H_w * c, with w read off the index tuple.  Every
    other slice is killed."""
    if v.params is not theta.params or v.d != theta.d:
        raise ModuleMismatch("vector and block map live over different data")
    if len(theta.source) != v.n or len(theta.target) != v.n:
        raise ModuleMismatch(
            f"block map from {theta.source} to {theta.target} does not act "
            f"on the tensor power of rank {v.n}")
    out = TensorVector.zero(v.params, v.n, v.d)
    for idx, c in v.terms.items():
        if weight_of(idx, v.n) == theta.source:
            word = reduced_word(sort_index(idx))
            out = out + act_word(theta.z, word).times_poly(c)
    return out


def is_module_map(theta: ThetaMap) -> bool:
    """Whether the block map commutes with the generator action.  The source
    slice is generated by v_mu+ subject to v_mu+ * H_k = v_mu+ * abar_k for
    each s_k in S_mu, wherever the PBW conditions hold, so the map is a
    module map exactly when z * H_k = z * abar_k for those k."""
    z, p, d = theta.z, theta.params, theta.d
    return all(act_H(z, k) == z.times_poly(abar_ij(p, d, k, k + 1))
               for blk in blocks(strip_zeros(theta.source)) for k in blk[:-1])


# degree-bounded invariant coefficients ------------------------------------------


def invariant_basis(params, d, delta, degree) -> list:
    """Monomial orbit sums under the Young subgroup of delta (the distinct
    ``place_permute`` images of each monomial, coefficient one), with
    nonnegative exponents of total degree at most the bound.  For Laurent
    rings this is the polynomial slice of the invariants."""
    group = young_subgroup(check_comp(d, delta))
    nf = len(params.algebra.labels)
    seen = set()
    out = []
    for t in range(degree + 1):
        for exps in weak_compositions(t, d):
            for fkey in product(range(nf), repeat=d):
                if (exps, fkey) in seen:
                    continue
                mono = monomial(params, d, fkey, exps)
                orbit = {}
                for w in group:
                    orbit.update(mono.place_permute(w).terms)
                seen.update(orbit)
                out.append(TensorPoly(params, d, dict(sorted(orbit.items()))))
    return out


def theta_family_rank(params, lam, mu, degree) -> dict:
    """Linear independence of the block maps with fixed source and target
    weights, over the degree-bounded invariant coefficients: returns the
    number of maps and the rank of their expansion matrix.  A negative
    degree is a ValueError."""
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got degree={degree}")
    lam, mu = tuple(lam), tuple(mu)
    d = sum(lam)
    if sum(mu) != d:
        raise ValueError("weights must have equal size")
    rows = []
    count = 0
    for g in double_coset_reps(strip_zeros(lam), strip_zeros(mu)):
        A = matrix_from_triple(lam, g, mu)
        _, delta = coset_shapes(lam, g, mu)
        for P in invariant_basis(params, d, delta, degree):
            theta = ThetaMap(params, A, P)
            vec = {}
            for w, b in theta.core.terms.items():
                for key, c in b.terms.items():
                    vec[(w, key)] = c
            rows.append(vec)
            count += 1
    return {"count": count, "rank": len(echelon_pivots(rows))}
