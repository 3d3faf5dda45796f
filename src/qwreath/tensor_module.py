"""Tensor powers of the free rank-n module with the Hecke-generator
action, their weight-slice submodules, and the block maps between slices
indexed by integer matrices with a partially symmetric coefficient.

The permutation module y_lam * H and the weight-lam slice are linked by one
right-linear map, psi_lam(y_lam * a) = v_lam+ * a, where v_lam+ is the basis
vector of weight lam with sorted index tuple and coefficient one.  For a
shortest representative w, v_lam+ * H_w is the basis vector indexed by the
sorted tuple shuffled through w, so a slice vector sum of v_{lam+ . w} * c_w
is v_lam+ * (sum of H_w c_w): its coefficients are right coefficients."""

from itertools import product

from .base_algebra import SparseSum
from .coeff_ring import echelon_pivots
from .pqwp import (IdentityFailed, PqwpElement, from_right_coefficients,
                   k_lambda, pqwp_mul)
from .symcomb import (ThetaMatrix, check_comp, coset_reps, coset_shapes,
                      double_coset_data, double_coset_decompose,
                      double_coset_reps, length, longest_in_young,
                      matrix_from_triple, mul, reduced_word, strip_zeros,
                      to_one_line, weak_compositions, young_subgroup)
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
    index tuples."""

    __slots__ = ("params", "n", "d", "terms")

    def __init__(self, params, n, d, terms=None):
        self.params = params
        self.n = n
        self.d = d
        clean = {}
        for idx, b in (terms or {}).items():
            if not b:
                continue
            if len(idx) != d or any(not 1 <= v <= n for v in idx):
                raise ModuleMismatch(f"index tuple {idx} not in [1..{n}]^{d}")
            clean[tuple(idx)] = b
        self.terms = clean

    def _like(self, terms):
        """A vector in the same tensor power, taking ownership of the dict
        terms; only zero coefficients are dropped."""
        out = object.__new__(TensorVector)
        out.params = self.params
        out.n = self.n
        out.d = self.d
        out.terms = terms if all(terms.values()) else {
            idx: b for idx, b in terms.items() if b}
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
        """Right action of the coefficient ring, factor by factor."""
        return self._like({idx: b * q for idx, b in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, TensorVector)
                and self.params is other.params and self.n == other.n
                and self.d == other.d and self.terms == other.terms)

    def support(self):
        return sorted(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for idx in self.support():
            tag = "v[" + ",".join(map(str, idx)) + "]"
            c = self.terms[idx]
            cs = str(c)
            if c == unit_poly(self.params, self.d):
                chunks.append(tag)
            else:
                if " + " in cs or " - " in cs:
                    cs = "(" + cs + ")"
                chunks.append(f"{tag}*{cs}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"TensorVector({self})"


def _swap(idx, k):
    out = list(idx)
    out[k], out[k + 1] = out[k + 1], out[k]
    return tuple(out)


def act_H(v: TensorVector, k: int) -> TensorVector:
    """Right action of the k-th Hecke generator, by the three-way case
    split on the neighbouring index entries."""
    if not 0 <= k < v.d - 1:
        raise ValueError(f"generator index {k} out of range for d={v.d}")
    params, d = v.params, v.d
    abar = abar_ij(params, d, k, k + 1)
    rr = r_ij(params, d, k, k + 1)
    ss = s_ij(params, d, k, k + 1)
    out = {}

    def bump(idx, b):
        if b.is_zero():
            return
        cur = out.get(idx)
        out[idx] = b if cur is None else cur + b

    for idx, b in v.terms.items():
        swapped = b.place_permute_simple(k)
        rho = b.twisted_demazure(k)
        if idx[k] < idx[k + 1]:
            bump(_swap(idx, k), swapped)
            bump(idx, rho)
        elif idx[k] == idx[k + 1]:
            bump(idx, abar * swapped + rho)
        else:
            bump(_swap(idx, k), rr * swapped)
            bump(idx, rho + ss * swapped)
    return v._like(out)


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


def _random_poly(params, d, rng, degree=3, terms=3):
    labels = range(len(params.algebra.labels))
    out = zero_poly(params, d)
    for _ in range(terms):
        exps = tuple(rng.randrange(degree + 1) for _ in range(d))
        fkey = tuple(rng.choice(list(labels)) for _ in range(d))
        out = out + monomial(params, d, fkey, exps, rng.randrange(1, 5))
    return out


def tensor_relations_check(params, n, d, rng=None, extra=20, degree=3) -> int:
    """Act with both sides of every defining relation on all pure basis
    vectors and on a batch of random coefficients; the sides must agree
    exactly.  Returns the number of identities compared."""
    import random
    rng = rng or random.Random(0)
    polys = [_random_poly(params, d, rng, degree) for _ in range(extra)]
    pure = [TensorVector.basis(params, n, d, idx)
            for idx in product(range(1, n + 1), repeat=d)]
    samples = list(pure)
    for q in polys:
        idx = tuple(rng.randrange(1, n + 1) for _ in range(d))
        samples.append(TensorVector.basis(params, n, d, idx, q))

    # sigma_k(q) and rho_k(q) of each random coefficient, shared by the
    # pass-through identities of every pure vector
    passes = [[(q, q.place_permute_simple(k), q.twisted_demazure(k)) for q in polys]
              for k in range(d - 1)]

    def demand(lhs, rhs, label):
        if lhs != rhs:
            raise IdentityFailed(f"tensor action breaks {label}",
                                 witness={"relation": label,
                                          "left": str(lhs), "right": str(rhs)})

    count = 0
    for i, v in enumerate(samples):
        image = _word_images(v)
        for k in range(d - 1):
            rhs = act_H(v.times_poly(s_ij(params, d, k, k + 1)), k)
            rhs = rhs + v.times_poly(r_ij(params, d, k, k + 1))
            demand(image((k, k)), rhs, f"quadratic k={k + 1}")
            count += 1
        for k in range(d - 2):
            demand(image((k, k + 1, k)), image((k + 1, k, k + 1)),
                   f"braid k={k + 1}")
            count += 1
        for k in range(d - 1):
            for m in range(k + 2, d - 1):
                demand(image((k, m)), image((m, k)),
                       f"commuting k={k + 1} m={m + 1}")
                count += 1
        if i >= len(pure):
            continue
        for k in range(d - 1):
            vk = image((k,))
            for q, swapped, rho in passes[k]:
                rhs = act_H(v.times_poly(swapped), k)
                rhs = rhs + v.times_poly(rho)
                demand(vk.times_poly(q), rhs,
                       f"coefficient pass-through k={k + 1}")
                count += 1
    return count


def _word_images(v):
    """The map word -> v acted on by the generators of word in turn.  Each
    image is computed once, from the image of its longest proper prefix, so
    words with a common prefix share its images."""
    memo = {(): v}

    def image(word):
        hit = memo.get(word)
        if hit is None:
            hit = memo[word] = act_H(image(word[:-1]), word[-1])
        return hit
    return image


# weight slices -----------------------------------------------------------------


def sort_index(idx):
    """Nondecreasing rearrangement of an index tuple and the shortest
    permutation w with rearranged . w = idx (stable sort resolves ties)."""
    d = len(idx)
    order = sorted(range(d), key=lambda j: (idx[j], j))
    w = [0] * d
    for r, j in enumerate(order):
        w[j] = r
    plus = tuple(idx[j] for j in order)
    return plus, tuple(w)


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
    P * H_g * y_mu^delta, and extends by right linearity; every term of core
    sits on a shortest representative of the target.  ``source`` and
    ``target`` are the weights mu and lam, zero parts kept."""

    def __init__(self, params, A: ThetaMatrix, P: TensorPoly = None):
        self.params = params
        self.A = A
        self.target, self.g, self.source, self.delta, _, _ = \
            double_coset_data(A)
        self.d = A.d
        if P is None:
            P = unit_poly(params, self.d)
        if P.params is not params or P.d != self.d:
            raise ModuleMismatch("coefficient lives over different data")
        self.P = require_invariant(P, self.delta)
        rest = pqwp_mul(PqwpElement.h_of_perm(params, self.d, self.g),
                        k_lambda(params, self.d, strip_zeros(self.source),
                                 "upper", self.delta))
        self.core = pqwp_mul(PqwpElement.of_poly(P), rest)
        reps = set(coset_reps(strip_zeros(self.target), "left"))
        bad = [w for w in self.core.terms if w not in reps]
        if bad:
            raise IdentityFailed(
                "block map expansion leaves the shortest representatives",
                witness={"matrix": repr(A),
                         "perms": [to_one_line(w) for w in bad]})


def theta_apply(theta: ThetaMap, coords) -> dict:
    """Apply a block map to source-slice coordinates {g: b_g}, meaning the
    sum of y_mu * b_g * H_g over shortest representatives g; the result is
    in target-slice coordinates, read from the leading terms: the term of
    y_lam * b * H_g on w0 * g is w0(b), for w0 the longest element of S_lam.
    A coset without its leading term raises SpanViolation."""
    reps = set(coset_reps(strip_zeros(theta.source), "left"))
    for g, b in coords.items():
        if g not in reps:
            raise ModuleMismatch(
                f"{to_one_line(g)} is not a shortest representative "
                f"for {theta.source}")
        if b.params is not theta.params:
            raise ModuleMismatch("coordinates live over different data")
    lam = strip_zeros(theta.target)
    w_elt = PqwpElement(theta.params, theta.d, dict(coords))
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
    """The block map as an operator on the whole tensor power, through psi:
    the source slice of v is v_mu+ * a with a = sum of H_w c_w over its
    terms v_{mu+ . w} * c_w, and its image is v_lam+ * core * a.  Every
    other slice is killed."""
    if v.params is not theta.params or v.d != theta.d:
        raise ModuleMismatch("vector and block map live over different data")
    if len(theta.source) != v.n or len(theta.target) != v.n:
        raise ModuleMismatch(
            f"block map from {theta.source} to {theta.target} does not act "
            f"on the tensor power of rank {v.n}")
    rights = {}
    for idx, c in v.terms.items():
        if weight_of(idx, v.n) == theta.source:
            rights[sort_index(idx)[1]] = c
    if not rights:
        return TensorVector.zero(v.params, v.n, v.d)
    a = from_right_coefficients(theta.params, theta.d, rights)
    return act_pqwp(plus_vector(theta.params, theta.target),
                    pqwp_mul(theta.core, a))


def commutant_check(theta: ThetaMap, samples, gens=None) -> bool:
    """Whether the block map commutes with the generator action on every
    sample vector."""
    gens = range(theta.d - 1) if gens is None else gens
    for v in samples:
        for k in gens:
            if theta_on_tensor(theta, act_H(v, k)) != act_H(
                    theta_on_tensor(theta, v), k):
                return False
    return True


# degree-bounded invariant coefficients ------------------------------------------


def invariant_basis(params, d, delta, degree) -> list:
    """Monomial orbit sums under the Young subgroup of delta, with
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
                orbit = set()
                for w in group:
                    pe = [0] * d
                    pf = [0] * d
                    for i in range(d):
                        pe[w[i]] = exps[i]
                        pf[w[i]] = fkey[i]
                    orbit.add((tuple(pe), tuple(pf)))
                seen.update(orbit)
                total = zero_poly(params, d)
                for oe, of in sorted(orbit):
                    total = total + monomial(params, d, of, oe)
                out.append(total)
    return out


def theta_family_rank(params, lam, mu, degree) -> dict:
    """Linear independence of the block maps with fixed source and target
    weights, over the degree-bounded invariant coefficients: returns the
    number of maps and the rank of their expansion matrix."""
    lam, mu = tuple(lam), tuple(mu)
    d = sum(lam)
    if sum(mu) != d:
        raise ValueError("weights must have equal size")
    rows = []
    count = 0
    for g in double_coset_reps(strip_zeros(lam), strip_zeros(mu)):
        A = matrix_from_triple(lam, g, mu)
        _, delta = coset_shapes(A)
        for P in invariant_basis(params, d, delta, degree):
            theta = ThetaMap(params, A, P)
            vec = {}
            for w, b in theta.core.terms.items():
                for key, c in b.terms.items():
                    vec[(w, key)] = c
            rows.append(vec)
            count += 1
    return {"count": count, "rank": len(echelon_pivots(rows))}
