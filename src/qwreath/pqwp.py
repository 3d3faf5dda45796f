"""The wreath Hecke-type product algebra in normal form.

Elements are stored as sparse sums sum_w b_w H_w with coefficients b_w on
the left, w running over permutations, and H_w the word generators.  All
products are rewritten back into this normal form by two walks.  The
straightening rule H_i b = sigma_i(b) H_i + rho_i(b) pushes a coefficient
left past H_w (``_push_left``).  Right multiplication by one generator,
with the quadratic rule H_i^2 = S_i H_i + R_i when the length drops,
multiplies a whole element by H_i (``_times_letter``); the braid moves are
implicit in indexing by permutations.  ``pqwp_mul`` shares these right
factors between the terms of its right operand: it sums them in Horner
form over a tree of the weak order, one generator step per tree edge.

Two kinds of work are skipped because their result is known.  A central
coefficient c·1 (c a field scalar) commutes with every H_w, so ``pqwp_mul``
never straightens it: a right-operand term c·1 H_v contributes c·a to X_v.
``_push_left`` moves any x-free coefficient past H_w at once.

Inside ``pqwp_mul`` and ``_times_word`` a central coefficient travels as its
field scalar c, and every other one as a TensorPoly: the operands'
coefficients from entry on, the factors S_i and R_i of the quadratic steps
(``_factor``) and the partial sums.  Scalars multiply and add as scalars,
and a scalar c times a TensorPoly e is e.scale(c).  The accumulator
(``_add_term``) borrows the first coefficient for a key; later TensorPolys
at that key are added in place into one term dict it owns, and a scalar
enters such a dict, under the unit key, only when it meets a TensorPoly at
the same key.  ``_finished`` drops the zeros.  At the exits ``_as_polys``
turns each scalar c back into c·1, so both walks hand out nonzero
TensorPolys only.  No TensorPoly's terms are ever changed, so results may
share term dicts with their operands.
"""

from .symcomb import (
    Perm, blocks, check_comp, coset_reps, coset_shapes, double_coset_reps,
    identity, inv_set, inverse, length, matrix_from_triple, mul,
    reduced_word, region_L, region_N, simple, to_one_line, young_subgroup,
)
from .base_algebra import IdentityFailed, SparseSum, _Frozen, pack_cached
from .coeff_ring import SCALARS, signed_join, term_str
from .tensor_poly import (
    TensorPoly, abar_ij, alpha_ij, r_ij, s_ij, unit_key, unit_poly, zero_poly,
)


class ParamMismatch(ValueError):
    pass


def _check_letter(d, i):
    if not 0 <= i < d - 1:
        raise ValueError(f"generator index {i} out of range for d={d}")


def _is_xfree(p: TensorPoly) -> bool:
    zero = (0,) * p.d
    return all(exps == zero for exps, _ in p.terms)


class PqwpElement(SparseSum, _Frozen):
    """Normal form sum_w b_w H_w, keyed by the permutations w.  The public
    constructor checks keys (permutations of d letters) and coefficients
    (TensorPolys over the same params and d); ``_kept`` trusts its caller."""

    __slots__ = ("params", "d", "terms")

    def __init__(self, params, d, terms=None):
        terms = terms or {}
        for w, c in terms.items():
            if sorted(w) != list(range(d)):
                raise ValueError(f"{w!r} is not a permutation of {d} letters")
            if not (isinstance(c, TensorPoly) and c.params is params and c.d == d):
                raise ParamMismatch(f"coefficient of {to_one_line(w)} lives over "
                                    "different data")
        self._store(params, d, {tuple(w): c for w, c in terms.items() if c})

    def _kept(self, terms):
        return PqwpElement._make(self.params, self.d, terms)

    # constructors --------------------------------------------------------

    @staticmethod
    def zero(params, d) -> "PqwpElement":
        return PqwpElement(params, d, {})

    @staticmethod
    def one(params, d) -> "PqwpElement":
        return PqwpElement(params, d, {identity(d): unit_poly(params, d)})

    @staticmethod
    def of_poly(p: TensorPoly) -> "PqwpElement":
        return PqwpElement(p.params, p.d, {identity(p.d): p})

    @staticmethod
    def h_gen(params, d, i) -> "PqwpElement":
        _check_letter(d, i)
        return PqwpElement(params, d, {simple(d, i): unit_poly(params, d)})

    @staticmethod
    def h_of_perm(params, d, w: Perm) -> "PqwpElement":
        return PqwpElement(params, d, {w: unit_poly(params, d)})

    @staticmethod
    def of_word(params, d, letters) -> "PqwpElement":
        """Product of generators H_{i_1} ... H_{i_N}; the word need not be
        reduced (non-reduced steps expand through the quadratic rule)."""
        letters = tuple(letters)
        for i in letters:
            _check_letter(d, i)
        return PqwpElement(params, d, _times_word(
            params, d, {identity(d): unit_poly(params, d)}, letters))

    # ring structure ------------------------------------------------------

    def _same_space(self, other):
        if self.params is not other.params or self.d != other.d:
            raise ParamMismatch("elements live over different data")

    def poly_left(self, p: TensorPoly) -> "PqwpElement":
        """Multiply by a coefficient on the left: p * (sum b_w H_w)."""
        return self._like({w: p * c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PqwpElement):
            return pqwp_mul(self, other)
        if isinstance(other, TensorPoly):
            return pqwp_mul(self, PqwpElement.of_poly(other))
        if isinstance(other, SCALARS):
            return self.scale(other)  # scalars are central
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, TensorPoly):
            return self.poly_left(other)
        if isinstance(other, SCALARS):
            return self.scale(other)
        return NotImplemented

    def coefficient(self, w: Perm) -> TensorPoly:
        return self.terms.get(w, zero_poly(self.params, self.d))

    def support(self):
        return sorted(self.terms, key=lambda w: (length(w), w))

    # rendering -----------------------------------------------------------

    def __str__(self):
        chunks = []
        for w in sorted(self.terms, key=lambda w: (-length(w), w)):
            c = self.terms[w]
            word = reduced_word(w)
            if not word:
                chunks.append(str(c))
                continue
            hname = "H[" + ",".join(str(i + 1) for i in word) + "]"
            chunks.append(term_str(c.factor_str(), hname))
        return signed_join(chunks)


# rewriting core ------------------------------------------------------------


def _factor(params, e: TensorPoly):
    """How to multiply by e on the right: by the TensorPoly e itself, or,
    for a central e = c·1, by the field scalar c, or None when c is 1."""
    c = e._unit_coeff()
    if c is None:
        return e
    return None if params.field.is_one(c) else c


def _carried(p: TensorPoly):
    """p as the walk carries a coefficient: the field scalar c for a central
    p = c·1, else p itself."""
    c = p._unit_coeff()
    return p if c is None else c


@pack_cached
def _right_step(params, d, z: Perm, i: int):
    """H_z * H_i in normal form, as a tuple of (perm, factor) pairs, each
    factor as ``_factor`` gives it and zero ones left out; the
    length-increasing case is ((z*s_i, None),)."""
    zi = mul(z, simple(d, i))
    if length(zi) > length(z):
        return ((zi, None),)
    s_emb = s_ij(params, d, i, i + 1).place_permute(zi)
    r_emb = r_ij(params, d, i, i + 1).place_permute(zi)
    return tuple((y, _factor(params, e)) for y, e in ((z, s_emb), (zi, r_emb)) if e)


@pack_cached
def _left_step(params, d, i: int, z: Perm):
    """H_i * H_z in normal form, shaped like a _right_step."""
    iz = mul(simple(d, i), z)
    if length(iz) > length(z):
        return ((iz, None),)
    return tuple((y, _factor(params, e)) for y, e in
                 ((z, s_ij(params, d, i, i + 1)), (iz, r_ij(params, d, i, i + 1))) if e)


def _add_term(acc, w, c, unit):
    """Add the coefficient c, a field scalar or a TensorPoly, into the
    coefficient of w in the accumulator acc.

    acc maps a key to a scalar or a TensorPoly it borrows, or to a term
    dict it owns.  Two scalars add as scalars.  When a TensorPoly takes
    part, the key gets an owned dict, a copy of the borrowed TensorPoly's
    terms or {unit: c} for a scalar c, and the newcomer and every later
    coefficient add into it in place, a scalar under the unit key unit.  No
    TensorPoly's terms are changed, and acc may hold zeros until
    ``_finished``."""
    cur = acc.get(w)
    if cur is None:
        acc[w] = c
        return
    poly = type(c) is TensorPoly
    if type(cur) is not dict:
        if type(cur) is TensorPoly:
            cur = dict(cur.terms)
        elif poly:
            cur = {unit: cur}
        else:
            acc[w] = cur + c
            return
        acc[w] = cur
    get = cur.get
    for k, v in (c.terms.items() if poly else ((unit, c),)):
        x = get(k)
        cur[k] = v if x is None else x + v


def _add_step(acc, c, step, unit):
    """Add c * (the normal form in step) into acc, for a coefficient c, a
    field scalar or a TensorPoly, and factors as ``_factor`` gives them.  A
    scalar c stands for the central c·1, so c times a TensorPoly e is
    e.scale(c), and e itself when c is 1."""
    poly = type(c) is TensorPoly
    for y, e in step:
        if e is None:
            e = c
        elif poly or type(e) is not TensorPoly:
            e = c * e
        elif not e.params.field.is_one(c):
            e = e.scale(c)
        _add_term(acc, y, e, unit)


def _finished(params, d, acc) -> dict:
    """The accumulator acc as {key: nonzero coefficient}: scalars stay
    scalars, owned term dicts become TensorPolys."""
    like = zero_poly(params, d)._like
    out = {}
    for w, c in acc.items():
        if type(c) is dict:
            c = like(c)
        if c:
            out[w] = c
    return out


def _as_polys(params, d, terms) -> dict:
    """{key: nonzero coefficient} as {key: TensorPoly}, each scalar c as c·1."""
    unit = unit_key(params, d)
    kept = zero_poly(params, d)._kept
    return {w: c if type(c) is TensorPoly else kept({unit: c})
            for w, c in terms.items()}


def _times_letter(params, d, acc: dict, terms: dict, i: int) -> None:
    """Add (sum_z c_z H_z) * H_i into the accumulator acc, for terms =
    {z: c_z} with nonzero coefficients c_z, field scalars or TensorPolys."""
    unit = unit_key(params, d)
    for z, c in terms.items():
        _add_step(acc, c, _right_step(params, d, z, i), unit)


def _times_word(params, d, terms: dict, letters) -> dict:
    """(sum_z c_z H_z) * H_{i_1} ... H_{i_N} for terms = {z: c_z} with
    nonzero TensorPolys c_z, one letter at a time; the word need not be
    reduced."""
    terms = {z: _carried(c) for z, c in terms.items()}
    for i in letters:
        nxt = {}
        _times_letter(params, d, nxt, terms, i)
        terms = _finished(params, d, nxt)
    return _as_polys(params, d, terms)


def _push_left(params, d, w: Perm, q: TensorPoly):
    """H_w * q as a dict perm -> left coefficient.  An x-free q, a central
    q = c·1 among them, only moves its places: rho_i kills it because every
    term has equal exponents, so H_w * q = sigma_w(q) H_w."""
    if _is_xfree(q):
        return {w: q.place_permute(w)}
    unit = unit_key(params, d)
    cur = {identity(d): q}
    for i in reversed(reduced_word(w)):
        nxt = {}
        for z, c in cur.items():
            rho = c.twisted_demazure(i)
            if rho:
                _add_term(nxt, z, rho, unit)
            sig = c.place_permute_simple(i)
            if sig:
                _add_step(nxt, sig, _left_step(params, d, i, z), unit)
        cur = _finished(params, d, nxt)
    return cur


def _weak_order_tree(d, support) -> dict:
    """The support closed under v -> s*v, with s = reduced_word(v)[0] a
    left descent of v, as a map u -> [(v, s)] from each node to the
    children v = s*u; every node is a key and the root is the identity."""
    kids = {identity(d): []}
    edges = []
    for v in support:
        while v not in kids:
            kids[v] = []
            s = reduced_word(v)[0]
            u = mul(simple(d, s), v)
            edges.append((u, v, s))
            v = u
    for u, v, s in edges:
        kids[u].append((v, s))
    return kids


def pqwp_mul(a: PqwpElement, b: PqwpElement) -> PqwpElement:
    """Product in normal form, in Horner form over the weak order.

    For each term q H_v of b, X_v = a * q is found by pushing q left through
    every term of a; the product is sum_v X_v H_v.  With H_v = H_s H_u for
    the tree parent u = s*v of v (``_weak_order_tree``), the partial sums
    W_u = X_u + sum over children v of W_v H_s, taken from the leaves up,
    end in W_e, the product.  That costs one generator step per tree edge,
    at most |W| - 1, instead of one per letter of every v.  The tree is
    walked depth first, so at most one partial sum per length is alive.

    A central q = c·1 is not pushed: X_v is c·a, added term by term into
    the partial sum.  Central coefficients of a, of b and of the steps go
    through the walk as field scalars (see ``_add_term``); the result holds
    TensorPolys only, and neither operand's coefficients are changed."""
    if not isinstance(a, PqwpElement) or not isinstance(b, PqwpElement):
        raise ParamMismatch("pqwp_mul needs two algebra elements")
    a._same_space(b)
    params, d = a.params, a.d
    kids = _weak_order_tree(d, b.terms)
    left = {w: _carried(p) for w, p in a.terms.items()}
    unit = unit_key(params, d)

    def partial_sum(u):
        acc = {}
        for v, s in kids[u]:
            _times_letter(params, d, acc, partial_sum(v), s)
        q = b.terms.get(u)
        if q is not None:
            c = _factor(params, q)
            for w, p in left.items():
                pushed = (_push_left(params, d, w, q).items()
                          if type(c) is TensorPoly else ((w, c),))
                _add_step(acc, p, pushed, unit)
        return _finished(params, d, acc)

    return a._kept(_as_polys(params, d, partial_sum(identity(d))))


def right_coefficient_form(elt: PqwpElement) -> dict:
    """Rewrite sum b_w H_w as sum H_w c_w; returns {perm: right coeff}.

    Exact for any element: corrections from straightening past the H's are
    strictly length-decreasing, so elimination from the top terminates.
    """
    params, d = elt.params, elt.d
    work = dict(elt.terms)
    out = {}
    while work:
        w = max(work, key=lambda u: (length(u), u))
        b = work.pop(w)
        # the corrections are shorter than w, so each w is popped once
        c = out[w] = b.place_permute(inverse(w))
        expand = _push_left(params, d, w, c)
        expand.pop(w, None)
        for z, e in expand.items():
            cur = work.get(z, zero_poly(params, d)) - e
            if cur:
                work[z] = cur
            else:
                work.pop(z, None)
    return out


# products of alphas over inversion sets -------------------------------------


def alpha_family(params, d, w: Perm) -> TensorPoly:
    """Product of alpha factors over the inversions of w, in sorted pair
    order.  With central factors the order does not matter; check C2 of
    ``validate_pqwp`` rejects a non-central alpha."""
    return _alpha_over_pairs(params, d, inv_set(w))


def _alpha_over_pairs(params, d, pairs, factor=alpha_ij) -> TensorPoly:
    """The product of factor(params, d, i, j) over the pairs, in sorted order."""
    out = unit_poly(params, d)
    for (i, j) in sorted(pairs):
        out = out * factor(params, d, i, j)
    return out


# quasi-idempotents -----------------------------------------------------------


def k_lambda(params, d, lam, flavor: str = "full", nu=None) -> PqwpElement:
    """The K element of a composition, or a one-sided partial version.

    full:  sum over w in the Young subgroup of alpha_{w0 w^{-1}} H_w; this
           is the tilde flavour at nu = (1^d), and nu is ignored.
    upper: sum over w in ``coset_reps(nu, "left", lam)``, the shortest
           representatives of S_nu \\ S_lam, of H_w alpha_{w0'^{-1} w}
           (coefficients straightened to the left).
    tilde: sum over w in ``coset_reps(nu, "right", lam)``, the shortest
           representatives of S_lam / S_nu, of alpha_{w0'' w^{-1}} H_w.
    w0' and w0'' are the longest representatives; a nu that does not
    refine lam raises NotARefinement.
    """
    lam = check_comp(d, lam)
    if flavor == "full":
        flavor, nu = "tilde", (1,) * d
    if nu is None:
        raise ValueError("partial flavors need the refinement nu")
    nu = tuple(nu)
    if flavor == "upper":
        reps = coset_reps(nu, "left", lam)
        w0pi = inverse(max(reps, key=length))
        return PqwpElement(params, d, {
            w: alpha_family(params, d, mul(w0pi, w)).place_permute(w)
            for w in reps})
    if flavor == "tilde":
        reps = coset_reps(nu, "right", lam)
        w0pp = max(reps, key=length)
        return PqwpElement(params, d, {
            w: alpha_family(params, d, mul(w0pp, inverse(w))) for w in reps})
    raise ValueError(f"unknown flavor {flavor!r}")


def _alpha_abar_sum(params, d, region, perms) -> TensorPoly:
    """Sum over the permutations w of the alpha product over the pairs of
    region that w does not invert times the abar product over those it
    inverts."""
    out = zero_poly(params, d)
    for w in perms:
        iw = inv_set(w)
        out = out + (_alpha_over_pairs(params, d, region - iw, alpha_ij)
                     * _alpha_over_pairs(params, d, region & iw, abar_ij))
    return out


def m_lambda(params, d, lam) -> TensorPoly:
    """Symmetric scalar with K_lam^2 = m_lam K_lam: the alpha/abar sum over
    the Young subgroup, inside the same-block region."""
    lam = check_comp(d, lam)
    return _alpha_abar_sum(params, d, region_L(lam), young_subgroup(lam))


def multinomial(params, d, lam) -> TensorPoly:
    """Generalized binomial: the alpha/abar sum over shortest coset
    representatives, inside the cross-block region."""
    lam = check_comp(d, lam)
    return _alpha_abar_sum(params, d, region_N(lam), coset_reps(lam, "right"))


# certified identities --------------------------------------------------------


def _first_difference(a: PqwpElement, b: PqwpElement):
    for w in sorted(set(a.terms) | set(b.terms), key=lambda u: (length(u), u)):
        ca, cb = a.coefficient(w), b.coefficient(w)
        if ca != cb:
            return w, ca, cb
    return None


def _require_equal(a: PqwpElement, b: PqwpElement, label: str):
    diff = _first_difference(a, b)
    if diff is not None:
        w, ca, cb = diff
        raise IdentityFailed(
            f"{label}: coefficient of H_{to_one_line(w)} differs: {ca} vs {cb}",
            witness={"identity": label, "perm": to_one_line(w),
                     "left": str(ca), "right": str(cb)})


def eigenvector_check(params, d, lam) -> None:
    """K_lam H_i = K_lam abar_i for simple reflections inside the blocks."""
    lam = tuple(lam)
    k = k_lambda(params, d, lam)
    for blk in blocks(lam):
        for i in range(blk.start, blk.stop - 1):
            hi = PqwpElement.h_gen(params, d, i)
            bar = PqwpElement.of_poly(abar_ij(params, d, i, i + 1))
            _require_equal(pqwp_mul(k, hi), pqwp_mul(k, bar),
                           f"eigenvector lam={lam} i={i + 1}")


def decompose_k(params, d, lam, g, mu) -> dict:
    """Certify the two coset factorizations attached to a double coset
    datum (lam, g, mu), plus the eigenvector property of K_lam.

    Returns the computed pieces; raises IdentityFailed on any mismatch.
    """
    lam, mu = tuple(lam), tuple(mu)
    A = matrix_from_triple(lam, g, mu)
    delta_r, delta_c = coset_shapes(lam, g, mu)
    k_mu = k_lambda(params, d, mu)
    k_delta = k_lambda(params, d, delta_c)
    k_mu_delta = k_lambda(params, d, mu, "upper", delta_c)
    _require_equal(k_mu, pqwp_mul(k_delta, k_mu_delta),
                   f"K_mu = K_delta K_mu^delta (mu={mu}, delta={delta_c})")
    k_lam = k_lambda(params, d, lam)
    k_nu = k_lambda(params, d, delta_r)
    k_lam_tilde = k_lambda(params, d, lam, "tilde", delta_r)
    _require_equal(k_lam, pqwp_mul(k_lam_tilde, k_nu),
                   f"K_lam = tilde-K_lam^nu K_nu (lam={lam}, nu={delta_r})")
    eigenvector_check(params, d, lam)
    return {"matrix": A, "nu": delta_r, "delta": delta_c,
            "k_lam": k_lam, "k_mu": k_mu}


def mackey_expansion(params, d, lam, mu) -> PqwpElement:
    """Expand the double-coset sum for the full-group K element:
    sum over minimal representatives g of
    K~_lam^{nu(g)} * alpha_A * H_g * K_{delta(g)} * K_mu^{delta(g)},
    where alpha_A is the product of alpha over cross-block pairs shared by
    both sides and not inverted by g inverse.  Certifies equality with
    K_{(d)} and returns it.
    """
    lam, mu = check_comp(d, lam), check_comp(d, mu)
    n_lam = region_N(lam)
    n_mu = region_N(mu)
    total = PqwpElement.zero(params, d)
    for g in double_coset_reps(lam, mu):
        nu_g, delta_g = coset_shapes(lam, g, mu)
        g_n_mu = frozenset((min(g[a], g[b]), max(g[a], g[b]))
                           for (a, b) in n_mu)
        pairs = (n_lam & g_n_mu) - inv_set(inverse(g))
        alpha_a = _alpha_over_pairs(params, d, pairs)
        piece = k_lambda(params, d, lam, "tilde", nu_g)
        piece = pqwp_mul(piece, PqwpElement.of_poly(alpha_a))
        piece = pqwp_mul(piece, PqwpElement.h_of_perm(params, d, g))
        piece = pqwp_mul(piece, k_lambda(params, d, delta_g))
        piece = pqwp_mul(piece, k_lambda(params, d, mu, "upper", delta_g))
        total = total + piece
    _require_equal(k_lambda(params, d, (d,)), total,
                   f"double-coset expansion lam={lam} mu={mu}")
    return total
