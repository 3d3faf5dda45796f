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
"""

from .symcomb import (
    Perm, blocks, check_comp, check_refines, coset_reps, coset_shapes,
    double_coset_reps, identity, increasing_on_blocks, inv_set, inverse,
    left_reps_in_young, length, matrix_from_triple, mul,
    reduced_word, region_L, region_N, simple, to_one_line, young_subgroup,
)
from .base_algebra import SparseSum, pack_cached
from .coeff_ring import SCALARS
from .tensor_poly import (
    TensorPoly, abar_ij, alpha_ij, r_ij, s_ij, unit_poly, zero_poly,
)

import json


class ParamMismatch(ValueError):
    pass


class IdentityFailed(ValueError):
    """A certified identity check found a counterexample; see .witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _check_letter(d, i):
    if not 0 <= i < d - 1:
        raise ValueError(f"generator index {i} out of range for d={d}")


def _is_xfree(p: TensorPoly) -> bool:
    zero = (0,) * p.d
    return all(exps == zero for exps, _ in p.terms)


class PqwpElement(SparseSum):
    """Normal form sum_w b_w H_w, keyed by the permutations w."""

    __slots__ = ("params", "d", "terms")

    def __init__(self, params, d, terms=None):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms",
                           {w: c for w, c in (terms or {}).items() if c})

    def _like(self, terms):
        return PqwpElement(self.params, self.d, terms)

    def __setattr__(self, name, value):
        raise AttributeError("PqwpElement is immutable")

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

    def __eq__(self, other):
        return (isinstance(other, PqwpElement) and self.params is other.params
                and self.d == other.d and self.terms == other.terms)

    def coefficient(self, w: Perm) -> TensorPoly:
        return self.terms.get(w, zero_poly(self.params, self.d))

    def support(self):
        return sorted(self.terms, key=lambda w: (length(w), w))

    # rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        order = sorted(self.terms, key=lambda w: (-length(w), w))
        for w in order:
            c = self.terms[w]
            word = reduced_word(w)
            if not word:
                chunks.append(str(c))
                continue
            hname = "H[" + ",".join(str(i + 1) for i in word) + "]"
            cs = str(c)
            if c == unit_poly(self.params, self.d):
                chunks.append(hname)
            else:
                if " + " in cs or " - " in cs:
                    cs = "(" + cs + ")"
                chunks.append(f"{cs}*{hname}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"PqwpElement({self})"

    def to_json(self) -> str:
        rows = []
        for w in self.support():
            rows.append({
                "word": [i + 1 for i in reduced_word(w)],
                "one_line": to_one_line(w),
                "coeff": json.loads(self.terms[w].to_json()),
            })
        return json.dumps({"d": self.d, "terms": rows})


# rewriting core ------------------------------------------------------------


@pack_cached
def _right_step(params, d, z: Perm, i: int):
    """H_z * H_i in normal form, as a tuple of (perm, coeff) pairs; coeff
    None marks the length-increasing case, where nothing is multiplied."""
    zi = mul(z, simple(d, i))
    if length(zi) > length(z):
        return ((zi, None),)
    s_emb = s_ij(params, d, i, i + 1).place_permute(zi)
    r_emb = r_ij(params, d, i, i + 1).place_permute(zi)
    return ((z, s_emb), (zi, r_emb))


@pack_cached
def _left_step(params, d, i: int, z: Perm):
    """H_i * H_z in normal form, shaped like a _right_step."""
    iz = mul(simple(d, i), z)
    if length(iz) > length(z):
        return ((iz, None),)
    return ((z, s_ij(params, d, i, i + 1)), (iz, r_ij(params, d, i, i + 1)))


def _add_term(acc, w, c):
    cur = acc.get(w)
    acc[w] = c if cur is None else cur + c


def _add_step(acc, c, step):
    """Add c * (the normal form in step) into acc."""
    for y, e in step:
        _add_term(acc, y, c if e is None else c * e)


def _times_letter(params, d, acc: dict, terms: dict, i: int) -> None:
    """Add (sum_z c_z H_z) * H_i into acc, for terms = {z: c_z}; zero
    coefficients in terms are skipped."""
    for z, c in terms.items():
        if not c.is_zero():
            _add_step(acc, c, _right_step(params, d, z, i))


def _times_word(params, d, terms: dict, letters) -> dict:
    """(sum_z c_z H_z) * H_{i_1} ... H_{i_N} for terms = {z: c_z}, one
    letter at a time; the word need not be reduced.  The result may hold
    zero coefficients."""
    for i in letters:
        nxt = {}
        _times_letter(params, d, nxt, terms, i)
        terms = nxt
    return terms


def _push_left(params, d, w: Perm, q: TensorPoly):
    """H_w * q as a dict perm -> left coefficient."""
    if _is_xfree(q):
        return {w: q.place_permute(w)}
    cur = {identity(d): q}
    for i in reversed(reduced_word(w)):
        nxt = {}
        for z, c in cur.items():
            rho = c.twisted_demazure(i)
            if not rho.is_zero():
                _add_term(nxt, z, rho)
            sig = c.place_permute_simple(i)
            if not sig.is_zero():
                _add_step(nxt, sig, _left_step(params, d, i, z))
        cur = {y: c for y, c in nxt.items() if not c.is_zero()}
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
    walked depth first, so at most one partial sum per length is alive."""
    if not isinstance(a, PqwpElement) or not isinstance(b, PqwpElement):
        raise ParamMismatch("pqwp_mul needs two algebra elements")
    a._same_space(b)
    params, d = a.params, a.d
    kids = _weak_order_tree(d, b.terms)

    def partial_sum(u):
        acc = {}
        for v, s in kids[u]:
            _times_letter(params, d, acc, partial_sum(v), s)
        q = b.terms.get(u)
        if q is not None:
            for w, p in a.terms.items():
                for z, c in _push_left(params, d, w, q).items():
                    _add_term(acc, z, p * c)
        return acc

    return PqwpElement(params, d, partial_sum(identity(d)))


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
        c = b.place_permute(inverse(w))
        out[w] = out.get(w, zero_poly(params, d)) + c
        expand = _push_left(params, d, w, c)
        expand.pop(w, None)
        for z, e in expand.items():
            cur = work.get(z, zero_poly(params, d)) - e
            if cur.is_zero():
                work.pop(z, None)
            else:
                work[z] = cur
    return {w: c for w, c in out.items() if not c.is_zero()}


def from_right_coefficients(params, d, rights: dict) -> PqwpElement:
    """Assemble sum H_w c_w from a {perm: coefficient} map."""
    acc = {}
    for w, c in rights.items():
        for z, e in _push_left(params, d, w, c).items():
            _add_term(acc, z, e)
    return PqwpElement(params, d, acc)


# products of alphas over inversion sets -------------------------------------


def _base_factor(params, d, which, a, b) -> TensorPoly:
    if which == "alpha":
        return alpha_ij(params, d, a, b)
    if which == "abar":
        return abar_ij(params, d, a, b)
    raise ValueError(f"unknown family {which!r}")


def alpha_family(params, d, w: Perm, which: str = "alpha") -> TensorPoly:
    """Product of alpha factors over the inversions of w, in sorted pair
    order.

    which = 'alpha' or 'abar' multiplies over Inv(w); 'alpha_star' is the
    same alpha product over Inv(w^{-1}).  With central factors the order
    does not matter; check C2 of ``validate_pqwp`` rejects a non-central
    alpha.
    """
    if which == "alpha_star":
        return _alpha_over_pairs(params, d, inv_set(inverse(w)))
    return _alpha_over_pairs(params, d, inv_set(w), which)


def _alpha_over_pairs(params, d, pairs, which="alpha") -> TensorPoly:
    out = unit_poly(params, d)
    for (i, j) in sorted(pairs):
        out = out * _base_factor(params, d, which, i, j)
    return out


# quasi-idempotents -----------------------------------------------------------


def k_lambda(params, d, lam, flavor: str = "full", nu=None) -> PqwpElement:
    """The K element of a composition, or a one-sided partial version.

    full:  sum over w in the Young subgroup of alpha_{w0 w^{-1}} H_w; this
           is the tilde flavour at nu = (1^d), and nu is ignored.
    upper: sum over shortest representatives of S_nu \\ S_lam of
           H_w alpha_{w0'^{-1} w}  (coefficients straightened to the left).
    tilde: sum over shortest representatives of S_lam / S_nu of
           alpha_{w0'' w^{-1}} H_w.
    """
    lam = check_comp(d, lam)
    if flavor == "full":
        flavor, nu = "tilde", (1,) * d
    if nu is None:
        raise ValueError("partial flavors need the refinement nu")
    nu = tuple(nu)
    check_refines(nu, lam)
    if flavor == "upper":
        reps = left_reps_in_young(nu, lam)
        w0pi = inverse(max(reps, key=length))
        return PqwpElement(params, d, {
            w: alpha_family(params, d, mul(w0pi, w)).place_permute(w)
            for w in reps})
    if flavor == "tilde":
        reps = tuple(w for w in young_subgroup(lam)
                     if increasing_on_blocks(w, nu))
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
        out = out + (_alpha_over_pairs(params, d, region - iw, "alpha")
                     * _alpha_over_pairs(params, d, region & iw, "abar"))
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


def eigenvector_check(params, d, lam, extra_left=()) -> None:
    """K_lam H_i = K_lam abar_i for simple reflections inside the blocks,
    also after multiplying K_lam by each given element on the left."""
    lam = tuple(lam)
    k = k_lambda(params, d, lam)
    tests = [k]
    for f in extra_left:
        tests.append(pqwp_mul(f, k))
    for blk in blocks(lam):
        for i in range(blk.start, blk.stop - 1):
            hi = PqwpElement.h_gen(params, d, i)
            bar = PqwpElement.of_poly(abar_ij(params, d, i, i + 1))
            for t, f in enumerate(tests):
                _require_equal(pqwp_mul(f, hi), pqwp_mul(f, bar),
                               f"eigenvector lam={lam} i={i + 1} elt#{t}")


def decompose_k(params, d, lam, g, mu) -> dict:
    """Certify the two coset factorizations attached to a double coset
    datum (lam, g, mu), plus the eigenvector property of K_lam.

    Returns the computed pieces; raises IdentityFailed on any mismatch.
    """
    lam, mu = tuple(lam), tuple(mu)
    A = matrix_from_triple(lam, g, mu)
    delta_r, delta_c = coset_shapes(A)
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
        nu_g, delta_g = coset_shapes(matrix_from_triple(lam, g, mu))
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
