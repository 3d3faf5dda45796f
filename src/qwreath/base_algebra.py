"""Finite-dimensional algebras given by structure constants, their tensor
powers, and the parameter packs that define a quantum wreath product of
polynomial type, together with the axiom checkers that gate every preset."""

from __future__ import annotations

import json
import time
import weakref
from fractions import Fraction
from functools import wraps
from itertools import product as iproduct

from .coeff_ring import SCALARS, Field, _quoted, _rational, scalar_str, signed_join, term_str


class ArityMismatch(ValueError):
    pass


class PresetNotFound(KeyError):
    pass


class InvalidConfig(ValueError):
    pass


class IdentityFailed(ValueError):
    """A check found a counterexample: the message says where, and
    ``.witness`` may hold it as data.  Every check in the library fails by
    raising it, the report rules here and the certified identities of the
    other modules alike, so ``ValidationReport.timed`` turns any of them
    into a report row: a raised IdentityFailed becomes a fail row whose
    witness is its message."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# algebras --------------------------------------------------------------------

def _power_label(gen, i):
    """The label of gen^i: 1, gen, gen^2, ..."""
    return "1" if i == 0 else gen if i == 1 else f"{gen}^{i}"


class FAlgebra:
    """Unital algebra over a field, multiplication stored as sparse
    structure constants: table[i][j] = ((k, coeff), ...) meaning
    e_i * e_j = sum coeff * e_k.  Associativity and unitality are
    rejected at construction time, not discovered later.  The quotients of
    k[g] built by ``truncated`` and ``cyclic`` are associative by
    construction and skip the dim^3 associativity check."""

    __slots__ = ("field", "labels", "dim", "unit_index", "name", "table",
                 "_slot_products")

    def __init__(self, field, labels, table, unit_index=0, name="F"):
        self._store(field, labels, table, unit_index, name)
        self._check_unital()
        self._check_associative()

    @classmethod
    def _quotient_of_polynomials(cls, field, labels, table, name):
        """The algebra of a table e_i * e_j = e_(i+j) reduced modulo a
        relation in g, associative because k[g] is; only unitality is
        checked."""
        alg = object.__new__(cls)
        alg._store(field, labels, table, 0, name)
        alg._check_unital()
        return alg

    def _store(self, field, labels, table, unit_index, name):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "dim", len(self.labels))
        object.__setattr__(self, "unit_index", unit_index)
        object.__setattr__(self, "name", name)
        rows = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                cell = tuple((k, c) for (k, c) in table[i][j] if c)
                row.append(cell)
            rows.append(tuple(row))
        object.__setattr__(self, "table", tuple(rows))
        object.__setattr__(self, "_slot_products", {})

    def __setattr__(self, *a):
        raise AttributeError("FAlgebra is immutable")

    def slot_product(self, k1, k2):
        """e_{k1} * e_{k2} in F^{tensor r} for basis index tuples k1, k2, as
        ((key, coeff), ...); computed once per key pair.  A coefficient equal
        to 1 is stored as None, so that product loops skip the scalar
        multiplication without comparing scalars to one."""
        hit = self._slot_products.get((k1, k2))
        if hit is None:
            one = self.field.one()
            partial = {(): one}
            for a, b in zip(k1, k2):
                nxt = {}
                for pk, pc in partial.items():
                    for (bidx, sc) in self.table[a][b]:
                        key = pk + (bidx,)
                        v = nxt.get(key)
                        nxt[key] = pc * sc if v is None else v + pc * sc
                partial = nxt
            hit = tuple((k, None if c == one else c)
                        for k, c in partial.items() if c)
            self._slot_products[(k1, k2)] = hit
        return hit

    def _basis_vectors(self):
        return [FTensor.basis(self, (i,)) for i in range(self.dim)]

    def _check_unital(self):
        u = self.unit_index
        if not 0 <= u < self.dim:
            raise ValueError("unit index out of range")
        e = self._basis_vectors()
        for i, ei in enumerate(e):
            if e[u] * ei != ei:
                raise ValueError(f"unit fails on the left of basis {i}")
            if ei * e[u] != ei:
                raise ValueError(f"unit fails on the right of basis {i}")

    def _check_associative(self):
        e = self._basis_vectors()
        for i, ei in enumerate(e):
            for j, ej in enumerate(e):
                ij = ei * ej
                for k, ek in enumerate(e):
                    if ij * ek != ei * (ej * ek):
                        raise ValueError(f"structure constants not associative at ({i},{j},{k})")

    @staticmethod
    def ground(field) -> "FAlgebra":
        one = field.one()
        table = ((((0, one),),),)
        return FAlgebra(field, ("1",), table, 0, name="k")

    @staticmethod
    def truncated(field, gen="c", power=2) -> "FAlgebra":
        """k[g]/(g^power)."""
        if power < 2:
            raise ValueError("power must be at least 2")
        one = field.one()
        labels = tuple(_power_label(gen, i) for i in range(power))
        table = [[(((i + j, one),) if i + j < power else ()) for j in range(power)]
                 for i in range(power)]
        return FAlgebra._quotient_of_polynomials(field, labels, table, f"{gen}-trunc{power}")

    @staticmethod
    def cyclic(field, gen="t", order=2) -> "FAlgebra":
        """k[g]/(g^order - 1)."""
        if order < 1:
            raise ValueError("order must be positive")
        one = field.one()
        labels = tuple(_power_label(gen, i) for i in range(order))
        table = [[(((i + j) % order, one),) for j in range(order)]
                 for i in range(order)]
        return FAlgebra._quotient_of_polynomials(field, labels, table, f"{gen}-cyclic{order}")

    def __repr__(self):
        return f"FAlgebra({self.name}, dim={self.dim})"


# marks a key that a lookup living for one call has not met yet
_UNSEEN = object()


def _add_terms(terms, other, sums):
    """Add the coefficients of the dict other into the dict terms, which the
    caller owns, and return it.  Where both hold a coefficient at one key,
    a and c, the sum a + c is computed and tested for zero once per pair of
    coefficient objects, through the lookup sums keyed by ``(id(a), id(c))``,
    which the caller keeps for as long as every a and c it has met stays
    alive; a sum that cancels drops its key."""
    for key, c in other.items():
        a = terms.get(key)
        if a is None:
            terms[key] = c
            continue
        pair = (id(a), id(c))
        total = sums.get(pair, _UNSEEN)
        if total is _UNSEEN:
            total = sums[pair] = a + c or None
        if total is None:
            del terms[key]
        else:
            terms[key] = total
    return terms


def add_batch(lefts, rights) -> list:
    """x + y for each pair of sparse sums x, y of two batches of equal
    length, in order (ValueError otherwise).  The sum of two coefficients
    is computed once per pair of coefficient objects in the whole batch, so
    elements that hold shared coefficient objects, as the images of
    ``tensor_relations_check``'s pure vectors do, share their sums; the
    lookup lives only for the call, while the batches keep every coefficient
    alive.  A sum that cancels drops its key when it is formed, so the
    results need no second zero scan.  All sums must be of one type and
    live in one space (TypeError, or the type's own mismatch error); empty
    batches give []."""
    lefts, rights = tuple(lefts), tuple(rights)
    if len(lefts) != len(rights):
        raise ValueError(f"batches of {len(lefts)} and {len(rights)} sums")
    if not lefts:
        return []
    first = lefts[0]
    for x in lefts + rights:
        if type(x) is not type(first):
            raise TypeError(f"cannot add {type(x).__name__} and {type(first).__name__}")
        first._same_space(x)
    sums = {}
    return [x._kept(_add_terms(dict(x.terms), y.terms, sums))
            for x, y in zip(lefts, rights)]


class SparseSum:
    """A finite linear combination over a basis, stored as ``terms``, a dict
    from basis key to nonzero coefficient.  Addition, negation, subtraction,
    scaling, ``==`` and ``repr`` are written here once, and ``bool(x)`` is
    the zero test, as it is for the scalars.  ``x + y`` adds the
    coefficients as ``add_batch`` does on a batch of one.

    Every constructor drops zero coefficients, so two sums over the same
    space are equal exactly when their term dicts are: the same keys, and
    coefficients equal by their own ``==``.  Sums over different spaces are
    unequal.

    A subclass provides ``terms`` and two methods: ``_same_space(other)``,
    which raises the subclass's own mismatch error, a ValueError, when
    other lives in a different space, and ``_kept(terms)``, the trusted
    constructor of a result in the same space, which takes ownership of a
    dict whose coefficients are all nonzero.  ``_like(terms)`` drops zero
    coefficients first.  An operand of another type is left to Python
    (NotImplemented).

    A subclass prints a coefficient beside a basis element by one rule,
    ``coeff_ring.term_str`` (one is left out, a lone leading minus moves to
    the front, any other sign or a slash outside brackets is bracketed), and
    joins the terms with ``signed_join``, which writes " - " before "-"."""

    __slots__ = ()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        try:
            self._same_space(other)
        except ValueError:
            return False
        return self.terms == other.terms

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._same_space(other)
        return self._kept(_add_terms(dict(self.terms), other.terms, {}))

    def __neg__(self):
        # negation keeps every coefficient nonzero
        return self._kept({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()})

    def _like(self, terms):
        """The result in the same space with the nonzero terms of the dict
        terms, which it takes ownership of."""
        if not all(terms.values()):
            terms = {k: c for k, c in terms.items() if c}
        return self._kept(terms)


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


class FTensor(SparseSum):
    """Element of F^{tensor r}, sparse over tuples of basis indices."""

    __slots__ = ("algebra", "arity", "terms")

    def __init__(self, algebra, arity, terms=None):
        self.algebra = algebra
        self.arity = arity
        clean = {}
        if terms:
            for key, c in terms.items():
                if len(key) != arity:
                    raise ArityMismatch(f"key {key} has arity {len(key)}, expected {arity}")
                if c:
                    clean[tuple(key)] = c
        self.terms = clean

    def _kept(self, terms):
        out = object.__new__(FTensor)
        out.algebra = self.algebra
        out.arity = self.arity
        out.terms = terms
        return out

    @staticmethod
    def unit(algebra, arity) -> "FTensor":
        key = (algebra.unit_index,) * arity
        return FTensor(algebra, arity, {key: algebra.field.one()})

    @staticmethod
    def basis(algebra, key) -> "FTensor":
        return FTensor(algebra, len(key), {tuple(key): algebra.field.one()})

    def _same_space(self, other):
        if self.algebra is not other.algebra or self.arity != other.arity:
            raise ArityMismatch("operands live in different tensor powers")

    def __mul__(self, other):
        """Componentwise product in F^{tensor r}, or self scaled by a
        scalar."""
        if not isinstance(other, FTensor):
            return self.scale(other) if isinstance(other, SCALARS) else NotImplemented
        self._same_space(other)
        slot_product = self.algebra.slot_product
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c12 = c1 * c2
                for key, sc in slot_product(k1, k2):
                    c = c12 if sc is None else c12 * sc
                    v = out.get(key)
                    out[key] = c if v is None else v + c
        return self._like(out)

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, SCALARS) else NotImplemented

    def flip(self) -> "FTensor":
        if self.arity != 2:
            raise ArityMismatch("flip needs arity 2")
        return self.embed((1, 0), 2)

    def embed(self, positions, d) -> "FTensor":
        """Include into F^{tensor d}, legs landing at the given slots
        (in leg order, slots need not be increasing), units elsewhere."""
        if len(positions) != self.arity:
            raise ArityMismatch("position count differs from arity")
        u = self.algebra.unit_index
        out = {}
        for key, c in self.terms.items():
            nk = [u] * d
            for p, v in zip(positions, key):
                nk[p] = v
            out[tuple(nk)] = c
        return FTensor(self.algebra, d, out)

    def is_central(self) -> bool:
        for key in iproduct(range(self.algebra.dim), repeat=self.arity):
            t = FTensor.basis(self.algebra, key)
            if self * t != t * self:
                return False
        return True

    def __str__(self):
        labels = self.algebra.labels
        parts = []
        for key in sorted(self.terms):
            body = "⊗".join(labels[i] for i in key)
            parts.append(term_str(scalar_str(self.terms[key]), body))
        return signed_join(parts)


def is_weak_frobenius(delta: FTensor) -> bool:
    """(a⊗b)Δ = Δ(b⊗a) for all a, b."""
    if delta.arity != 2:
        raise ArityMismatch("weak Frobenius test needs arity 2")
    alg = delta.algebra
    for a in range(alg.dim):
        for b in range(alg.dim):
            left = FTensor.basis(alg, (a, b)) * delta
            right = delta * FTensor.basis(alg, (b, a))
            if left != right:
                return False
    return True


def two_frobs_commute_check(d1: FTensor, d2: FTensor) -> bool:
    """All six mixed products of the two elements placed at slot pairs
    (1,2), (1,3), (2,3) of F^{tensor 3} agree."""
    a12, a13, a23 = (d1.embed(p, 3) for p in ((0, 1), (0, 2), (1, 2)))
    b12, b13, b23 = (d2.embed(p, 3) for p in ((0, 1), (0, 2), (1, 2)))
    chain = [a12 * b13, b23 * a12, a13 * b23, b12 * a13, a23 * b12, b13 * a23]
    first = chain[0]
    return all(x == first for x in chain[1:])


# parameter packs ---------------------------------------------------------------

DELTA_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


class PqwpParams:
    """Everything that pins down one quantum wreath product of polynomial
    type: the finite-dimensional algebra F, the variant (polynomial or
    Laurent in the x's), the four components of beta, and alpha.

    Derived data: s_elt = Δ10 - Δ01, alpha_bar = flip(alpha) + s_elt,
    r_elt = alpha * alpha_bar.  A preset may also carry the R it intends
    (stated_r); the C1 check compares the two.

    The pack owns ``memo``, the cache of everything computed from it (one
    dict per ``pack_cached`` function), so the cache dies with the pack and
    ``memo.clear()`` empties it.

    ``spec`` is the preset-file data a pack loaded by ``_pack_from_spec``
    was built from, which ``rebase_field`` reloads over another field; a
    pack built directly has None."""

    __slots__ = ("algebra", "variant", "deltas", "alpha", "name",
                 "s_elt", "alpha_bar", "r_elt", "stated_r", "memo", "spec",
                 "__weakref__")

    POLYNOMIAL = "polynomial"
    LAURENT = "laurent"

    def __init__(self, algebra, variant, deltas, alpha, name="custom", stated_r=None):
        if variant not in (self.POLYNOMIAL, self.LAURENT):
            raise InvalidConfig(f"unknown variant {variant!r}")
        self.algebra = algebra
        self.variant = variant
        packed = {}
        for key in DELTA_KEYS:
            d = deltas.get(key)
            if d is None:
                d = FTensor(algebra, 2)
            if d.algebra is not algebra or d.arity != 2:
                raise InvalidConfig(f"delta {key} lives in the wrong space")
            packed[key] = d
        self.deltas = packed
        if alpha.algebra is not algebra or alpha.arity != 2:
            raise InvalidConfig("alpha lives in the wrong space")
        self.alpha = alpha
        self.name = name
        self.s_elt = _ints_when_integral(packed[(1, 0)] - packed[(0, 1)])
        self.alpha_bar = _ints_when_integral(alpha.flip() + self.s_elt)
        self.r_elt = _ints_when_integral(alpha * self.alpha_bar)
        self.stated_r = stated_r
        self.memo = {}
        self.spec = None

    @property
    def field(self):
        return self.algebra.field

    def __repr__(self):
        return f"PqwpParams({self.name})"


def _ints_when_integral(t: FTensor) -> FTensor:
    """t with each integral Fraction coefficient as an int, as the rational
    field builds its scalars; Fraction arithmetic keeps an integral result
    a Fraction."""
    return t._kept({k: _rational(c) if type(c) is Fraction else c
                    for k, c in t.terms.items()})


def pack_cached(fn):
    """Memoize fn(params, *args) in params.memo, under fn's own dict."""
    @wraps(fn)
    def cached(params, *args):
        try:
            return params.memo[cached][args]
        except KeyError:
            out = params.memo.setdefault(cached, {})[args] = fn(params, *args)
            return out
    return cached


# validation reports ------------------------------------------------------------

class ValidationReport:
    """Ordered list of named checks with pass/fail status and timings."""

    def __init__(self, title=""):
        self.title = title
        self.entries = []

    def add(self, rule, status, witness=None, millis=0.0, detail=None):
        self.entries.append({"rule": rule, "status": status, "witness": witness,
                             "millis": round(millis, 3), "detail": detail})

    def timed(self, rule, check):
        """Run check() and record its row with the time it took: a pass row
        whose detail is what check() returned, or, when it raised
        IdentityFailed, a fail row whose witness is the message.  Any other
        exception propagates and records no row."""
        t0 = time.perf_counter()
        try:
            status, witness, detail = "pass", None, check()
        except IdentityFailed as exc:
            status, witness, detail = "fail", str(exc), None
        self.add(rule, status, witness, (time.perf_counter() - t0) * 1000.0, detail)

    @property
    def passed(self) -> bool:
        return all(e["status"] != "fail" for e in self.entries)

    def failures(self):
        return [e for e in self.entries if e["status"] == "fail"]

    def to_json(self) -> str:
        payload = {"title": self.title, "passed": self.passed, "results": []}
        for e in self.entries:
            row = {"rule": e["rule"], "status": e["status"], "millis": e["millis"]}
            if e["witness"] is not None:
                row["witness"] = e["witness"]
            if e["detail"] is not None:
                row["detail"] = e["detail"]
            payload["results"].append(row)
        return json.dumps(payload, indent=2)

    def __str__(self):
        lines = [self.title] if self.title else []
        for e in self.entries:
            line = f"  {e['rule']:<4} {e['status']:<4} ({e['millis']:.1f} ms)"
            if e["detail"]:
                line += f"  {e['detail']}"
            if e["witness"]:
                line += f"  witness: {e['witness']}"
            lines.append(line)
        return "\n".join(lines)


# axiom checks -------------------------------------------------------------------

class _Images:
    """sigma_i and rho_i, for i < d - 1, of TensorPolys in B^{tensor d}, each
    computed once per kept value.

    ``keep(f)`` returns the one object kept for f's value; the table holds
    it, so its ``id`` names it for the table's life.  ``s(i, f)`` and
    ``r(i, f)`` of a kept f are stored under that id, by
    ``place_permute_simple`` and ``twisted_demazure``, and are kept in turn,
    so a chain such as r(i, s(j, r(i, f))) is computed once however many
    members reach it.  The image of a value never kept is computed afresh
    and not stored."""

    __slots__ = ("count", "kept", "sigma", "rho")

    def __init__(self, d):
        self.count = d - 1
        # the value of a kept object -> the object; equal sums of one space
        # have equal term sets, since the scalars keep == and hash consistent
        self.kept = {}
        self.sigma = {}  # id of a kept object -> [sigma_0 of it, sigma_1, ..]
        self.rho = {}    # id of a kept object -> [rho_0 of it, rho_1, ..]

    def keep(self, f):
        value = frozenset(f.terms.items())
        g = self.kept.get(value)
        if g is None:
            g = self.kept[value] = f
            self.sigma[id(f)] = [None] * self.count
            self.rho[id(f)] = [None] * self.count
        return g

    def s(self, i, f):
        images = self.sigma.get(id(f))
        if images is None:
            return f.place_permute_simple(i)
        g = images[i]
        if g is None:
            g = images[i] = self.keep(f.place_permute_simple(i))
        return g

    def r(self, i, f):
        images = self.rho.get(id(f))
        if images is None:
            return f.twisted_demazure(i)
        g = images[i]
        if g is None:
            g = images[i] = self.keep(f.twisted_demazure(i))
        return g


def validate_pqwp(params: PqwpParams, degree_bound: int = 3) -> ValidationReport:
    """Check the structural conditions A1-A3 and C1-C3 for one parameter
    pack.  C1 compares alpha*alpha_bar with the R the pack states; a pack
    that states none gets a skip row for C1.  C3 is a bounded certificate:
    absence of annihilators of P = alpha*(x1-x2) + beta up to the given
    x-degree.  A negative degree_bound is a ValueError."""
    from . import tensor_poly as tp
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be non-negative, got degree_bound={degree_bound}")
    rep = ValidationReport(f"pqwp axioms [{params.name}]")

    def a1():
        if not params.r_elt.is_central():
            raise IdentityFailed(f"R = {params.r_elt} not central")

    def a2():
        for key in DELTA_KEYS:
            d = params.deltas[key]
            if not is_weak_frobenius(d):
                raise IdentityFailed(f"delta{key[0]}{key[1]} = {d} not weak Frobenius")
            if d.flip() != d:
                raise IdentityFailed(f"delta{key[0]}{key[1]} = {d} not flip-symmetric")
        lhs = params.deltas[(0, 0)].embed((0, 1), 3) * params.deltas[(1, 1)].embed((1, 2), 3)
        rhs = params.deltas[(0, 1)].embed((0, 1), 3) * params.deltas[(1, 0)].embed((1, 2), 3)
        if lhs != rhs:
            raise IdentityFailed(f"d00_1*d11_2 = {lhs} but d01_1*d10_2 = {rhs}")

    def a3():
        im = _Images(2)
        s, r = im.s, im.r
        if r(0, tp.unit_poly(params, 2)) != tp.zero_poly(params, 2):
            raise IdentityFailed("rho(1) nonzero")
        x1 = tp.x_var(params, 2, 0)
        beta = tp.beta_ij(params, 2, 0, 1)
        if r(0, x1) != beta:
            raise IdentityFailed("rho(x1) differs from beta")
        s12 = tp.s_ij(params, 2, 0, 1)
        lin = x1 - tp.x_var(params, 2, 1)
        if beta - s(0, beta) != s12 * lin:
            raise IdentityFailed("beta - flip(beta) differs from S*(x1-x2)")
        # rho of each monomial once: sigma of a monomial is again one of them
        units = (params.algebra.unit_index,) * 2
        monos = [(e, im.keep(tp.monomial(params, 2, units, e)))
                 for e in iproduct(range(degree_bound + 1), repeat=2)]
        for (e1, e2), m in monos:
            if r(0, s(0, m)) != -r(0, m):
                raise IdentityFailed(f"rho(sigma(x^({e1},{e2}))) != -rho(x^({e1},{e2}))")

    def c1():
        if params.r_elt != params.stated_r:
            raise IdentityFailed(
                f"alpha*alpha_bar = {params.r_elt} but stated R = {params.stated_r}")

    def c2():
        if not params.alpha.is_central():
            raise IdentityFailed(f"alpha = {params.alpha} not central")
        for key in DELTA_KEYS:
            if not params.deltas[key].is_central():
                raise IdentityFailed(f"delta{key[0]}{key[1]} not central")

    rep.timed("A1", a1)
    rep.timed("A2", a2)
    rep.timed("A3", a3)
    if params.stated_r is None:
        rep.add("C1", "skip", detail="no R stated")
    else:
        rep.timed("C1", c1)
    rep.timed("C2", c2)
    rep.timed("C3", lambda: tp.annihilator_certificate(params, degree_bound))
    return rep


def verify_pbw_conditions(params: PqwpParams, degree: int = 3) -> ValidationReport:
    """Evaluate the nine basis-existence conditions as operator identities,
    P1-P4 on B^{tensor 2} and P5-P9 on B^{tensor 3}, over the spanning
    family f*x^e with exponents up to the given degree.  A negative degree
    is a ValueError.

    Every pair of P2 and every member of P4-P7 is checked.  Each tensor
    power has one ``_Images`` table, freed when its rules end: P1-P4 keep
    the family members, S, R and P2's distinct products a*b, and P5-P9 the
    members, S_i and R_i; the images of kept values are kept too.  So each
    sigma_i and rho_i of a value the rules reach from a member, S or R is
    computed once per report, and P7 reads the images of images that P6
    computed."""
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got degree={degree}")
    rep = ValidationReport(f"pbw conditions [{params.name}]")
    _pbw_on_two_slots(params, degree, rep)
    _pbw_on_three_slots(params, degree, rep)
    return rep


def _pbw_on_two_slots(params, degree, rep):
    from . import tensor_poly as tp
    im = _Images(2)
    s, r, keep = im.s, im.r, im.keep
    S = keep(tp.s_ij(params, 2, 0, 1))
    R = keep(tp.r_ij(params, 2, 0, 1))
    fam = [(k, keep(f)) for k, f in tp.monomial_box(params, 2, degree)]

    def p1():
        one = tp.unit_poly(params, 2)
        if s(0, one) != one:
            raise IdentityFailed("sigma(1) != 1")
        if r(0, one) != tp.zero_poly(params, 2):
            raise IdentityFailed("rho(1) != 0")

    def p2():
        rows = [(k, a, s(0, a), r(0, a)) for k, a in fam]
        for (ka, a, sa, ra) in rows:
            for (kb, b, sb, rb) in rows:
                ab = keep(a * b)
                if s(0, ab) != sa * sb:
                    raise IdentityFailed(f"sigma not multiplicative at {ka},{kb}")
                if r(0, ab) != sa * rb + ra * b:
                    raise IdentityFailed(f"twisted Leibniz fails at {ka},{kb}")

    def p3():
        if s(0, S) * S + r(0, S) + s(0, R) != S * S + R:
            raise IdentityFailed("sigma(S)S + rho(S) + sigma(R) != S^2 + R")
        if r(0, R) + s(0, S) * R != S * R:
            raise IdentityFailed("rho(R) + sigma(S)R != SR")

    def p4():
        for (k, f) in fam:
            sf, rf = s(0, f), r(0, f)
            if s(0, sf) * S + r(0, sf) + s(0, rf) != S * sf:
                raise IdentityFailed(f"first quadratic identity fails at {k}")
            if s(0, sf) * R + r(0, rf) != S * rf + R * f:
                raise IdentityFailed(f"second quadratic identity fails at {k}")

    rep.timed("P1", p1)
    rep.timed("P2", p2)
    rep.timed("P3", p3)
    rep.timed("P4", p4)


def _pbw_on_three_slots(params, degree, rep):
    from . import tensor_poly as tp
    im = _Images(3)
    s, r, keep = im.s, im.r, im.keep
    S = (keep(tp.s_ij(params, 3, 0, 1)), keep(tp.s_ij(params, 3, 1, 2)))
    R = (keep(tp.r_ij(params, 3, 0, 1)), keep(tp.r_ij(params, 3, 1, 2)))
    fam = [(k, keep(f)) for k, f in tp.monomial_box(params, 3, degree)]
    orders = ((0, 1), (1, 0))

    def p5():
        for (k, f) in fam:
            for (i, j) in orders:
                if s(i, s(j, s(i, f))) != s(j, s(i, s(j, f))):
                    raise IdentityFailed(f"braid identity for sigma fails at {k}")
                if r(i, s(j, s(i, f))) != s(j, s(i, r(j, f))):
                    raise IdentityFailed(f"sigma/rho braid identity fails at {k} (i={i+1},j={j+1})")

    def p6():
        for (k, f) in fam:
            for (i, j) in orders:
                risjf = r(i, s(j, f))
                lhs = r(i, s(j, r(i, f)))
                rhs = s(j, risjf) * S[j] + r(j, risjf) + s(j, r(i, r(j, f)))
                if lhs != rhs:
                    raise IdentityFailed(f"f={k}, i={i+1}, j={j+1}")

    def p7():
        for (k, f) in fam:
            lhs = r(0, r(1, r(0, f))) + s(0, r(1, s(0, f))) * R[0]
            rhs = r(1, r(0, r(1, f))) + s(1, r(0, s(1, f))) * R[1]
            if lhs != rhs:
                raise IdentityFailed(f"f={k}")

    def p8():
        zero = tp.zero_poly(params, 3)
        for (i, j) in orders:
            if S[i] != s(j, s(i, S[j])):
                raise IdentityFailed(f"S_{i+1} != sigma_{j+1}sigma_{i+1}(S_{j+1})")
            if R[i] != s(j, s(i, R[j])):
                raise IdentityFailed(f"R_{i+1} != sigma_{j+1}sigma_{i+1}(R_{j+1})")
            if r(j, s(i, S[j])) != zero:
                raise IdentityFailed(f"rho_{j+1}sigma_{i+1}(S_{j+1}) != 0")
            if r(j, s(i, R[j])) != zero:
                raise IdentityFailed(f"rho_{j+1}sigma_{i+1}(R_{j+1}) != 0")

    def p9():
        zero = tp.zero_poly(params, 3)
        for (i, j) in orders:
            if s(j, r(i, S[j])) * S[j] + r(j, r(i, S[j])) + s(j, r(i, R[j])) != zero:
                raise IdentityFailed(f"first cubic identity fails (i={i+1},j={j+1})")
            if r(j, r(i, R[j])) + s(j, r(i, S[j])) * R[j] != zero:
                raise IdentityFailed(f"second cubic identity fails (i={i+1},j={j+1})")

    rep.timed("P5", p5)
    rep.timed("P6", p6)
    rep.timed("P7", p7)
    rep.timed("P8", p8)
    rep.timed("P9", p9)


# presets -------------------------------------------------------------------------
# The shipped presets are preset-file data (see load_preset_file), built by the
# same loader as a file.

def _at_unit(coeff):
    """Entry list of coeff * 1⊗1."""
    return ((("1", "1"), coeff),)


_ONE = _at_unit("1")
_DUAL_NUMBERS = {"kind": "truncated", "gen": "c", "power": 2}
_DUAL_PAIR = ((("c", "1"), "1"), (("1", "c"), "1"))  # c⊗1 + 1⊗c


def _pro_p_spec(m):
    """Vignéras' pro-p Iwahori Hecke algebra, F = k[t]/(t^n - 1) with n = m - 1:
    for e = (1/n) sum_j t^j ⊗ t^(n-j), alpha = (1 + q^-1) e - 1⊗1 and
    delta10 = (q - q^-1) e."""
    if m < 3:
        raise InvalidConfig("pro_p needs m >= 3")
    n = m - 1
    keys = [(_power_label("t", j % n), _power_label("t", -j % n)) for j in range(1, n + 1)]
    return {"name": f"pro_p({m})" if m != 3 else "pro_p", "variant": "laurent",
            "field": {"kind": "ratfun"}, "algebra": {"kind": "cyclic", "gen": "t", "order": n},
            "delta": {"10": [(key, f"(q-q^-1)/{n}") for key in keys]},
            "alpha": [(key, f"(1+q^-1)/{n}") for key in keys] + [(("1", "1"), "-1")],
            "r": _ONE}


_PRESETS = {spec["name"]: spec for spec in (
    {"name": "wreath", "algebra": {"kind": "cyclic", "gen": "t", "order": 2},
     "alpha": _ONE, "r": _ONE},
    {"name": "graded_affine", "field": {"kind": "ratfun"}, "delta": {"00": _at_unit("h")},
     "alpha": _ONE, "r": _ONE},
    {"name": "degenerate", "delta": {"00": _ONE}, "alpha": _ONE, "r": _ONE},
    {"name": "nil", "delta": {"00": _ONE}, "alpha": (), "r": ()},
    {"name": "opposite_nil", "delta": {"11": _ONE}, "alpha": (), "r": ()},
    {"name": "affine_hecke", "variant": "laurent", "field": {"kind": "ratfun"},
     "delta": {"10": _at_unit("q-1")}, "alpha": _ONE, "r": _at_unit("q")},
    {"name": "zero_hecke", "variant": "laurent", "delta": {"10": _at_unit("-1")},
     "alpha": _ONE, "r": ()},
    {"name": "qt_hecke", "variant": "laurent", "field": {"kind": "ratfun"},
     "delta": {"10": _at_unit("t-q")}, "alpha": _at_unit("q"), "r": _at_unit("q*t")},
    {"name": "zigzag_a1", "variant": "laurent", "algebra": _DUAL_NUMBERS,
     "delta": {"00": _DUAL_PAIR}, "alpha": _ONE, "r": _ONE},
    {"name": "savage_frobenius", "algebra": _DUAL_NUMBERS, "delta": {"00": _DUAL_PAIR},
     "alpha": _ONE, "r": _ONE},
    _pro_p_spec(3),
)}

_PRESET_CACHE = weakref.WeakValueDictionary()


def shipped_presets() -> tuple[str, ...]:
    """The names of the shipped presets, which every verification suite must
    fully pass."""
    return tuple(_PRESETS)


def preset(name: str) -> PqwpParams:
    """The shipped parameter pack of that name: one of ``shipped_presets()``
    (wreath, graded_affine, degenerate, nil, opposite_nil, affine_hecke,
    zero_hecke, qt_hecke, zigzag_a1, savage_frobenius, pro_p), or
    ``pro_p(m)`` for m >= 3, whose F has dimension m - 1 (pro_p is m = 3).
    Any other name raises PresetNotFound, and pro_p(m) with m < 3 raises
    InvalidConfig.

    The Rees-type example is not shipped: its S parameter depends on data
    (eta, tau) that is defined nowhere here; give its coordinates in a
    preset file instead.

    A pack is cached under its canonical name, and only while it is in use:
    preset(n) is preset(n) as long as either result is alive, as are the
    spellings of one pack (pro_p, pro_p(3), pro_p(03)), and a dropped pack
    is freed with its memo."""
    spec = _preset_spec(name)
    key = spec["name"]
    params = _PRESET_CACHE.get(key)
    if params is None:
        params = _pack_from_spec(spec, f"preset {name!r}")
        _PRESET_CACHE[key] = params
    return params


def _preset_spec(name):
    spec = _PRESETS.get(name)
    if spec is not None:
        return spec
    if name.startswith("pro_p(") and name.endswith(")"):
        try:
            m = int(name[6:-1])
        except ValueError:
            raise PresetNotFound(name) from None
        return _pro_p_spec(m)
    raise PresetNotFound(name)


def rebase_field(params: PqwpParams, field: Field) -> PqwpParams:
    """The pack reloaded from the preset-file data it was built from, with
    the field replaced.  Only packs whose structure constants are
    parameter-free rationals embed; a formal parameter, or a denominator
    divisible by the target characteristic, raises InvalidConfig, as does
    a pack that was not loaded from data."""
    if field == params.field:
        return params
    if params.spec is None:
        raise InvalidConfig(f"pack {params.name!r} was not loaded from preset "
                            "data and cannot be rebased")
    field_spec = {"kind": field.kind, "p": field.p}
    return _pack_from_spec({**params.spec, "field": field_spec},
                           f"rebase of {params.name!r} onto {field!r}")


def corrupted_beta_params() -> PqwpParams:
    """Parameter pack that deliberately breaks the mixed-component condition
    on beta (delta00 and delta11 both 1⊗1, off-diagonal components zero);
    the basis checker must reject it at P6/P7."""
    return _pack_from_spec({"name": "corrupted", "delta": {"00": _ONE, "11": _ONE},
                            "alpha": _ONE, "r": _ONE}, "preset 'corrupted'")


# preset files ---------------------------------------------------------------------

def _field_from_spec(spec) -> Field:
    kind = spec.get("kind", "rational")
    if kind == "rational":
        return Field.rationals()
    if kind == "ratfun":
        return Field.rational_functions()
    if kind == "prime":
        try:
            return Field.prime(int(spec["p"]))
        except (KeyError, ValueError) as exc:
            raise InvalidConfig(f"bad prime field spec: {exc}")
    raise InvalidConfig(f"unknown field kind {_quoted(str(kind))}")


def _algebra_from_spec(spec, field) -> FAlgebra:
    kind = spec.get("kind", "ground")
    if kind == "ground":
        return FAlgebra.ground(field)
    if kind == "truncated":
        return FAlgebra.truncated(field, spec.get("gen", "c"), int(spec.get("power", 2)))
    if kind == "cyclic":
        return FAlgebra.cyclic(field, spec.get("gen", "t"), int(spec.get("order", 2)))
    if kind == "table":
        labels = spec["labels"]
        raw = spec["table"]
        table = [[tuple((int(k), field.parse(str(c))) for (k, c) in cell) for cell in row]
                 for row in raw]
        return FAlgebra(field, labels, table, int(spec.get("unit", 0)),
                        name=spec.get("name", "F"))
    raise InvalidConfig(f"unknown algebra kind {_quoted(str(kind))}")


def _tensor_from_spec(entries, alg) -> FTensor:
    label_index = {lab: i for i, lab in enumerate(alg.labels)}
    terms = {}
    for row in entries:
        try:
            key_labels, coeff = row
            key = tuple(label_index[lab] for lab in key_labels)
        except ValueError:
            raise InvalidConfig(f"bad tensor entry {_quoted(str(row))}") from None
        except KeyError as exc:
            raise InvalidConfig(f"unknown label {_quoted(str(exc.args[0]))} "
                                "in a tensor entry") from None
        c = alg.field.parse(str(coeff))
        terms[key] = terms.get(key, alg.field.zero()) + c
    return FTensor(alg, 2, terms)


def _pack_from_spec(data, source: str) -> PqwpParams:
    """The pack that parsed preset-file data describes; source names where
    the data came from in the InvalidConfig message."""
    try:
        field = _field_from_spec(data.get("field", {}))
        alg = _algebra_from_spec(data.get("algebra", {}), field)
        deltas = {}
        for key_str, entries in data.get("delta", {}).items():
            if len(key_str) != 2 or any(ch not in "01" for ch in key_str):
                raise InvalidConfig(f"bad delta key {_quoted(key_str)}")
            deltas[(int(key_str[0]), int(key_str[1]))] = _tensor_from_spec(entries, alg)
        alpha = _tensor_from_spec(data.get("alpha", ()), alg)
        stated_r = None
        if "r" in data:
            stated_r = _tensor_from_spec(data["r"], alg)
        variant = data.get("variant", "polynomial")
        name = data.get("name", "custom")
        params = PqwpParams(alg, variant, deltas, alpha, name=name, stated_r=stated_r)
    except InvalidConfig:
        raise
    except Exception as exc:
        raise InvalidConfig(f"bad {source}: {exc}")
    params.spec = data
    return params


def load_preset_file(path: str) -> PqwpParams:
    """Read a parameter pack from JSON or TOML, in the format the shipped
    presets are written in.  Top-level keys: name, variant ("polynomial",
    the default, or "laurent"), field (kind "rational", the default,
    "ratfun" or "prime" with p), algebra (kind "ground", the default,
    "truncated", "cyclic" or "table"), delta (map from '00'/'01'/'10'/'11'
    to entry lists [[label, label], scalar]), alpha (zero when missing) and
    optional r.  A file {"preset": name} names a shipped preset instead."""
    text_mode_json = str(path).endswith(".json")
    try:
        if text_mode_json:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            try:
                import tomllib
            except ModuleNotFoundError:
                import tomli as tomllib
            with open(path, "rb") as fh:
                data = tomllib.load(fh)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise InvalidConfig(f"cannot parse preset file {path}: {exc}")
    if isinstance(data, dict) and "preset" in data:
        return preset(str(data["preset"]))
    return _pack_from_spec(data, f"preset file {path}")
