"""Finite-dimensional algebras given by structure constants, their tensor
powers, and the parameter packs that define a quantum wreath product of
polynomial type, together with the axiom checkers that gate every preset."""

from __future__ import annotations

import json
import time
import weakref
from functools import wraps
from itertools import product as iproduct

from .coeff_ring import Field, scalar_str


class ArityMismatch(ValueError):
    pass


class PresetNotFound(KeyError):
    pass


class InvalidConfig(ValueError):
    pass


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


class SparseSum:
    """A finite linear combination over a basis, stored as ``terms``, a dict
    from basis key to nonzero coefficient.  Addition, negation, subtraction
    and scaling are written here once, and ``bool(x)`` is the zero test, as
    it is for the scalars.

    A subclass provides ``terms`` and two methods: ``_same_space(other)``,
    which raises the subclass's own mismatch error when other lives in a
    different space, and ``_like(terms)``, the trusted constructor of a
    result in the same space, which takes ownership of the dict and only
    drops its zero coefficients.  An operand of another type is left to
    Python (NotImplemented)."""

    __slots__ = ()

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._same_space(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key)
            out[key] = c if v is None else v + c
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()})


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

    def _like(self, terms):
        out = object.__new__(FTensor)
        out.algebra = self.algebra
        out.arity = self.arity
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    @staticmethod
    def zero(algebra, arity) -> "FTensor":
        return FTensor(algebra, arity)

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
        if not isinstance(other, FTensor):
            return self.scale(other)
        return ftensor_mul(self, other)

    def __rmul__(self, other):
        return self.scale(other)

    def place(self, w) -> "FTensor":
        """Move slot i to slot w[i]."""
        if len(w) != self.arity:
            raise ArityMismatch("permutation size differs from arity")
        out = {}
        for key, c in self.terms.items():
            nk = [0] * self.arity
            for i, v in enumerate(key):
                nk[w[i]] = v
            out[tuple(nk)] = c
        return self._like(out)

    def flip(self) -> "FTensor":
        if self.arity != 2:
            raise ArityMismatch("flip needs arity 2")
        return self.place((1, 0))

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

    def __eq__(self, other):
        return (isinstance(other, FTensor) and self.algebra is other.algebra
                and self.arity == other.arity and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        labels = self.algebra.labels
        parts = []
        for key in sorted(self.terms):
            c = self.terms[key]
            body = "⊗".join(labels[i] for i in key)
            cs = scalar_str(c)
            if cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append(f"-{body}")
            else:
                if any(ch in cs for ch in "+-") and not cs.lstrip("-").isdigit():
                    cs = f"({cs})"
                parts.append(f"{cs}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"FTensor({self})"


def ftensor_mul(a: FTensor, b: FTensor) -> FTensor:
    """Componentwise product in F^{tensor r}."""
    a._same_space(b)
    alg = a.algebra
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            c12 = c1 * c2
            for key, sc in alg.slot_product(k1, k2):
                c = c12 if sc is None else c12 * sc
                v = out.get(key)
                out[key] = c if v is None else v + c
    return a._like(out)


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
                d = FTensor.zero(algebra, 2)
            if d.algebra is not algebra or d.arity != 2:
                raise InvalidConfig(f"delta {key} lives in the wrong space")
            packed[key] = d
        self.deltas = packed
        if alpha.algebra is not algebra or alpha.arity != 2:
            raise InvalidConfig("alpha lives in the wrong space")
        self.alpha = alpha
        self.name = name
        self.s_elt = packed[(1, 0)] - packed[(0, 1)]
        self.alpha_bar = alpha.flip() + self.s_elt
        self.r_elt = alpha * self.alpha_bar
        self.stated_r = stated_r
        self.memo = {}
        self.spec = None

    @property
    def field(self):
        return self.algebra.field

    def __repr__(self):
        return f"PqwpParams({self.name})"


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

    def timed(self, rule, thunk):
        """Run thunk() -> (ok, witness, detail) and record it; ok=None
        records a skipped check."""
        t0 = time.perf_counter()
        ok, witness, detail = thunk()
        ms = (time.perf_counter() - t0) * 1000.0
        status = "skip" if ok is None else "pass" if ok else "fail"
        self.add(rule, status, witness, ms, detail)
        return ok

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

def validate_pqwp(params: PqwpParams, degree_bound: int = 3) -> ValidationReport:
    """Check the structural conditions A1-A3 and C1-C3 for one parameter
    pack.  C3 is a bounded certificate: absence of annihilators of
    P = alpha*(x1-x2) + beta up to the given x-degree."""
    rep = ValidationReport(f"pqwp axioms [{params.name}]")

    def a1():
        ok = params.r_elt.is_central()
        return ok, None if ok else f"R = {params.r_elt} not central", None

    def a2():
        for key in DELTA_KEYS:
            d = params.deltas[key]
            if not is_weak_frobenius(d):
                return False, f"delta{key[0]}{key[1]} = {d} not weak Frobenius", None
            if d.flip() != d:
                return False, f"delta{key[0]}{key[1]} = {d} not flip-symmetric", None
        lhs = params.deltas[(0, 0)].embed((0, 1), 3) * params.deltas[(1, 1)].embed((1, 2), 3)
        rhs = params.deltas[(0, 1)].embed((0, 1), 3) * params.deltas[(1, 0)].embed((1, 2), 3)
        ok = lhs == rhs
        return ok, None if ok else f"d00_1*d11_2 = {lhs} but d01_1*d10_2 = {rhs}", None

    def a3():
        from . import tensor_poly as tp
        one = tp.unit_poly(params, 2)
        if one.twisted_demazure(0) != tp.zero_poly(params, 2):
            return False, "rho(1) nonzero", None
        x1 = tp.x_var(params, 2, 0)
        beta = tp.beta_ij(params, 2, 0, 1)
        if x1.twisted_demazure(0) != beta:
            return False, "rho(x1) differs from beta", None
        s12 = tp.s_ij(params, 2, 0, 1)
        lin = x1 - tp.x_var(params, 2, 1)
        if beta - beta.place_permute((1, 0)) != s12 * lin:
            return False, "beta - flip(beta) differs from S*(x1-x2)", None
        for e1 in range(degree_bound + 1):
            for e2 in range(degree_bound + 1):
                m = tp.monomial(params, 2, (params.algebra.unit_index,) * 2, (e1, e2))
                lhs = m.place_permute((1, 0)).twisted_demazure(0)
                if lhs != -(m.twisted_demazure(0)):
                    return False, f"rho(sigma(x^({e1},{e2}))) != -rho(x^({e1},{e2}))", None
        return True, None, None

    def c1():
        derived = params.r_elt
        stated = params.stated_r
        if stated is None:
            return None, None, "no R stated"
        ok = derived == stated
        return ok, None if ok else f"alpha*alpha_bar = {derived} but stated R = {stated}", None

    def c2():
        if not params.alpha.is_central():
            return False, f"alpha = {params.alpha} not central", None
        for key in DELTA_KEYS:
            if not params.deltas[key].is_central():
                return False, f"delta{key[0]}{key[1]} not central", None
        return True, None, None

    def c3():
        from . import tensor_poly as tp
        ok, info = tp.annihilator_certificate(params, degree_bound)
        return ok, None if ok else info, info if ok else None

    rep.timed("A1", a1)
    rep.timed("A2", a2)
    rep.timed("A3", a3)
    rep.timed("C1", c1)
    rep.timed("C2", c2)
    rep.timed("C3", c3)
    return rep


def _pbw_family(params, d, degree):
    from . import tensor_poly as tp
    fam = []
    for fkey in iproduct(range(params.algebra.dim), repeat=d):
        for exps in iproduct(range(degree + 1), repeat=d):
            fam.append(((fkey, exps), tp.monomial(params, d, fkey, exps)))
    return fam


def verify_pbw_conditions(params: PqwpParams, degree: int = 3) -> ValidationReport:
    """Evaluate the nine basis-existence conditions as operator identities,
    P1-P4 on B^{tensor 2} and P5-P9 on B^{tensor 3}, over the spanning
    family f*x^e with exponents up to the given degree."""
    from . import tensor_poly as tp
    rep = ValidationReport(f"pbw conditions [{params.name}]")

    def sig(i):
        return lambda f, i=i: f.place_permute_simple(i)

    def rho(i):
        return lambda f, i=i: f.twisted_demazure(i)

    s1, r1 = sig(0), rho(0)
    S2 = tp.s_ij(params, 2, 0, 1)
    R2 = tp.r_ij(params, 2, 0, 1)
    one2 = tp.unit_poly(params, 2)
    zero2 = tp.zero_poly(params, 2)
    fam2 = _pbw_family(params, 2, degree)

    def p1():
        if s1(one2) != one2:
            return False, "sigma(1) != 1", None
        if r1(one2) != zero2:
            return False, "rho(1) != 0", None
        return True, None, None

    def p2():
        for (ka, a) in fam2:
            sa, ra = s1(a), r1(a)
            for (kb, b) in fam2:
                ab = a * b
                if s1(ab) != sa * s1(b):
                    return False, f"sigma not multiplicative at {ka},{kb}", None
                if r1(ab) != sa * r1(b) + ra * b:
                    return False, f"twisted Leibniz fails at {ka},{kb}", None
        return True, None, None

    def p3():
        if s1(S2) * S2 + r1(S2) + s1(R2) != S2 * S2 + R2:
            return False, "sigma(S)S + rho(S) + sigma(R) != S^2 + R", None
        if r1(R2) + s1(S2) * R2 != S2 * R2:
            return False, "rho(R) + sigma(S)R != SR", None
        return True, None, None

    def p4():
        for (k, f) in fam2:
            sf = s1(f)
            if s1(sf) * S2 + r1(sf) + s1(r1(f)) != S2 * sf:
                return False, f"first quadratic identity fails at {k}", None
            if s1(sf) * R2 + r1(r1(f)) != S2 * r1(f) + R2 * f:
                return False, f"second quadratic identity fails at {k}", None
        return True, None, None

    sg = (sig(0), sig(1))
    rh = (rho(0), rho(1))
    S3 = (tp.s_ij(params, 3, 0, 1), tp.s_ij(params, 3, 1, 2))
    R3 = (tp.r_ij(params, 3, 0, 1), tp.r_ij(params, 3, 1, 2))
    fam3 = _pbw_family(params, 3, degree)
    orders = ((0, 1), (1, 0))

    def p5():
        for (k, f) in fam3:
            for (i, j) in orders:
                if sg[i](sg[j](sg[i](f))) != sg[j](sg[i](sg[j](f))):
                    return False, f"braid identity for sigma fails at {k}", None
                if rh[i](sg[j](sg[i](f))) != sg[j](sg[i](rh[j](f))):
                    return False, f"sigma/rho braid identity fails at {k} (i={i+1},j={j+1})", None
        return True, None, None

    def p6():
        for (k, f) in fam3:
            for (i, j) in orders:
                sjf = sg[j](f)
                lhs = rh[i](sg[j](rh[i](f)))
                rhs = sg[j](rh[i](sjf)) * S3[j] + rh[j](rh[i](sjf)) + sg[j](rh[i](rh[j](f)))
                if lhs != rhs:
                    return False, f"f={k}, i={i+1}, j={j+1}", None
        return True, None, None

    def p7():
        for (k, f) in fam3:
            i, j = 0, 1
            lhs = rh[i](rh[j](rh[i](f))) + sg[i](rh[j](sg[i](f))) * R3[i]
            rhs = rh[j](rh[i](rh[j](f))) + sg[j](rh[i](sg[j](f))) * R3[j]
            if lhs != rhs:
                return False, f"f={k}", None
        return True, None, None

    def p8():
        for (i, j) in orders:
            if tp.of_ftensor(params, 3, params.s_elt.embed((i, i + 1), 3)) != sg[j](sg[i](S3[j])):
                return False, f"S_{i+1} != sigma_{j+1}sigma_{i+1}(S_{j+1})", None
            if tp.of_ftensor(params, 3, params.r_elt.embed((i, i + 1), 3)) != sg[j](sg[i](R3[j])):
                return False, f"R_{i+1} != sigma_{j+1}sigma_{i+1}(R_{j+1})", None
            if rh[j](sg[i](S3[j])) != tp.zero_poly(params, 3):
                return False, f"rho_{j+1}sigma_{i+1}(S_{j+1}) != 0", None
            if rh[j](sg[i](R3[j])) != tp.zero_poly(params, 3):
                return False, f"rho_{j+1}sigma_{i+1}(R_{j+1}) != 0", None
        return True, None, None

    def p9():
        z3 = tp.zero_poly(params, 3)
        for (i, j) in orders:
            if sg[j](rh[i](S3[j])) * S3[j] + rh[j](rh[i](S3[j])) + sg[j](rh[i](R3[j])) != z3:
                return False, f"first cubic identity fails (i={i+1},j={j+1})", None
            if rh[j](rh[i](R3[j])) + sg[j](rh[i](S3[j])) * R3[j] != z3:
                return False, f"second cubic identity fails (i={i+1},j={j+1})", None
        return True, None, None

    rep.timed("P1", p1)
    rep.timed("P2", p2)
    rep.timed("P3", p3)
    rep.timed("P4", p4)
    rep.timed("P5", p5)
    rep.timed("P6", p6)
    rep.timed("P7", p7)
    rep.timed("P8", p8)
    rep.timed("P9", p9)
    return rep


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
    raise InvalidConfig(f"unknown field kind {kind!r}")


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
    raise InvalidConfig(f"unknown algebra kind {kind!r}")


def _tensor_from_spec(entries, alg) -> FTensor:
    label_index = {lab: i for i, lab in enumerate(alg.labels)}
    terms = {}
    for row in entries:
        try:
            key_labels, coeff = row
            key = tuple(label_index[lab] for lab in key_labels)
        except (ValueError, KeyError) as exc:
            raise InvalidConfig(f"bad tensor entry {row!r}: {exc}")
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
                raise InvalidConfig(f"bad delta key {key_str!r}")
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
