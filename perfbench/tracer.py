"""Per-layer tracing from outside the library.

The tracer wraps the public entry points of each ``qwreath`` layer: methods
on the classes, and module functions in every ``qwreath`` module namespace
that holds them (``convolution.pqwp_mul`` as well as ``pqwp.pqwp_mul``).
Spans are aggregated per span name in memory: calls, total time and self
time, the last being a span's time minus the time of the wrapped calls it
made.  Probes on a few spans count the work a call was handed.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

from qwreath import (base_algebra, coeff_ring, convolution, pqwp, symcomb,
                     tensor_module, tensor_poly)

_RATFUN_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__eq__")

# modules whose lru_caches are reported
CACHED_MODULES = (pqwp, tensor_poly, convolution, symcomb)


def _ratfun_probe(counts, a, b=None):
    # ints and Fractions count as one-term denominators
    dens = (a, b) if isinstance(b, coeff_ring.RatFun) else (a,)
    if all(len(x.den) == 1 for x in dens):
        counts["coeff_ring.monomial_den"] += 1


def _tensor_mul_probe(counts, a, b):
    other = len(b.terms) if isinstance(b, tensor_poly.TensorPoly) else 1
    counts["tensor_poly.mul_term_pairs"] += len(a.terms) * other


def _localized_eq_probe(counts, a, b):
    if isinstance(b, tensor_poly.LocalizedElement) and a.dfac.keys() & b.dfac.keys():
        counts["tensor_poly.localized_eq_shared_den"] += 1


def _pqwp_mul_probe(counts, a, b):
    right = len(getattr(b, "terms", ()))
    counts["pqwp.mul_term_pairs"] += len(getattr(a, "terms", ())) * right
    if right > 1:
        counts["pqwp.mul_multiterm"] += 1


# (class, method names, span, probe)
_METHOD_SPANS = (
    (coeff_ring.RatFun, _RATFUN_OPS, "coeff_ring.ratfun", _ratfun_probe),
    (tensor_poly.TensorPoly, ("__mul__",), "tensor_poly.mul", _tensor_mul_probe),
    (tensor_poly.TensorPoly, ("demazure", "twisted_demazure"), "tensor_poly.demazure", None),
    (tensor_poly.TensorPoly, ("place_permute", "place_permute_simple"),
     "tensor_poly.permute", None),
    (tensor_poly.LocalizedElement, ("__eq__",), "tensor_poly.localized_eq",
     _localized_eq_probe),
    (tensor_poly.LocalizedElement, ("__add__",), "tensor_poly.localized_add", None),
    (base_algebra.FTensor, ("__mul__", "__rmul__"), "base_algebra.ftensor_mul", None),
    (convolution.ConvBlock, ("mul",), "convolution.block_mul", None),
    (tensor_module.ThetaMap, ("__init__",), "tensor_module.theta", None),
)

# (module, function names, span, probe)
_FUNCTION_SPANS = (
    (tensor_poly, ("annihilator_certificate",), "tensor_poly.annihilator", None),
    (base_algebra, ("validate_pqwp", "verify_pbw_conditions", "is_weak_frobenius",
                    "two_frobs_commute_check"), "base_algebra.checks", None),
    (pqwp, ("pqwp_mul",), "pqwp.mul", _pqwp_mul_probe),
    (pqwp, ("alpha_family",), "pqwp.alpha_family", None),
    (convolution, ("poly_rep_apply", "zero_test_via_poly_rep", "merge_apply"),
     "convolution.poly_rep", None),
    (tensor_module, ("act_H",), "tensor_module.act_H", None),
    (tensor_module, ("theta_apply", "theta_on_tensor", "theta_family_rank"),
     "tensor_module.theta", None),
    (symcomb, tuple(name for name, obj in vars(symcomb).items()
                    if not name.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == symcomb.__name__),
     "symcomb", None),
)

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "coeff_ring.ratfun_ops": "count",
    "coeff_ring.ratfun_self_s": "s",
    "coeff_ring.monomial_den_frac": "ratio",
    "tensor_poly.mul_calls": "count",
    "tensor_poly.mul_term_pairs": "count",
    "tensor_poly.mul_self_s": "s",
    "tensor_poly.demazure_calls": "count",
    "tensor_poly.demazure_self_s": "s",
    "tensor_poly.permute_calls": "count",
    "tensor_poly.permute_self_s": "s",
    "tensor_poly.localized_eq_calls": "count",
    "tensor_poly.localized_eq_self_s": "s",
    "tensor_poly.localized_eq_shared_den_frac": "ratio",
    "tensor_poly.localized_add_calls": "count",
    "tensor_poly.localized_add_self_s": "s",
    "tensor_poly.annihilator_self_s": "s",
    "base_algebra.ftensor_mul_calls": "count",
    "base_algebra.ftensor_mul_self_s": "s",
    "base_algebra.checks_self_s": "s",
    "pqwp.mul_calls": "count",
    "pqwp.mul_term_pairs": "count",
    "pqwp.mul_self_s": "s",
    "pqwp.mul_multiterm_frac": "ratio",
    "pqwp.alpha_family_calls": "count",
    "pqwp.alpha_family_self_s": "s",
    "convolution.block_mul_calls": "count",
    "convolution.block_mul_self_s": "s",
    "convolution.poly_rep_self_s": "s",
    "tensor_module.act_H_calls": "count",
    "tensor_module.act_H_self_s": "s",
    "tensor_module.theta_self_s": "s",
    "symcomb.self_s": "s",
    **{f"{m.__name__.split('.')[-1]}.{kind}": unit
       for m in CACHED_MODULES
       for kind, unit in (("cache_hit_frac", "ratio"), ("cache_entries", "count"))},
    "trace.overhead_frac": "ratio",
}


def _frac(num, den) -> float:
    return num / den if den else 0.0


def cache_stats(module) -> tuple:
    """(hits, misses, entries) summed over the module's own lru_caches."""
    hits = misses = entries = 0
    for obj in vars(module).values():
        info = getattr(obj, "cache_info", None)
        if info is None or getattr(obj, "__module__", None) != module.__name__:
            continue
        ci = info()
        hits, misses, entries = hits + ci.hits, misses + ci.misses, entries + ci.currsize
    return hits, misses, entries


class Tracer:
    """Install with ``install()``, run the traced code, then ``remove()``."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._inner = [0.0]  # per open span: time of the wrapped calls it made
        self._undo = []

    def _wrap(self, span, fn, probe):
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        counts, inner = self.counts, self._inner

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(counts, *args)
            inner.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                below = inner.pop()
                inner[-1] += dt
                calls[span] += 1
                total_s[span] += dt
                self_s[span] += dt - below
        return traced

    def install(self):
        for cls, names, span, probe in _METHOD_SPANS:
            for name in names:
                orig = cls.__dict__[name]
                setattr(cls, name, self._wrap(span, orig, probe))
                self._undo.append((cls, name, orig))
        wrapped = {}
        for module, names, span, probe in _FUNCTION_SPANS:
            for name in names:
                orig = getattr(module, name)
                wrapped[id(orig)] = (orig, self._wrap(span, orig, probe))
        modules = [m for name, m in sys.modules.items()
                   if name == "qwreath" or name.startswith("qwreath.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._undo.append((module, name, obj))

    def remove(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def spans(self) -> dict:
        return {span: {"calls": self.calls[span], "total_s": self.total_s[span],
                       "self_s": self.self_s[span]}
                for span in sorted(self.calls)}

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_frac, which needs
        an untraced run to compare with."""
        c, s, k = self.calls, self.self_s, self.counts
        out = {
            "coeff_ring.ratfun_ops": c["coeff_ring.ratfun"],
            "coeff_ring.ratfun_self_s": s["coeff_ring.ratfun"],
            "coeff_ring.monomial_den_frac": _frac(k["coeff_ring.monomial_den"],
                                                  c["coeff_ring.ratfun"]),
            "tensor_poly.mul_term_pairs": k["tensor_poly.mul_term_pairs"],
            "tensor_poly.localized_eq_shared_den_frac": _frac(
                k["tensor_poly.localized_eq_shared_den"], c["tensor_poly.localized_eq"]),
            "pqwp.mul_term_pairs": k["pqwp.mul_term_pairs"],
            "pqwp.mul_multiterm_frac": _frac(k["pqwp.mul_multiterm"], c["pqwp.mul"]),
            "symcomb.self_s": s["symcomb"],
        }
        for span in ("tensor_poly.mul", "tensor_poly.demazure", "tensor_poly.permute",
                     "tensor_poly.localized_eq", "tensor_poly.localized_add",
                     "base_algebra.ftensor_mul", "pqwp.mul", "pqwp.alpha_family",
                     "convolution.block_mul", "tensor_module.act_H"):
            out[f"{span}_calls"] = c[span]
            out[f"{span}_self_s"] = s[span]
        for span in ("tensor_poly.annihilator", "base_algebra.checks",
                     "convolution.poly_rep", "tensor_module.theta"):
            out[f"{span}_self_s"] = s[span]
        for module in CACHED_MODULES:
            hits, misses, entries = cache_stats(module)
            short = module.__name__.split(".")[-1]
            out[f"{short}.cache_hit_frac"] = _frac(hits, hits + misses)
            out[f"{short}.cache_entries"] = entries
        return {name: out[name] for name in LAYER_UNITS if name in out}
