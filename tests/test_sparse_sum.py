"""The linear operations, equality and repr every SparseSum inherits, on
one small nonzero element of each subclass."""

from collections import Counter

import pytest

from qwreath.base_algebra import (ArityMismatch, FTensor, SparseSum, add_batch, preset,
                                  shipped_presets)
from qwreath.convolution import (BlockMismatch, ConvBlock, SchurElement, crossing,
                                 phi_embed, split_merge)
from qwreath.pqwp import ParamMismatch, PqwpElement, k_lambda, pqwp_mul
from qwreath.symcomb import (coset_shapes, double_coset_reps, identity,
                             matrix_from_triple, simple)
from qwreath.tensor_module import (ModuleMismatch, TensorVector, ThetaMap, act_H_batch,
                                   invariant_basis)
from qwreath.tensor_poly import LocalizedElement, SizeMismatch, p_ij, unit_poly, x_var


def _poly(p, d):
    return x_var(p, d, 0) - x_var(p, d, 1).scale(p.field.coerce(2))


def _block(p, d=2, lam=(1, 1)):
    values = {identity(d): LocalizedElement(_poly(p, d))}
    if lam == (1,) * d:
        values[simple(d, 0)] = LocalizedElement.one(p, d)
    return ConvBlock(p, d, lam, (1,) * d, values)


# (element of the affine_hecke pack, element of another space, its error)
def _cases():
    p, q = preset("affine_hecke"), preset("degenerate")
    return {
        "FTensor": (p.alpha + p.deltas[(1, 0)], FTensor.unit(p.algebra, 3),
                    ArityMismatch),
        "TensorPoly": (_poly(p, 2), _poly(p, 3), SizeMismatch),
        "PqwpElement": (PqwpElement.h_gen(p, 2, 0) + PqwpElement.of_poly(_poly(p, 2)),
                        PqwpElement.h_gen(q, 2, 0), ParamMismatch),
        "TensorVector": (TensorVector.basis(p, 2, 2, (2, 1), _poly(p, 2)),
                         TensorVector.basis(p, 3, 2, (2, 1)), ModuleMismatch),
        "ConvBlock": (_block(p), _block(p, 2, (2,)), BlockMismatch),
        "SchurElement": (SchurElement.from_block(_block(p)),
                         SchurElement.from_block(_block(q)), BlockMismatch),
    }


CASES = tuple(_cases())


@pytest.mark.parametrize("kind", CASES)
def test_linear_operations(kind):
    a, _, _ = _cases()[kind]
    assert isinstance(a, SparseSum) and type(a).__name__ == kind
    assert bool(a)
    assert not (a - a)
    assert -(-a) == a
    assert not (a + (-a))
    field = a.algebra.field if isinstance(a, FTensor) else a.params.field
    assert a + a == a.scale(field.coerce(2))
    assert not a.scale(field.zero())


@pytest.mark.parametrize("kind", CASES)
def test_mixed_spaces_raise_the_class_error(kind):
    a, other, error = _cases()[kind]
    with pytest.raises(error):
        a + other
    with pytest.raises(error):
        a - other


@pytest.mark.parametrize("kind", CASES)
def test_mixed_types_raise_type_error(kind):
    cases = _cases()
    a = cases[kind][0]
    for other_kind, (b, _, _) in cases.items():
        if other_kind == kind:
            continue
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    with pytest.raises(TypeError):
        a + 1


@pytest.mark.parametrize("kind", CASES)
def test_batched_sum_adds_each_pair(kind):
    """add_batch, which x + y runs on a batch of one, on batches whose
    elements share their coefficient objects; a batch mixing spaces or
    types is refused."""
    cases = _cases()
    a, other, error = cases[kind]
    field = a.algebra.field if isinstance(a, FTensor) else a.params.field
    zero = a.scale(field.zero())
    out = add_batch([a, a, -a, zero], [a, -a, zero, -a])
    assert out == [a.scale(field.coerce(2)), zero, -a, -a]
    assert out[1].terms == {}
    with pytest.raises(error):
        add_batch([a, a], [a, other])
    b = next(case[0] for name, case in cases.items() if name != kind)
    with pytest.raises(TypeError):
        add_batch([a, b], [a, a])


@pytest.mark.parametrize("kind", CASES)
def test_mixed_spaces_compare_unequal(kind):
    a, other, _ = _cases()[kind]
    assert (a == other) is False
    assert (other == a) is False
    assert (a != other) is True


@pytest.mark.parametrize("kind", CASES)
def test_mixed_types_compare_unequal(kind):
    cases = _cases()
    a = cases[kind][0]
    for other_kind, (b, _, _) in cases.items():
        if other_kind != kind:
            assert (a == b) is False
            assert (a != b) is True
    assert (a == 1) is False


REPRS = {
    "FTensor": "FTensor(q*1⊗1)",
    "TensorPoly": "TensorPoly((1⊗1)*x1 - 2*(1⊗1)*x2)",
    "PqwpElement": "PqwpElement(H[1] + (1⊗1)*x1 - 2*(1⊗1)*x2)",
    "TensorVector": "TensorVector(v[2,1]*((1⊗1)*x1 - 2*(1⊗1)*x2))",
    "ConvBlock": "ConvBlock([(1, 1)|(1, 1)] |1 2| -> [(1⊗1)*x1 - 2*(1⊗1)*x2]; "
                 "|2 1| -> [(1⊗1)])",
    "SchurElement": "SchurElement([(1, 1)|(1, 1)] |1 2| -> [(1⊗1)*x1 - 2*(1⊗1)*x2]; "
                    "|2 1| -> [(1⊗1)])",
}


@pytest.mark.parametrize("kind", CASES)
def test_repr(kind):
    assert repr(_cases()[kind][0]) == REPRS[kind]


def test_blocks_compare_values_in_different_factored_forms():
    """P_12 stored expanded and stored as a factor tag is one value."""
    p, d, lam = preset("affine_hecke"), 2, (1, 1)
    expanded = ConvBlock(p, d, lam, lam, {identity(d): LocalizedElement(p_ij(p, d, 0, 1))})
    tagged = ConvBlock(p, d, lam, lam, {identity(d): LocalizedElement(
        unit_poly(p, d), Counter([("P", 0, 1)]))})
    assert expanded.terms[identity(d)].nfac != tagged.terms[identity(d)].nfac
    assert expanded == tagged
    assert not expanded != tagged
    assert SchurElement.from_block(expanded) == SchurElement.from_block(tagged)


# no constructor stores a zero coefficient --------------------------------------


def zero_values(x, path="x"):
    """The paths of the zero values stored anywhere inside x: coefficients
    of a sparse sum, at any depth, and localized values with a zero core."""
    if isinstance(x, LocalizedElement):
        return [path] if not x else zero_values(x.core, f"{path}.core")
    if not isinstance(x, SparseSum):
        return []
    out = []
    for key, value in x.terms.items():
        at = f"{path}[{key!r}]"
        out += [at] if not value else zero_values(value, at)
    return out


def built_values(p):
    """(name, value) for the values the library's builders return at d = 3."""
    d = 3
    K = k_lambda(p, d, (d,))
    yield "K", K
    yield "K*K", pqwp_mul(K, K)
    for i in range(d - 1):
        yield f"phi(H_{i + 1})", phi_embed(PqwpElement.h_gen(p, d, i))
    for kind in ("split", "merge"):
        yield kind, split_merge(p, d, (2, 1), kind=kind)
    for kind in ("partial_split", "partial_merge"):
        yield kind, split_merge(p, d, (3,), (2, 1), kind=kind)
    yield "crossing", crossing(p, d, (2, 1))
    pure = [TensorVector.basis(p, 2, d, (a, b, c))
            for a in (1, 2) for b in (1, 2) for c in (1, 2)]
    for k in range(d - 1):
        for v, image in zip(pure, act_H_batch(pure, k)):
            yield f"{v} * H_{k + 1}", image
    lam, mu = (2, 1), (1, 2)
    for g in double_coset_reps(lam, mu):
        _, delta = coset_shapes(lam, g, mu)
        for P in invariant_basis(p, d, delta, 1):
            yield f"theta[{g}, {P}]", ThetaMap(p, matrix_from_triple(lam, g, mu), P).core


@pytest.mark.parametrize("name", shipped_presets())
def test_builders_store_no_zero_coefficient(name):
    """SparseSum's promise that every constructor drops zero coefficients,
    held by the values the builders return on each shipped preset."""
    for label, value in built_values(preset(name)):
        assert zero_values(value) == [], label
