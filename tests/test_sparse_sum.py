"""The linear operations, equality and repr every SparseSum inherits, on
one small nonzero element of each subclass."""

from collections import Counter

import pytest

from qwreath.base_algebra import ArityMismatch, FTensor, SparseSum, add_batch, preset
from qwreath.convolution import BlockMismatch, ConvBlock, SchurElement
from qwreath.pqwp import ParamMismatch, PqwpElement
from qwreath.symcomb import identity, simple
from qwreath.tensor_module import ModuleMismatch, TensorVector
from qwreath.tensor_poly import LocalizedElement, SizeMismatch, p_ij, unit_poly, x_var


def _poly(p, d):
    return x_var(p, d, 0) - x_var(p, d, 1).scale(p.field.from_int(2))


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
    assert a + a == a.scale(field.from_int(2))
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
    assert out == [a.scale(field.from_int(2)), zero, -a, -a]
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
