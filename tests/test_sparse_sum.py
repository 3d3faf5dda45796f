"""The linear operations every SparseSum inherits, on one small nonzero
element of each subclass."""

import pytest

from qwreath.base_algebra import ArityMismatch, FTensor, SparseSum, preset
from qwreath.convolution import BlockMismatch, ConvBlock, SchurElement
from qwreath.pqwp import ParamMismatch, PqwpElement
from qwreath.symcomb import identity, simple
from qwreath.tensor_module import ModuleMismatch, TensorVector
from qwreath.tensor_poly import LocalizedElement, SizeMismatch, x_var


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
    assert bool(a) and not a.is_zero()
    assert not (a - a) and (a - a).is_zero()
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
