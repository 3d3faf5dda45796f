"""The data of every shipped parameter pack, pinned as printed strings: the
variant, the field, the algebra F (labels, unit, structure constants), the
four components of beta, alpha and the stated R."""

import pytest

from qwreath.base_algebra import (DELTA_KEYS, InvalidConfig, PresetNotFound,
                                  corrupted_beta_params, preset, shipped_presets)
from qwreath.coeff_ring import scalar_str

RATIONAL, RATFUN = "Field('rational')", "Field('ratfun')"
GROUND = ("FAlgebra(k, dim=1)", ("1",), 0, ((((0, "1"),),),))
CYCLIC2 = ("FAlgebra(t-cyclic2, dim=2)", ("1", "t"), 0,
           ((((0, "1"),), ((1, "1"),)), (((1, "1"),), ((0, "1"),))))
CYCLIC3 = ("FAlgebra(t-cyclic3, dim=3)", ("1", "t", "t^2"), 0,
           ((((0, "1"),), ((1, "1"),), ((2, "1"),)),
            (((1, "1"),), ((2, "1"),), ((0, "1"),)),
            (((2, "1"),), ((0, "1"),), ((1, "1"),))))
DUAL = ("FAlgebra(c-trunc2, dim=2)", ("1", "c"), 0,
        ((((0, "1"),), ((1, "1"),)), (((1, "1"),), ())))

# name: (variant, field, algebra, (delta00, delta01, delta10, delta11), alpha, R)
GOLDEN = {
    "wreath": ("polynomial", RATIONAL, CYCLIC2, ("0", "0", "0", "0"), "1⊗1", "1⊗1"),
    "graded_affine": ("polynomial", RATFUN, GROUND, ("h*1⊗1", "0", "0", "0"),
                      "1⊗1", "1⊗1"),
    "degenerate": ("polynomial", RATIONAL, GROUND, ("1⊗1", "0", "0", "0"), "1⊗1", "1⊗1"),
    "nil": ("polynomial", RATIONAL, GROUND, ("1⊗1", "0", "0", "0"), "0", "0"),
    "opposite_nil": ("polynomial", RATIONAL, GROUND, ("0", "0", "0", "1⊗1"), "0", "0"),
    "affine_hecke": ("laurent", RATFUN, GROUND, ("0", "0", "(q-1)*1⊗1", "0"),
                     "1⊗1", "q*1⊗1"),
    "zero_hecke": ("laurent", RATIONAL, GROUND, ("0", "0", "-1⊗1", "0"), "1⊗1", "0"),
    "qt_hecke": ("laurent", RATFUN, GROUND, ("0", "0", "(-q+t)*1⊗1", "0"),
                 "q*1⊗1", "q*t*1⊗1"),
    "zigzag_a1": ("laurent", RATIONAL, DUAL, ("1⊗c + c⊗1", "0", "0", "0"), "1⊗1", "1⊗1"),
    "savage_frobenius": ("polynomial", RATIONAL, DUAL, ("1⊗c + c⊗1", "0", "0", "0"),
                         "1⊗1", "1⊗1"),
    "pro_p": ("laurent", RATFUN, CYCLIC2,
              ("0", "0", "((1/2*q^2-1/2)/q)*1⊗1 + ((1/2*q^2-1/2)/q)*t⊗t", "0"),
              "((-1/2*q+1/2)/q)*1⊗1 + ((1/2*q+1/2)/q)*t⊗t", "1⊗1"),
    "pro_p(4)": ("laurent", RATFUN, CYCLIC3,
                 ("0", "0", "((1/3*q^2-1/3)/q)*1⊗1 + ((1/3*q^2-1/3)/q)*t⊗t^2 + "
                  "((1/3*q^2-1/3)/q)*t^2⊗t", "0"),
                 "((-2/3*q+1/3)/q)*1⊗1 + ((1/3*q+1/3)/q)*t⊗t^2 + ((1/3*q+1/3)/q)*t^2⊗t",
                 "1⊗1"),
    "corrupted": ("polynomial", RATIONAL, GROUND, ("1⊗1", "0", "0", "1⊗1"), "1⊗1", "1⊗1"),
}


def printed(p):
    """The pack's data in the GOLDEN layout; a missing R prints as None."""
    alg = p.algebra
    table = tuple(tuple(tuple((k, scalar_str(c)) for k, c in cell) for cell in row)
                  for row in alg.table)
    return (p.variant, repr(p.field), (repr(alg), alg.labels, alg.unit_index, table),
            tuple(str(p.deltas[key]) for key in DELTA_KEYS), str(p.alpha),
            None if p.stated_r is None else str(p.stated_r))


def test_golden_covers_every_shipped_preset():
    assert set(shipped_presets()) | {"pro_p(4)", "corrupted"} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pack_data_matches_the_golden_strings(name):
    p = corrupted_beta_params() if name == "corrupted" else preset(name)
    assert p.name == name
    assert printed(p) == GOLDEN[name]


def test_preset_names_that_build_no_pack():
    with pytest.raises(InvalidConfig):
        preset("pro_p(2)")
    for name in ("pro_p(x)", "rees", "no_such_thing"):
        with pytest.raises(PresetNotFound):
            preset(name)
