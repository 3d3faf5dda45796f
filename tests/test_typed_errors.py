"""Typed errors of the public API: each row calls the library with one bad
argument and names the exception type it must raise, and a fragment of its
message.  These are the argument checks no other test reaches."""

import json
import tempfile
from pathlib import Path

import pytest

from qwreath.base_algebra import (
    ArityMismatch, FAlgebra, FTensor, InvalidConfig, PqwpParams,
    is_weak_frobenius, load_preset_file, preset,
)
from qwreath.coeff_ring import (
    DivisionByZero, Field, RatFun, UnboundParameter, scalar_str, specialize,
)
from qwreath.convolution import (BlockMismatch, ConvBlock, SchurElement, crossing,
                                 split_merge)
from qwreath.pqwp import ParamMismatch, PqwpElement, k_lambda, pqwp_mul
from qwreath.symcomb import ThetaMatrix
from qwreath.tensor_module import (ModuleMismatch, TensorVector, ThetaMap, act_pqwp,
                                   theta_apply, theta_family_rank, theta_on_tensor)
from qwreath.tensor_poly import (SizeMismatch, factor_value, of_ftensor, unit_poly,
                                 x_var)

Q = Field.rationals()
K = FAlgebra.ground(Q)


def load_spec(**entries):
    """A preset file with the given entries on top of a valid ground pack."""
    spec = {"name": "bad", "field": {"kind": "rational"},
            "alpha": [[["1", "1"], "1"]], **entries}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.json"
        path.write_text(json.dumps(spec))
        return load_preset_file(str(path))


def pack():
    return preset("degenerate")


def other():
    """A second pack: data over it does not mix with data over pack()."""
    return preset("nil")


# (id, call, exception type, message fragment)
ERRORS = [
    # base_algebra
    ("unit_index_out_of_range",
     lambda: FAlgebra(Q, ("1",), [[((0, 1),)]], unit_index=1),
     ValueError, "unit index out of range"),
    ("truncated_power_below_two", lambda: FAlgebra.truncated(Q, power=1),
     ValueError, "power must be at least 2"),
    ("cyclic_order_below_one", lambda: FAlgebra.cyclic(Q, order=0),
     ValueError, "order must be positive"),
    ("ftensor_key_arity", lambda: FTensor(K, 2, {(0,): 1}),
     ArityMismatch, "has arity 1, expected 2"),
    ("embed_position_count", lambda: FTensor.unit(K, 2).embed((0,), 3),
     ArityMismatch, "position count"),
    ("weak_frobenius_arity", lambda: is_weak_frobenius(FTensor.unit(K, 3)),
     ArityMismatch, "needs arity 2"),
    ("unit_fails_on_the_right_only",
     lambda: FAlgebra(Q, ("1", "a"), [[((0, 1),), ((1, 1),)], [(), ()]]),
     ValueError, "unit fails on the right of basis 1"),
    ("delta_in_wrong_space",
     lambda: PqwpParams(K, "polynomial", {(1, 0): FTensor.unit(K, 3)}, FTensor.unit(K, 2)),
     InvalidConfig, r"delta \(1, 0\) lives in the wrong space"),
    ("alpha_in_wrong_space",
     lambda: PqwpParams(K, "polynomial", {}, FTensor.unit(FAlgebra.ground(Q), 2)),
     InvalidConfig, "alpha lives in the wrong space"),
    ("bad_prime_field_spec", lambda: load_spec(field={"kind": "prime", "p": "five"}),
     InvalidConfig, "bad prime field spec"),
    ("bad_tensor_entry", lambda: load_spec(alpha=[[["1", "1"]]]),
     InvalidConfig, "bad tensor entry"),
    # coeff_ring
    ("ratfun_zero_denominator", lambda: RatFun(1, 0),
     DivisionByZero, "zero denominator"),
    ("unknown_field_kind", lambda: Field("complex"),
     ValueError, "unknown field kind 'complex'"),
    ("scalar_str_of_float", lambda: scalar_str(1.5), TypeError, "not a scalar"),
    ("specialize_float", lambda: specialize(1.5, {}), TypeError, "not a scalar"),
    ("as_fraction_with_parameter",
     lambda: Field.rational_functions().parse("q + 1").as_fraction(),
     UnboundParameter, "q"),
    ("zero_ratfun_to_a_negative_power", lambda: RatFun(0) ** -1,
     DivisionByZero, "inverse of zero scalar"),
    ("prime_field_of_one", lambda: Field.prime(1),
     ValueError, "characteristic must be prime, got 1"),
    # convolution
    ("partial_split_without_refinement",
     lambda: split_merge(pack(), 3, (3,), kind="partial_split"),
     ValueError, "partial_split needs a refinement"),
    ("full_split_with_refinement",
     lambda: split_merge(pack(), 3, (3,), (2, 1), kind="split"),
     ValueError, "take no refinement"),
    ("crossing_on_three_parts", lambda: crossing(pack(), 3, (1, 1, 1)),
     ValueError, "need a two-part composition"),
    ("blocks_over_two_packs_add",
     lambda: (ConvBlock.zero(pack(), 2, (2,), (2,))
              + ConvBlock.zero(other(), 2, (2,), (2,))),
     BlockMismatch, "mixed parameter sets"),
    ("blocks_over_two_packs_multiply",
     lambda: ConvBlock.zero(pack(), 2, (2,), (2,)).mul(
         ConvBlock.zero(other(), 2, (2,), (2,))),
     BlockMismatch, "mixed parameter sets"),
    ("blocks_that_do_not_compose",
     lambda: ConvBlock.zero(pack(), 3, (2, 1), (2, 1)).mul(
         ConvBlock.zero(pack(), 3, (1, 2), (1, 2))),
     BlockMismatch, r"cannot compose \(\(2, 1\),\(2, 1\)\) with"),
    ("block_filed_under_another_key",
     lambda: SchurElement(pack(), 2,
                          {((1, 1), (1, 1)): ConvBlock.zero(pack(), 2, (2,), (2,))}),
     ValueError, "block filed under"),
    ("schur_element_times_an_int",
     lambda: SchurElement.idempotent(pack(), 2, (2,)) * 2,
     TypeError, "unsupported operand"),
    # tensor_poly
    ("negative_power", lambda: x_var(pack(), 2, 0) ** -1,
     ValueError, "negative power"),
    ("place_permute_size", lambda: x_var(pack(), 2, 0).place_permute((0, 1, 2)),
     SizeMismatch, "permutation size"),
    ("of_ftensor_arity", lambda: of_ftensor(pack(), 3, pack().alpha),
     SizeMismatch, "tensor arity differs"),
    ("unknown_factor_tag", lambda: factor_value(pack(), 2, ("Q", 0, 1)),
     ValueError, "unknown factor tag"),
    # symcomb, pqwp, tensor_module
    ("negative_theta_entry", lambda: ThetaMatrix([[1, -1], [0, 2]]),
     ValueError, "negative entry"),
    ("non_integral_theta_entry", lambda: ThetaMatrix([[1.5, 0], [0, 2]]),
     ValueError, r"non-integral entry 1.5 in \(1.5, 0\)"),
    ("ragged_theta_rows", lambda: ThetaMap(pack(), ThetaMatrix([[1, 0], [1]])),
     ValueError, r"rows of unequal lengths \[2, 1\]"),
    ("non_integral_composition_part", lambda: k_lambda(pack(), 2, (1.5, 1.5)),
     ValueError, r"non-integral part 1.5 in \(1.5, 1.5\)"),
    ("pqwp_mul_of_ints", lambda: pqwp_mul(1, 2),
     ParamMismatch, "needs two algebra elements"),
    ("theta_rank_unequal_sizes", lambda: theta_family_rank(pack(), (2, 1), (1, 1), 1),
     ValueError, "equal size"),
    ("act_pqwp_over_two_packs",
     lambda: act_pqwp(TensorVector.basis(pack(), 2, 2, (1, 2)),
                      PqwpElement.h_gen(other(), 2, 0)),
     ModuleMismatch, "element and vector live over different data"),
    ("theta_coefficient_over_another_pack",
     lambda: ThetaMap(pack(), ThetaMatrix([[1, 0], [0, 1]]), unit_poly(other(), 2)),
     ModuleMismatch, "coefficient lives over different data"),
    ("theta_apply_off_a_shortest_representative",
     lambda: theta_apply(ThetaMap(pack(), ThetaMatrix([[2]])),
                         {(1, 0): unit_poly(pack(), 2)}),
     ModuleMismatch, r"\|2 1\| is not a shortest representative"),
    ("theta_on_tensor_over_another_pack",
     lambda: theta_on_tensor(ThetaMap(pack(), ThetaMatrix([[1, 0], [0, 1]])),
                             TensorVector.basis(other(), 2, 2, (1, 2))),
     ModuleMismatch, "vector and block map live over different data"),
]


@pytest.mark.parametrize("call, error, message",
                         [row[1:] for row in ERRORS], ids=[row[0] for row in ERRORS])
def test_bad_argument_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
