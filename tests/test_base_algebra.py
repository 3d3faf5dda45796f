import json
from itertools import product as iproduct
from pathlib import Path

import pytest

from qwreath.base_algebra import (
    ArityMismatch, FAlgebra, FTensor, IdentityFailed, InvalidConfig, PqwpParams,
    PresetNotFound, ValidationReport, corrupted_beta_params, is_weak_frobenius,
    load_preset_file, preset, rebase_field, shipped_presets,
    two_frobs_commute_check, validate_pqwp, verify_pbw_conditions,
)
from qwreath.coeff_ring import Field
from qwreath.pqwp import k_lambda, m_lambda, pqwp_mul
from qwreath.tensor_module import theta_family_rank
from qwreath.tensor_poly import (
    TensorPoly, annihilator_certificate, monomial, unit_poly, x_var,
)

DATA = Path(__file__).resolve().parent / "data"
WREATH_S3 = str(DATA / "wreath_s3.toml")


def dual_numbers():
    return FAlgebra.truncated(Field.rationals(), "c", 2)


def test_ftensor_componentwise_product():
    alg = dual_numbers()
    c1 = FTensor.basis(alg, (1, 0))
    c2 = FTensor.basis(alg, (0, 1))
    assert c1 * c2 == FTensor.basis(alg, (1, 1))
    delta = c1 + c2
    # (c⊗1 + 1⊗c)^2 with c^2 = 0
    two_cc = FTensor.basis(alg, (1, 1)).scale(Field.rationals().from_int(2))
    assert delta * delta == two_cc
    one = FTensor.unit(alg, 2)
    for x in (c1, c2, delta, one):
        assert one * x == x
        assert x * one == x


# (coefficient strings by key, rendering); over pro_p_q3 (labels 1, t, Q) and
# affine_hecke (label 1, the rational functions of q)
FTENSOR_RENDERINGS = [
    pytest.param("pro_p_q3.toml", {(0, 0): "1"}, "1⊗1", id="unit"),
    pytest.param("pro_p_q3.toml", {(0, 0): "2", (1, 1): "-1"}, "2*1⊗1 - t⊗t", id="2,-1"),
    pytest.param("pro_p_q3.toml", {(0, 1): "1/3"}, "(1/3)*1⊗t", id="1/3"),
    pytest.param("pro_p_q3.toml", {(0, 0): "1", (1, 1): "-1/3"},
                 "1⊗1 - (1/3)*t⊗t", id="-1/3"),
    pytest.param("affine_hecke", {(0, 0): "q - 1"}, "(q-1)*1⊗1", id="q-1"),
    pytest.param("affine_hecke", {(0, 0): "-q"}, "-q*1⊗1", id="-q"),
    pytest.param("affine_hecke", {(0, 0): "-q^-1"}, "-(1/q)*1⊗1", id="-1/q"),
]


@pytest.mark.parametrize("name, coeffs, rendering", FTENSOR_RENDERINGS)
def test_ftensor_rendering(name, coeffs, rendering):
    """A coefficient of one is left out, a leading minus joins the sum as
    " - ", and any other sign or a slash brackets the coefficient."""
    p = load_preset_file(str(DATA / name)) if name.endswith(".toml") else preset(name)
    terms = {k: p.field.parse(c) for k, c in coeffs.items()}
    assert str(FTensor(p.algebra, 2, terms)) == rendering


def test_ftensor_scales_only_by_scalars():
    p = preset("affine_hecke")
    one = FTensor.unit(p.algebra, 2)
    for other in (x_var(p, 2, 0), "2"):
        with pytest.raises(TypeError):
            one * other
        with pytest.raises(TypeError):
            other * one
    two = p.field.from_int(2)
    assert one * two == two * one == one.scale(two)
    assert one * 2 == 2 * one == one.scale(two)


def test_ftensor_arity_mismatch():
    alg = dual_numbers()
    with pytest.raises(ArityMismatch):
        FTensor.unit(alg, 2) * FTensor.unit(alg, 3)
    with pytest.raises(ArityMismatch):
        FTensor.unit(alg, 3).flip()


def test_ftensor_place_and_embed():
    alg = dual_numbers()
    t = FTensor.basis(alg, (1, 0))
    assert t.flip() == FTensor.basis(alg, (0, 1))
    assert t.flip().flip() == t
    emb = t.embed((0, 2), 3)
    assert emb == FTensor.basis(alg, (1, 0, 0))
    # legs in reversed slot order
    emb_rev = t.embed((2, 0), 3)
    assert emb_rev == FTensor.basis(alg, (0, 0, 1))
    w = (1, 2, 0)
    moved = FTensor.basis(alg, (1, 0, 0)).embed(w, 3)
    assert moved == FTensor.basis(alg, (0, 1, 0))


def test_algebra_construction_rejects_bad_tables():
    field = Field.rationals()
    one = field.one()
    # e1*e1 = e0 but e0 is supposed to be the unit: not unital
    bad = [[((1, one),), ((1, one),)], [((1, one),), ((0, one),)]]
    with pytest.raises(ValueError, match="unit fails"):
        FAlgebra(field, ("1", "g"), bad)
    # non-associative sandbox: g*g = 1, g*1 = g ok, but h breaks mixing
    nonassoc = [
        [((0, one),), ((1, one),), ((2, one),)],
        [((1, one),), ((2, one),), ((0, one),)],
        [((2, one),), ((1, one),), ((1, one),)],
    ]
    with pytest.raises(ValueError, match="not associative"):
        FAlgebra(field, ("1", "g", "h"), nonassoc)


@pytest.mark.parametrize("n", range(1, 9))
def test_polynomial_quotients_pass_the_associativity_check(n):
    """truncated and cyclic skip the dim^3 check at construction, being
    quotients of k[g]; their tables must still pass it."""
    for field in (Field.rationals(), Field.prime(5)):
        FAlgebra.cyclic(field, "t", n)._check_associative()
        if n >= 2:
            FAlgebra.truncated(field, "c", n)._check_associative()


def test_table_algebra_from_a_file_is_checked_for_associativity(tmp_path):
    """The non-associative table above, given in a preset file, is rejected
    when the file loads."""
    rows = [[[[0, "1"]], [[1, "1"]], [[2, "1"]]],
            [[[1, "1"]], [[2, "1"]], [[0, "1"]]],
            [[[2, "1"]], [[1, "1"]], [[1, "1"]]]]
    data = {"name": "nonassoc", "algebra": {"kind": "table", "labels": ["1", "g", "h"],
                                            "table": rows},
            "alpha": [[["1", "1"], "1"]]}
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidConfig, match="not associative"):
        load_preset_file(str(path))


def test_rebase_reloads_the_preset_data(monkeypatch, tmp_path):
    """rebase_field reloads the data a pack was built from over the new
    field: the cyclic F of pro_p(40) is not checked for associativity
    again, and its formal parameter still refuses a prime field, while a
    table algebra given in a file is checked, on loading and on rebasing."""
    calls = []

    def recording_check(alg):
        calls.append(alg.name)

    monkeypatch.setattr(FAlgebra, "_check_associative", recording_check)
    with pytest.raises(InvalidConfig, match="formal parameters"):
        rebase_field(preset("pro_p(40)"), Field.prime(7))
    assert calls == []
    rows = [[[[0, "1"]], [[1, "1"]]], [[[1, "1"]], []]]
    data = {"name": "dual", "algebra": {"kind": "table", "labels": ["1", "c"],
                                        "table": rows, "name": "dual-table"},
            "delta": {"00": [[["c", "1"], "1/3"]]}, "alpha": [[["1", "1"], "1"]]}
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(data))
    params = load_preset_file(str(path))
    assert calls == ["dual-table"]
    rebased = rebase_field(params, Field.prime(5))
    assert calls == ["dual-table", "dual-table"]
    assert rebased.field == Field.prime(5)
    assert rebased.spec["field"]["p"] == 5
    assert (rebased.name, rebased.variant) == (params.name, params.variant)
    assert rebase_field(params, params.field) is params
    with pytest.raises(InvalidConfig):
        rebase_field(params, Field.prime(3))


def test_group_algebra_of_s3_is_a_non_commutative_table():
    """tests/data/wreath_s3.toml gives F = k[S_3] as a 6-dimensional table
    algebra: s*t and t*s are different basis elements."""
    alg = load_preset_file(WREATH_S3).algebra
    assert alg.dim == 6 and alg.labels == ("1", "s", "t", "st", "ts", "sts")
    s, t = (FTensor.basis(alg, (alg.labels.index(x),)) for x in ("s", "t"))
    assert s * t == FTensor.basis(alg, (3,))
    assert t * s == FTensor.basis(alg, (4,))
    assert s * t != t * s


@pytest.mark.parametrize("degree", (1, 2))
def test_wreath_s3_reports_pass(degree):
    """k[S_3], where a*b != b*a; degree 2 gives P2 104,976 pairs."""
    params = load_preset_file(WREATH_S3)
    assert validate_pqwp(params, degree).passed
    assert verify_pbw_conditions(params, degree).passed


@pytest.mark.parametrize("d", (2, 3))
def test_wreath_s3_k_squared_is_m_times_k(d):
    params = load_preset_file(WREATH_S3)
    k = k_lambda(params, d, (d,))
    assert pqwp_mul(k, k) == k.poly_left(m_lambda(params, d, (d,)))


def _alpha_s_wreath_s3(tmp_path):
    """wreath_s3.toml with alpha = s⊗1, which is not central, and neither is
    R = s⊗s."""
    path = tmp_path / "alpha_s.toml"
    path.write_text(Path(WREATH_S3).read_text().replace(
        'alpha = [[["1", "1"], "1"]]', 'alpha = [[["s", "1"], "1"]]'))
    return load_preset_file(str(path))


def _text_rows(report):
    """The rows of a text report by rule, each without its rule, status and
    time: what follows the time, its detail and witness."""
    lines = str(report).splitlines()
    assert lines[0] == report.title
    return {line.split()[0]: (line.split()[1], line.split(" ms)")[1])
            for line in lines[1:]}


def test_timed_records_a_returned_note_and_a_raised_witness():
    """A check that returns passes with what it returned as the detail; one
    that raises IdentityFailed fails with the message as the witness."""
    rep = ValidationReport("protocol")

    def fails():
        raise IdentityFailed("f=(0, 1) breaks it", witness={"f": (0, 1)})
    rep.timed("ok", lambda: "rank 4 of 4")
    rep.timed("bad", fails)
    rep.timed("bare", lambda: None)
    assert [(e["rule"], e["status"], e["witness"], e["detail"]) for e in rep.entries] == [
        ("ok", "pass", None, "rank 4 of 4"),
        ("bad", "fail", "f=(0, 1) breaks it", None),
        ("bare", "pass", None, None),
    ]
    assert not rep.passed
    assert [e["rule"] for e in rep.failures()] == ["bad"]


def test_timed_lets_any_other_exception_out():
    """Only IdentityFailed is a failed check: a rule with a bug raises out
    of the report and leaves no row."""
    rep = ValidationReport("protocol")
    with pytest.raises(ZeroDivisionError):
        rep.timed("bug", lambda: 1 // 0)
    assert rep.entries == []


def test_text_report_shows_details_and_witnesses(tmp_path):
    alg = FAlgebra.ground(Field.rationals())
    bare = PqwpParams(alg, "polynomial", {}, FTensor.unit(alg, 2), name="bare")
    rows = _text_rows(validate_pqwp(bare, 1))
    assert rows["C1"] == ("skip", "  no R stated")
    assert rows["C3"] == ("pass", "  no annihilator up to x-degree 1 (both sides full rank)")
    assert rows["A1"] == ("pass", "")
    rows = _text_rows(validate_pqwp(_alpha_s_wreath_s3(tmp_path), 1))
    assert rows["A1"] == ("fail", "  witness: R = s⊗s not central")
    assert rows["C2"] == ("fail", "  witness: alpha = s⊗1 not central")


def test_c3_fails_when_p_is_zero():
    """With no alpha and no delta, P = alpha*(x1-x2) + beta is zero, and C3
    says so instead of looking for annihilators."""
    alg = FAlgebra.ground(Field.rationals())
    empty = PqwpParams(alg, "polynomial", {}, FTensor(alg, 2), name="empty")
    rows = {e["rule"]: (e["status"], e["witness"]) for e in validate_pqwp(empty, 1).entries}
    assert rows["C3"] == ("fail", "P = alpha*(x1-x2) + beta is itself zero")


# Sweedler's four-dimensional algebra: g^2 = 1, x^2 = 0, xg = -gx
SWEEDLER_TOML = """
name = "sweedler"
alpha = [[["1", "1"], "1"]]
[algebra]
kind = "table"
labels = ["1", "g", "x", "gx"]
table = [
  [[[0, "1"]], [[1, "1"]], [[2, "1"]], [[3, "1"]]],
  [[[1, "1"]], [[0, "1"]], [[3, "1"]], [[2, "1"]]],
  [[[2, "1"]], [[3, "-1"]], [], []],
  [[[3, "1"]], [[2, "-1"]], [], []],
]
[delta]
"00" = [[["gx", "x"], "1"], [["x", "gx"], "-1"]]
"""


def test_a2_names_a_weak_frobenius_delta_that_is_not_flip_symmetric(tmp_path):
    """On Sweedler's algebra gx⊗x - x⊗gx is weak Frobenius, and its flip is
    its negative: A2 names it as not flip-symmetric."""
    path = tmp_path / "sweedler.toml"
    path.write_text(SWEEDLER_TOML)
    params = load_preset_file(str(path))
    assert is_weak_frobenius(params.deltas[(0, 0)])
    rows = {e["rule"]: (e["status"], e["witness"])
            for e in validate_pqwp(params, 1).entries}
    assert rows["A2"] == ("fail", "delta00 = -x⊗gx + gx⊗x not flip-symmetric")


def test_p8_compares_each_r_i_with_its_own_image(tmp_path):
    """R = s⊗s puts R_1 = s⊗s⊗1 and R_2 = 1⊗s⊗s apart, and sigma_2 sigma_1
    maps R_2 to R_1 (sigma_1 sigma_2 maps R_1 to R_2), so P8 holds; P4
    does not."""
    rows = {e["rule"]: e["status"]
            for e in verify_pbw_conditions(_alpha_s_wreath_s3(tmp_path), 0).entries}
    assert rows["P8"] == "pass"
    assert rows["P4"] == "fail"


def test_rebase_needs_preset_data():
    alg = FAlgebra.ground(Field.rationals())
    direct = PqwpParams(alg, PqwpParams.POLYNOMIAL, {}, FTensor.unit(alg, 2))
    assert direct.spec is None
    assert preset("degenerate").spec["name"] == "degenerate"
    with pytest.raises(InvalidConfig, match="not loaded from preset data"):
        rebase_field(direct, Field.prime(5))


def test_weak_frobenius_examples():
    field = Field.rationals()
    # truncated polynomial algebra k[c]/(c^3) with the full diagonal element
    alg3 = FAlgebra.truncated(field, "c", 3)
    delta = (FTensor.basis(alg3, (2, 0)) + FTensor.basis(alg3, (1, 1))
             + FTensor.basis(alg3, (0, 2)))
    assert is_weak_frobenius(delta)
    ground = FAlgebra.ground(field)
    assert is_weak_frobenius(FTensor.unit(ground, 2))
    cyc = FAlgebra.cyclic(field, "t", 2)
    assert not is_weak_frobenius(FTensor.basis(cyc, (1, 0)))


def test_weak_frobenius_shifted_family():
    # in k[c]/(c^4), the elements sum_{i+j=n+k} c^i⊗c^j stay weak Frobenius
    alg = FAlgebra.truncated(Field.rationals(), "c", 4)
    for total in (3, 4, 5):
        terms = {}
        for i in range(4):
            j = total - i
            if 0 <= j < 4:
                terms[(i, j)] = Field.rationals().one()
        assert is_weak_frobenius(FTensor(alg, 2, terms))


def test_two_frobenius_elements_commute():
    field = Field.rationals()
    ground = FAlgebra.ground(field)
    one = FTensor.unit(ground, 2)
    assert two_frobs_commute_check(one, one)
    alg = dual_numbers()
    delta = FTensor.basis(alg, (1, 0)) + FTensor.basis(alg, (0, 1))
    assert two_frobs_commute_check(delta, delta)
    cyc3 = FAlgebra.cyclic(field, "t", 3)
    group_delta = sum((FTensor.basis(cyc3, (j, (3 - j) % 3)) for j in range(1, 3)),
                      FTensor.basis(cyc3, (0, 0)))
    assert two_frobs_commute_check(group_delta, group_delta)
    # a flip-asymmetric element is not even a candidate: check detects failure
    skew = FTensor.basis(cyc3, (1, 0))
    assert not two_frobs_commute_check(skew, group_delta)


def test_preset_catalog():
    assert "affine_hecke" in shipped_presets()
    assert "rees" not in shipped_presets()
    with pytest.raises(PresetNotFound):
        preset("no_such_thing")
    with pytest.raises(PresetNotFound):
        preset("rees")
    p4 = preset("pro_p(4)")
    assert p4.algebra.dim == 3
    assert preset("pro_p") is preset("pro_p")


def test_preset_table_row_data():
    ah = preset("affine_hecke")
    q = ah.field.param("q")
    one = FTensor.unit(ah.algebra, 2)
    assert ah.s_elt == one.scale(q - 1)
    assert ah.r_elt == one.scale(q)
    zh = preset("zero_hecke")
    assert not zh.r_elt
    assert zh.s_elt == FTensor.unit(zh.algebra, 2).scale(zh.field.from_int(-1))
    qt = preset("qt_hecke")
    q2, t2 = qt.field.param("q"), qt.field.param("t")
    assert qt.r_elt == FTensor.unit(qt.algebra, 2).scale(q2 * t2)
    pro = preset("pro_p")
    assert pro.r_elt == FTensor.unit(pro.algebra, 2)
    for name in ("wreath", "zigzag_a1", "savage_frobenius"):
        p = preset(name)
        assert p.r_elt == FTensor.unit(p.algebra, 2)


@pytest.mark.parametrize("name", shipped_presets())
def test_axioms_pass_for_shipped_presets(name):
    rep = validate_pqwp(preset(name), degree_bound=2)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("name", shipped_presets())
def test_derived_s_stays_weak_frobenius(name):
    params = preset(name)
    assert is_weak_frobenius(params.s_elt)


@pytest.mark.parametrize("name", shipped_presets())
def test_pbw_conditions_pass(name):
    rep = verify_pbw_conditions(preset(name), degree=2)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("check, arg", (
    (lambda p: validate_pqwp(p, -1), "degree_bound"),
    (lambda p: validate_pqwp(p, degree_bound=-3), "degree_bound"),
    (lambda p: verify_pbw_conditions(p, -1), "degree"),
    (lambda p: annihilator_certificate(p, -1), "degree_bound"),
    (lambda p: theta_family_rank(p, (2, 1), (1, 2), -1), "degree"),
    # the degree is checked before the weights
    (lambda p: theta_family_rank(p, (2, 1), (1, 1), -1), "degree"),
), ids=("validate_pqwp", "validate_pqwp_keyword", "verify_pbw_conditions",
        "annihilator_certificate", "theta_family_rank",
        "theta_family_rank_bad_weights"))
def test_negative_degrees_are_value_errors(check, arg):
    """A negative degree bound would pass on an empty family; each check
    refuses it, naming the argument."""
    with pytest.raises(ValueError, match=f"^{arg} must be non-negative"):
        check(preset("zigzag_a1"))


def test_pbw_conditions_reject_mixed_beta():
    rep = verify_pbw_conditions(corrupted_beta_params(), degree=2)
    failed = {e["rule"] for e in rep.failures()}
    assert "P6" in failed and "P7" in failed
    for e in rep.failures():
        assert e["witness"]


def _one_monomial_wrong(true, d, exps, error):
    """sigma_i or rho_i, given as true, made wrong only for i = 0 and only on
    the monomial x^exps with unit F-legs in B^{tensor d}: to the true image
    it adds that monomial's coefficient times error(params)."""
    def wrong(self, i):
        out = true(self, i)
        if self.d == d and i == 0:
            c = self.terms.get((exps, (self.params.algebra.unit_index,) * d))
            if c is not None:
                out = out + error(self.params).scale(c)
        return out
    return wrong


# a ground pack over GF(7) with alpha = 2 and delta10 = 1: S = 1 and
# R = alpha*(alpha + S) = 6 = -S^2, which lets the first cubic identity of P9
# hold where the second fails
CUBE_ROOT_GF7 = {"name": "cube_root_gf7", "variant": "laurent",
                 "field": {"kind": "prime", "p": 7},
                 "alpha": [[["1", "1"], "2"]], "delta": {"10": [[["1", "1"], "1"]]}}


@pytest.mark.parametrize("pack, method, d, exps, error, failures", (
    ("affine_hecke", "twisted_demazure", 2, (2, 0), lambda p: unit_poly(p, 2), {
        "P2": "twisted Leibniz fails at ((0, 0), (0, 1)),((0, 0), (2, 0))",
        "P4": "first quadratic identity fails at ((0, 0), (0, 2))"}),
    ("affine_hecke", "place_permute_simple", 2, (1, 0), lambda p: x_var(p, 2, 1), {
        "P2": "sigma not multiplicative at ((0, 0), (0, 1)),((0, 0), (1, 0))",
        "P4": "second quadratic identity fails at ((0, 0), (0, 1))"}),
    ("affine_hecke", "twisted_demazure", 3, (1, 0, 2), lambda p: unit_poly(p, 3), {
        "P5": "sigma/rho braid identity fails at ((0, 0, 0), (1, 0, 2)) (i=2,j=1)",
        "P6": "f=((0, 0, 0), (1, 2, 0)), i=1, j=2",
        "P7": "f=((0, 0, 0), (1, 2, 0))"}),
    # sigma_1(x1) = x2 + x3 is no member of the family: the report still
    # checks it and names the rows it breaks
    ("affine_hecke", "place_permute_simple", 3, (1, 0, 0), lambda p: x_var(p, 3, 2), {
        "P5": "braid identity for sigma fails at ((0, 0, 0), (0, 1, 0))",
        "P7": "f=((0, 0, 0), (1, 0, 0))"}),
    # wrong on 1: P1 reads rho(1), and P3, P8 and P9 read the images of S
    # and R, which have a constant term
    ("affine_hecke", "twisted_demazure", 2, (0, 0), lambda p: unit_poly(p, 2), {
        "P1": "rho(1) != 0",
        "P2": "twisted Leibniz fails at ((0, 0), (0, 0)),((0, 0), (0, 0))",
        "P3": "sigma(S)S + rho(S) + sigma(R) != S^2 + R",
        "P4": "first quadratic identity fails at ((0, 0), (0, 0))"}),
    ("affine_hecke", "twisted_demazure", 3, (0, 0, 0), lambda p: unit_poly(p, 3), {
        "P5": "sigma/rho braid identity fails at ((0, 0, 0), (0, 0, 0)) (i=1,j=2)",
        "P6": "f=((0, 0, 0), (0, 0, 0)), i=1, j=2",
        "P7": "f=((0, 0, 0), (0, 0, 0))",
        "P8": "rho_1sigma_2(S_1) != 0",
        "P9": "first cubic identity fails (i=1,j=2)"}),
    ("affine_hecke", "place_permute_simple", 3, (0, 0, 0), lambda p: x_var(p, 3, 2), {
        "P5": "braid identity for sigma fails at ((0, 0, 0), (0, 0, 0))",
        "P7": "f=((0, 0, 0), (0, 0, 0))",
        "P8": "S_1 != sigma_2sigma_1(S_2)"}),
    ("affine_hecke", "place_permute_simple", 2, (0, 0), lambda p: unit_poly(p, 2), {
        "P1": "sigma(1) != 1",
        "P2": "sigma not multiplicative at ((0, 0), (0, 0)),((0, 0), (0, 0))",
        "P3": "sigma(S)S + rho(S) + sigma(R) != S^2 + R",
        "P4": "first quadratic identity fails at ((0, 0), (0, 0))"}),
    # S = 0 and R = 1: only the second identity of P3 reads rho(R)
    ("degenerate", "twisted_demazure", 2, (0, 0), lambda p: unit_poly(p, 2), {
        "P1": "rho(1) != 0",
        "P2": "twisted Leibniz fails at ((0, 0), (0, 0)),((0, 0), (0, 0))",
        "P3": "rho(R) + sigma(S)R != SR",
        "P4": "first quadratic identity fails at ((0, 0), (0, 0))"}),
    # S = 0, so P8's rows on S hold and its rows on R fail
    ("degenerate", "place_permute_simple", 3, (0, 0, 0), lambda p: x_var(p, 3, 2), {
        "P5": "braid identity for sigma fails at ((0, 0, 0), (0, 0, 0))",
        "P6": "f=((0, 0, 0), (0, 0, 1)), i=2, j=1",
        "P7": "f=((0, 0, 0), (0, 0, 0))",
        "P8": "R_1 != sigma_2sigma_1(R_2)"}),
    ("degenerate", "twisted_demazure", 3, (0, 0, 0), lambda p: unit_poly(p, 3), {
        "P5": "sigma/rho braid identity fails at ((0, 0, 0), (0, 0, 0)) (i=1,j=2)",
        "P6": "f=((0, 0, 0), (0, 0, 0)), i=1, j=2",
        "P7": "f=((0, 0, 0), (0, 0, 0))",
        "P8": "rho_1sigma_2(R_1) != 0",
        "P9": "first cubic identity fails (i=1,j=2)"}),
    (CUBE_ROOT_GF7, "twisted_demazure", 3, (0, 0, 0), lambda p: unit_poly(p, 3), {
        "P5": "sigma/rho braid identity fails at ((0, 0, 0), (0, 0, 0)) (i=1,j=2)",
        "P7": "f=((0, 0, 0), (0, 0, 0))",
        "P8": "rho_1sigma_2(S_1) != 0",
        "P9": "second cubic identity fails (i=1,j=2)"}),
), ids=("rho_d2_x1^2", "sigma_d2_x1", "rho_d3_x1x3^2", "sigma_d3_x1",
        "rho_d2_1", "rho_d3_1", "sigma_d3_1",
        "sigma_d2_1", "degenerate_rho_d2_1", "degenerate_sigma_d3_1",
        "degenerate_rho_d3_1", "cube_root_gf7_rho_d3_1"))
def test_pbw_rows_see_a_map_wrong_on_one_monomial(monkeypatch, tmp_path, pack, method,
                                                  d, exps, error, failures):
    """Each row fails, with its first witness, when sigma_1 or rho_1 is
    wrong on one monomial.  Most rows fail on affine_hecke; the rows on 1,
    S and R that it leaves passing fail on packs whose S or R vanishes or
    whose R is -S^2, a shipped preset or a preset file."""
    if isinstance(pack, str):
        params = preset(pack)
    else:
        path = tmp_path / "pack.json"
        path.write_text(json.dumps(pack))
        params = load_preset_file(str(path))
        assert verify_pbw_conditions(params, 2).passed
    wrong = _one_monomial_wrong(getattr(TensorPoly, method), d, exps, error)
    monkeypatch.setattr(TensorPoly, method, wrong)
    rep = verify_pbw_conditions(params, 2)
    assert {e["rule"]: e["witness"] for e in rep.failures()} == failures


@pytest.mark.parametrize("exps, failure", (
    ((0, 0), "rho(1) nonzero"),
    ((1, 0), "rho(x1) differs from beta"),
    ((2, 1), "rho(sigma(x^(1,2))) != -rho(x^(1,2))"),
), ids=("rho_1", "rho_x1", "rho_x1^2x2"))
def test_a3_sees_rho_wrong_on_one_monomial(monkeypatch, exps, failure):
    """A3 alone fails, naming its first broken identity, when rho_1 of
    affine_hecke is wrong on one two-slot monomial (1 is added to it)."""
    wrong = _one_monomial_wrong(TensorPoly.twisted_demazure, 2, exps,
                                lambda p: unit_poly(p, 2))
    monkeypatch.setattr(TensorPoly, "twisted_demazure", wrong)
    rep = validate_pqwp(preset("affine_hecke"), 2)
    assert {e["rule"]: e["witness"] for e in rep.failures()} == {"A3": failure}


def _pbw_calls_per_rule(monkeypatch, params, degree):
    """Calls of sigma_i, rho_i and the product, per PBW rule, in one report
    that passes.  A first report fills the pack's tables of two-slot
    images, which are not the rules' own work."""
    verify_pbw_conditions(params, degree)
    calls = {}
    rule = [None]
    true_timed = ValidationReport.timed

    def timed(self, rule_name, thunk):
        rule[0] = rule_name
        return true_timed(self, rule_name, thunk)
    monkeypatch.setattr(ValidationReport, "timed", timed)
    for method in ("place_permute_simple", "twisted_demazure", "__mul__"):
        true = getattr(TensorPoly, method)

        def counted(self, arg, true=true, method=method):
            key = (rule[0], method)
            calls[key] = calls.get(key, 0) + 1
            return true(self, arg)
        monkeypatch.setattr(TensorPoly, method, counted)
    assert verify_pbw_conditions(params, degree).passed
    return calls


def _family(params, d, degree):
    return [monomial(params, d, fkey, exps)
            for fkey in iproduct(range(params.algebra.dim), repeat=d)
            for exps in iproduct(range(degree + 1), repeat=d)]


COUNTED_PACKS = (("affine_hecke", 2), ("pro_p", 1), ("wreath_s3", 1))


def _counted_pack(name):
    return load_preset_file(WREATH_S3) if name == "wreath_s3" else preset(name)


@pytest.mark.parametrize("name, degree", COUNTED_PACKS)
def test_pbw_p2_checks_every_pair_with_one_image_per_product(monkeypatch, name, degree):
    """P2 forms four products for each of the |family|^2 pairs (so checks
    every pair), and computes sigma_1 and rho_1 once for each distinct value
    among the members and the products a*b.  The family holds 1, so every
    member is also a product: 25, 36 and 324 values on these packs."""
    params = _counted_pack(name)
    fam = _family(params, 2, degree)
    values = {frozenset(f.terms.items()) for f in fam}
    values |= {frozenset((a * b).terms.items()) for a in fam for b in fam}
    calls = _pbw_calls_per_rule(monkeypatch, params, degree)
    assert calls[("P2", "__mul__")] == 4 * len(fam) ** 2
    assert calls[("P2", "twisted_demazure")] == len(values)
    assert calls[("P2", "place_permute_simple")] == len(values)


@pytest.mark.parametrize("name, degree", COUNTED_PACKS)
def test_pbw_three_slot_rules_compute_each_image_once(monkeypatch, name, degree):
    """P5-P7 compute no more sigma_i and rho_i images than computing each
    member's own images once and every composite image afresh would:
    - P5: sigma_1, sigma_2, rho_1 and rho_2 of each member, and
      sigma_j(sigma_i(rho_j f)) for both orders: 6 sigmas and 2 rhos;
    - P6: 3 sigmas and 3 rhos per order: 6 and 6 per member.
    P7 computes no sigma and at most rho_1(rho_2(rho_1 f)) and
    rho_2(rho_1(rho_2 f)) per member, where afresh it would take 2 sigmas
    and 4 rhos: P5 and P6 computed every other image it needs."""
    params = _counted_pack(name)
    n = len(_family(params, 3, degree))
    calls = _pbw_calls_per_rule(monkeypatch, params, degree)
    bounds = {("P5", "place_permute_simple"): 6 * n, ("P5", "twisted_demazure"): 2 * n,
              ("P6", "place_permute_simple"): 6 * n, ("P6", "twisted_demazure"): 6 * n,
              ("P7", "place_permute_simple"): 0, ("P7", "twisted_demazure"): 2 * n}
    for key, bound in bounds.items():
        assert calls.get(key, 0) <= bound, key


def test_zero_divisor_is_reported():
    # beta = c⊗c with alpha = 0 makes P = c1*c2, annihilated by c in one slot
    alg = dual_numbers()
    cc = FTensor.basis(alg, (1, 1))
    params = PqwpParams(alg, "polynomial", {(0, 0): cc}, FTensor(alg, 2),
                        name="cc_test")
    rep = validate_pqwp(params, degree_bound=2)
    entries = {e["rule"]: e for e in rep.entries}
    assert entries["A2"]["status"] == "pass"
    assert entries["C3"]["status"] == "fail"
    assert "annihilator" in entries["C3"]["witness"]


def test_report_json_shape():
    rep = validate_pqwp(preset("degenerate"), degree_bound=2)
    payload = json.loads(rep.to_json())
    assert payload["passed"] is True
    rules = [row["rule"] for row in payload["results"]]
    assert rules == ["A1", "A2", "A3", "C1", "C2", "C3"]
    assert all("millis" in row for row in payload["results"])


def test_noncommutative_centrality_detection():
    # upper triangular 2x2 matrices with basis {1, n, p} where n = E01 and
    # p = E11, so n*p = n, p*n = 0, n*n = 0, p*p = p
    field = Field.rationals()
    one = field.one()
    table = [
        [((0, one),), ((1, one),), ((2, one),)],
        [((1, one),), (), ((1, one),)],
        [((2, one),), (), ((2, one),)],
    ]
    alg = FAlgebra(field, ("1", "n", "p"), table)
    n1 = FTensor.basis(alg, (1, 0))
    assert not n1.is_central()
    assert FTensor.unit(alg, 2).is_central()
    np_prod = n1 * FTensor.basis(alg, (2, 0))
    pn_prod = FTensor.basis(alg, (2, 0)) * n1
    assert np_prod == n1
    assert not pn_prod


def test_preset_file_roundtrip_json(tmp_path):
    data = {
        "name": "hecke_from_file",
        "variant": "laurent",
        "field": {"kind": "ratfun", "params": ["q"]},
        "algebra": {"kind": "ground"},
        "delta": {"10": [[["1", "1"], "q-1"]]},
        "alpha": [[["1", "1"], "1"]],
        "r": [[["1", "1"], "q"]],
    }
    path = tmp_path / "hecke.json"
    path.write_text(json.dumps(data))
    params = load_preset_file(str(path))
    assert params.name == "hecke_from_file"
    assert params.variant == "laurent"
    rep = validate_pqwp(params, degree_bound=2)
    assert rep.passed, str(rep)
    ref = preset("affine_hecke")
    assert params.s_elt.terms == ref.s_elt.terms


def test_preset_file_roundtrip_toml(tmp_path):
    text = "\n".join([
        'name = "zigzag_from_file"',
        'variant = "laurent"',
        'alpha = [[["1", "1"], "1"]]',
        '[field]',
        'kind = "rational"',
        '[algebra]',
        'kind = "truncated"',
        'gen = "c"',
        'power = 2',
        '[delta]',
        '"00" = [[["c", "1"], "1"], [["1", "c"], "1"]]',
    ])
    path = tmp_path / "zigzag.toml"
    path.write_text(text)
    params = load_preset_file(str(path))
    ref = preset("zigzag_a1")
    assert params.deltas[(0, 0)].terms == ref.deltas[(0, 0)].terms
    assert validate_pqwp(params, degree_bound=2).passed


def test_preset_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variant": "sideways"}')
    with pytest.raises(InvalidConfig):
        load_preset_file(str(bad))
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    with pytest.raises(InvalidConfig):
        load_preset_file(str(garbled))
    zero_divisor = tmp_path / "zero_divisor.json"
    zero_divisor.write_text('{"alpha": [[["1", "1"], "1/0"]]}')
    with pytest.raises(InvalidConfig, match="'1/0'"):
        load_preset_file(str(zero_divisor))
    zero_mod_p = tmp_path / "zero_mod_p.json"
    zero_mod_p.write_text('{"field": {"kind": "prime", "p": 5}, '
                          '"alpha": [[["1", "1"], "1/5"]]}')
    with pytest.raises(InvalidConfig, match="'1/5'"):
        load_preset_file(str(zero_mod_p))
    cancelling = tmp_path / "cancelling.json"
    cancelling.write_text('{"field": {"kind": "rational"}, '
                          '"alpha": [[["1", "1"], "q/q"]]}')
    with pytest.raises(InvalidConfig, match="formal parameters"):
        load_preset_file(str(cancelling))
    named = tmp_path / "named.json"
    named.write_text('{"preset": "nil"}')
    assert load_preset_file(str(named)) is preset("nil")


def test_preset_file_error_quotes_a_bounded_prefix(tmp_path):
    path = tmp_path / "long.toml"
    scalar = "-" * 50000 + "1"
    path.write_text(f'alpha = [[["1", "1"], "{scalar}"]]\n')
    with pytest.raises(InvalidConfig) as caught:
        load_preset_file(str(path))
    assert len(str(caught.value)) < 300
    assert repr(scalar[:60]) in str(caught.value)


LONG_TEXT = "ab" * 25000


@pytest.mark.parametrize("data", [
    {"alpha": [[[LONG_TEXT, "1"], "1"]]},
    {"delta": {LONG_TEXT: []}},
    {"field": {"kind": LONG_TEXT}},
    {"algebra": {"kind": LONG_TEXT}},
], ids=["label", "delta_key", "field_kind", "algebra_kind"])
def test_preset_file_errors_quote_a_bounded_prefix_of_each_text(data, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidConfig) as caught:
        load_preset_file(str(path))
    assert len(str(caught.value)) < 300
    assert repr(LONG_TEXT[:60]) in str(caught.value)


@pytest.mark.parametrize("text", ['"preset"', '[1, 2]', '{"preset": 5}', '{"preset": ["nil"]}'])
def test_preset_file_of_the_wrong_shape(text, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(text)
    with pytest.raises((InvalidConfig, PresetNotFound)):
        load_preset_file(str(path))


def test_preset_file_rejects_parameters_over_the_rationals(tmp_path):
    data = {
        "name": "hecke_over_q",
        "variant": "laurent",
        "field": {"kind": "rational"},
        "algebra": {"kind": "ground"},
        "delta": {"10": [[["1", "1"], "q"]]},
        "alpha": [[["1", "1"], "1"]],
    }
    path = tmp_path / "hecke_over_q.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidConfig):
        load_preset_file(str(path))


def test_c1_skips_when_no_r_is_stated(tmp_path):
    data = {
        "name": "zigzag_without_r",
        "variant": "laurent",
        "algebra": {"kind": "truncated", "gen": "c", "power": 2},
        "delta": {"00": [[["c", "1"], "1"], [["1", "c"], "1"]]},
        "alpha": [[["1", "1"], "1"]],
    }
    path = tmp_path / "no_r.json"
    path.write_text(json.dumps(data))
    rep = validate_pqwp(load_preset_file(str(path)), degree_bound=1)
    status = {e["rule"]: e["status"] for e in rep.entries}
    assert status["C1"] == "skip"
    assert rep.passed
    stated = validate_pqwp(preset("zigzag_a1"), degree_bound=1)
    assert {e["rule"]: e["status"] for e in stated.entries}["C1"] == "pass"
