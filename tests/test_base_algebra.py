import json

import pytest

from qwreath.base_algebra import (
    ArityMismatch, FAlgebra, FTensor, InvalidConfig, PqwpParams, PresetNotFound,
    corrupted_beta_params, ftensor_mul, is_weak_frobenius, load_preset_file,
    preset, rebase_field, shipped_presets, two_frobs_commute_check,
    validate_pqwp, verify_pbw_conditions,
)
from qwreath.coeff_ring import Field


def dual_numbers():
    return FAlgebra.truncated(Field.rationals(), "c", 2)


def test_ftensor_componentwise_product():
    alg = dual_numbers()
    c1 = FTensor.basis(alg, (1, 0))
    c2 = FTensor.basis(alg, (0, 1))
    assert ftensor_mul(c1, c2) == FTensor.basis(alg, (1, 1))
    delta = c1 + c2
    # (c⊗1 + 1⊗c)^2 with c^2 = 0
    two_cc = FTensor.basis(alg, (1, 1)).scale(Field.rationals().from_int(2))
    assert delta * delta == two_cc
    one = FTensor.unit(alg, 2)
    for x in (c1, c2, delta, one):
        assert one * x == x
        assert x * one == x


def test_ftensor_arity_mismatch():
    alg = dual_numbers()
    with pytest.raises(ArityMismatch):
        ftensor_mul(FTensor.unit(alg, 2), FTensor.unit(alg, 3))
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
    moved = FTensor.basis(alg, (1, 0, 0)).place(w)
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
    assert zh.r_elt.is_zero()
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


@pytest.mark.parametrize("name", ["degenerate", "wreath", "affine_hecke", "zigzag_a1"])
def test_pbw_conditions_pass(name):
    rep = verify_pbw_conditions(preset(name), degree=2)
    assert rep.passed, str(rep)


def test_pbw_conditions_reject_mixed_beta():
    rep = verify_pbw_conditions(corrupted_beta_params(), degree=2)
    failed = {e["rule"] for e in rep.failures()}
    assert "P6" in failed and "P7" in failed
    for e in rep.failures():
        assert e["witness"]


def test_zero_divisor_is_reported():
    # beta = c⊗c with alpha = 0 makes P = c1*c2, annihilated by c in one slot
    alg = dual_numbers()
    cc = FTensor.basis(alg, (1, 1))
    params = PqwpParams(alg, "polynomial", {(0, 0): cc}, FTensor.zero(alg, 2),
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
    np_prod = ftensor_mul(n1, FTensor.basis(alg, (2, 0)))
    pn_prod = ftensor_mul(FTensor.basis(alg, (2, 0)), n1)
    assert np_prod == n1
    assert pn_prod.is_zero()


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
    named = tmp_path / "named.json"
    named.write_text('{"preset": "nil"}')
    assert load_preset_file(str(named)) is preset("nil")


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
