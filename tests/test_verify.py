"""Checkers and oracles, including the mandatory negative controls."""

import json
import random

import pytest

from recseq import (
    QQ,
    ZZ,
    LinRec,
    NotInvertible,
    Poly,
    RingMismatch,
    Zmod,
    delta,
    hurwitz,
    newton,
    ones,
)
from recseq import verify
from recseq.verify import (
    CheckReport,
    charpoly_cofactor,
    decomposition_check,
    direct_product_oracle,
    inverse_check,
    morphism_check,
    morphism_laws,
    ogf_poly_check,
    satisfies_recurrence,
)

from conftest import geometric, int_values

MOD = Zmod(10007)


ZERO = Poly(ZZ, [])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: satisfies_recurrence([ZZ.one], ZERO), ValueError, "the zero polynomial defines no recurrence"),
        (lambda: direct_product_oracle("sum", [], []), ValueError, "oracle inputs must be non-empty"),
        (lambda: direct_product_oracle("sum", [ZZ.one, QQ.one], [ZZ.one] * 2), RingMismatch,
         "mixed rings in oracle input"),
        (lambda: ogf_poly_check(ones(ZZ), extra=0), ValueError, "extra must be >= 1"),
        (lambda: ogf_poly_check([ZZ.one] * 3, p=Poly.from_ints(ZZ, [-1, 1])), ValueError, "need 52 terms, got 3"),
        (lambda: ogf_poly_check([ZZ.one] * 3, extra=1, p=ZERO), ValueError,
         "the zero polynomial is not a characteristic polynomial"),
        (lambda: morphism_check("psi", [(ones(ZZ), ones(ZZ))], 0), ValueError, "prefix must be >= 1"),
        (lambda: morphism_check("psi", [], 5), ValueError, "need at least one pair"),
        (lambda: inverse_check(ones(QQ), 0), ValueError, "term count must be >= 1"),
    ],
    ids=[
        "recurrence-zero-poly", "oracle-empty", "oracle-mixed-rings", "ogf-extra-0", "ogf-too-few-terms",
        "ogf-zero-poly", "morphism-prefix-0", "morphism-no-pairs", "inverse-k-0",
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


class TestSatisfiesRecurrence:
    def test_fibonacci_passes(self, fib_z):
        report = satisfies_recurrence(fib_z.terms(30), fib_z.charpoly)
        assert report.passed
        assert report.first_failure is None

    def test_wrong_declaration_fails_with_witness(self):
        terms = [ZZ.from_int(v) for v in (1, 2, 4, 8)]
        report = satisfies_recurrence(terms, Poly.from_ints(ZZ, [-3, 1]))
        assert not report.passed
        index, expected, actual = report.first_failure
        assert index == 1
        assert expected.value == 3
        assert actual.value == 2

    def test_prefix_too_short_rejected(self, fib_z):
        with pytest.raises(ValueError):
            satisfies_recurrence(fib_z.terms(1), fib_z.charpoly)

    def test_hurwitz_product_recurs_with_composed_sum(self):
        rng = random.Random(41)
        for _ in range(5):
            a = LinRec(
                Poly(MOD, [MOD.from_int(rng.randrange(10007)) for _ in range(2)] + [MOD.one]),
                [MOD.from_int(rng.randrange(10007)) for _ in range(2)],
            )
            h = hurwitz(a, a)
            report = satisfies_recurrence(h.terms(h.order + 20), h.charpoly)
            assert report.passed


class TestDirectProductOracle:
    def test_newton_on_all_ones(self):
        xs = [ZZ.one] * 4
        assert int_values(direct_product_oracle("newton", xs, xs)) == [1, 3, 9, 27]

    def test_cauchy_with_impulse(self, fib_z):
        xs = delta(ZZ).terms(10)
        ys = fib_z.terms(10)
        assert direct_product_oracle("cauchy", xs, ys) == ys

    def test_sum_and_hadamard(self):
        xs = [ZZ.from_int(v) for v in (1, 2, 3)]
        ys = [ZZ.from_int(v) for v in (4, 5, 6)]
        assert int_values(direct_product_oracle("sum", xs, ys)) == [5, 7, 9]
        assert int_values(direct_product_oracle("hadamard", xs, ys)) == [4, 10, 18]

    def test_cross_checks_the_library_hurwitz(self):
        rng = random.Random(43)
        for _ in range(5):
            a = LinRec(
                Poly(MOD, [MOD.from_int(rng.randrange(10007)) for _ in range(3)] + [MOD.one]),
                [MOD.from_int(rng.randrange(10007)) for _ in range(3)],
            )
            b = LinRec(
                Poly(MOD, [MOD.from_int(rng.randrange(10007)) for _ in range(2)] + [MOD.one]),
                [MOD.from_int(rng.randrange(10007)) for _ in range(2)],
            )
            assert direct_product_oracle("hurwitz", a.terms(25), b.terms(25)) == hurwitz(a, b).terms(25)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            direct_product_oracle("frobnicate", [ZZ.one], [ZZ.one])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            direct_product_oracle("sum", [ZZ.one], [ZZ.one, ZZ.one])

    def test_ring_mismatch_rejected(self):
        with pytest.raises(RingMismatch):
            direct_product_oracle("sum", [ZZ.one], [QQ.one])


class TestOgfCheck:
    def test_fibonacci_passes(self, fib_z):
        report = ogf_poly_check(fib_z, extra=50)
        assert report.passed

    def test_non_solution_fails(self):
        # 1,1,2,4,8,... does not recur with t^2 - t - 1
        terms = [ZZ.from_int(v) for v in [1, 1, 2, 4, 8] + [2 ** k for k in range(3, 60)]]
        report = ogf_poly_check(terms, extra=10, p=Poly.from_ints(ZZ, [-1, -1, 1]))
        assert not report.passed

    def test_product_outputs_pass(self, fib_z):
        h = newton(fib_z, geometric(ZZ, 2))
        assert ogf_poly_check(h, extra=50).passed

    def test_raw_terms_need_a_polynomial(self):
        with pytest.raises(ValueError):
            ogf_poly_check([ZZ.one] * 60)


class TestMorphismCheck:
    def test_psi_passes_on_random_pairs(self):
        rng = random.Random(47)
        pairs = []
        for _ in range(6):
            a = LinRec(
                Poly(MOD, [MOD.from_int(rng.randrange(10007)) for _ in range(2)] + [MOD.one]),
                [MOD.from_int(rng.randrange(10007)) for _ in range(2)],
            )
            b = LinRec(
                Poly(MOD, [MOD.from_int(rng.randrange(10007))] + [MOD.one]),
                [MOD.from_int(rng.randrange(10007))],
            )
            pairs.append((a, b))
        assert morphism_check("psi", pairs, 25).passed
        assert morphism_check("psi-inverse", pairs, 25).passed

    def test_impulse_pair_passes(self):
        assert morphism_check("psi", [(delta(QQ), delta(QQ))], 20).passed

    def test_corrupted_map_fails(self):
        # mapping through the all-ones convolution is psi-inverse, so testing
        # it against the psi laws must fail
        mate = [QQ.one] * 20

        def bad_map(ts):
            return direct_product_oracle("hurwitz", ts, mate)

        report = morphism_laws(bad_map, "hadamard", "newton", [(ones(QQ), ones(QQ))], 20, "corrupted")
        assert not report.passed

    def test_unknown_map_rejected(self):
        with pytest.raises(ValueError):
            morphism_check("sigma", [(ones(QQ), ones(QQ))], 10)


class TestDecompositionCheck:
    def test_fibonacci_over_q_passes(self):
        fib_q = LinRec(Poly.from_ints(QQ, [-1, -1, 1]), [QQ.zero, QQ.one])
        report = decomposition_check(fib_q, ones(QQ), 30)
        assert report.passed
        assert report.to_text() == "check newton-decomposition: PASS (prefix=30)"

    def test_corrupted_product_fails(self, monkeypatch):
        # the Hurwitz product of 1, 1, 1, ... with itself is 2^n, the Newton
        # product 3^n: the decomposition's 3 is expected, the 2 is actual
        monkeypatch.setattr(verify, "newton", hurwitz)
        report = decomposition_check(ones(ZZ), ones(ZZ), 10)
        assert not report.passed
        assert report.first_failure == (1, ZZ.from_int(3), ZZ.from_int(2))


class TestInverseCheck:
    def test_ones_over_q(self):
        assert inverse_check(ones(QQ), 20).passed

    def test_impulse(self):
        assert inverse_check(delta(QQ), 20).passed

    def test_ones_over_z_raises(self):
        with pytest.raises(NotInvertible) as exc:
            inverse_check(ones(ZZ), 20)
        assert exc.value.index == 1

    def test_random_modular_sequences(self):
        rng = random.Random(53)
        checked = 0
        while checked < 5:
            a = LinRec(
                Poly(MOD, [MOD.from_int(rng.randrange(10007)) for _ in range(2)] + [MOD.one]),
                [MOD.from_int(rng.randrange(10007)) for _ in range(2)],
            )
            try:
                report = inverse_check(a, 15)
            except NotInvertible:
                continue
            assert report.passed
            checked += 1


class TestCofactorOracle:
    def test_known_two_by_two(self, fib_z):
        from recseq.verify import companion

        assert charpoly_cofactor(companion(fib_z.charpoly)) == fib_z.charpoly

    def test_negative_control_detects_corruption(self):
        # perturbing one inverse term must break the product-with-inverse check
        a = ones(QQ)
        from recseq import newton_inverse

        b = newton_inverse(a, 10)
        b[3] = b[3] + QQ.one
        product = direct_product_oracle("newton", a.terms(10), b)
        assert product != delta(QQ).terms(10)


class TestCheckReport:
    def test_text_forms(self):
        ok = CheckReport("demo", True, 30)
        assert ok.to_text() == "check demo: PASS (prefix=30)"
        bad = CheckReport("demo", False, 30, (4, ZZ.one, ZZ.zero))
        assert "FAIL at index 4" in bad.to_text()

    def test_dict_form_is_json_safe_and_stringly_numeric(self):
        report = CheckReport("demo", False, 12, (3, ZZ.from_int(2 ** 70), ZZ.zero))
        payload = report.to_dict()
        encoded = json.dumps(payload, sort_keys=True)
        assert json.loads(encoded)["first_failure"]["expected"] == str(2 ** 70)
        assert payload["checked_prefix"] == "12"

    def test_passed_iff_no_failure(self):
        assert CheckReport("x", True, 1).first_failure is None
        assert not CheckReport("x", False, 1, (0, ZZ.one, ZZ.zero)).passed
