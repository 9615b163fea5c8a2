"""Checkers and oracles, including the mandatory negative controls."""

import ast
import json
import random
from pathlib import Path

import pytest

from recseq import (
    QQ,
    ZZ,
    LinRec,
    NotInvertible,
    NotMonic,
    Poly,
    RingMismatch,
    Zmod,
    cauchy,
    composed_sum,
    delta,
    hadamard,
    hurwitz,
    newton,
    newton_inverse,
    newton_via_decomposition,
    ones,
    seq_sum,
)
from recseq import matrix_oracles, verify
from recseq.matrix_oracles import charpoly_cofactor, companion
from recseq.verify import (
    CheckReport,
    decomposition_check,
    direct_product_oracle,
    inverse_check,
    morphism_check,
    morphism_laws,
    ogf_poly_check,
    product_check,
    satisfies_recurrence,
)

from conftest import geometric, int_values, random_linrec

MOD = Zmod(10007)


ZERO = Poly(ZZ, [])
OUTSIDE_Z = "terms outside Z, the ring of the polynomial"
Z_AND_Q = "cannot combine sequences over Z and Q"


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
        (lambda: satisfies_recurrence([ZZ.one] * 3, Poly.from_ints(ZZ, [-2, 2])), NotMonic,
         "expected a monic polynomial, got [-2,2]"),
        # the polynomial first, then the terms' ring, before any term is compared
        (lambda: satisfies_recurrence([QQ.zero] * 2, Poly(ZZ, [ZZ.one])), RingMismatch, OUTSIDE_Z),
        (lambda: satisfies_recurrence([1, 1], Poly.from_ints(ZZ, [-1, 1])), RingMismatch, OUTSIDE_Z),
        (lambda: ogf_poly_check([ZZ.one] * 2, extra=5, p=ZERO), ValueError,
         "the zero polynomial is not a characteristic polynomial"),
        (lambda: ogf_poly_check([QQ.one] * 3, extra=1, p=Poly.from_ints(ZZ, [-1, 1])), RingMismatch, OUTSIDE_Z),
        (lambda: ogf_poly_check(ones(QQ), p=Poly.from_ints(ZZ, [-1, 1])), RingMismatch, OUTSIDE_Z),
        # a prefix of deg p terms tests no index
        (lambda: satisfies_recurrence([ZZ.one], Poly.from_ints(ZZ, [-2, 1])), ValueError,
         "need at least 2 terms, got 1"),
        (lambda: satisfies_recurrence([], Poly(ZZ, [ZZ.one])), ValueError, "need at least 1 term, got 0"),
        # sequences over two rings, with the words of the products themselves
        (lambda: morphism_check("psi", [(ones(ZZ), ones(QQ))], 5), RingMismatch, Z_AND_Q),
        (lambda: product_check("sum", ones(ZZ), ones(ZZ), ones(QQ)), RingMismatch, Z_AND_Q),
        (lambda: product_check("frobnicate", ones(ZZ), ones(ZZ), ones(ZZ)), ValueError,
         "unknown product kind 'frobnicate'"),
    ],
    ids=[
        "recurrence-zero-poly", "oracle-empty", "oracle-mixed-rings", "ogf-extra-0", "ogf-too-few-terms",
        "ogf-zero-poly", "morphism-prefix-0", "morphism-no-pairs", "inverse-k-0", "recurrence-not-monic",
        "recurrence-ring-at-degree-0", "recurrence-raw-int", "ogf-zero-poly-before-length", "ogf-raw-ring",
        "ogf-linrec-ring", "recurrence-no-index", "recurrence-no-index-at-degree-0", "morphism-mixed-rings",
        "product-mixed-rings", "product-unknown-kind",
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
            assert h.charpoly == composed_sum(a.charpoly, a.charpoly)
            assert product_check("hurwitz", a, a, h).passed
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

    def test_non_solution_reports_its_first_nonzero_coefficient(self):
        terms = [ZZ.from_int(v) for v in [1, 1, 2, 4, 8] + [2 ** k for k in range(3, 60)]]
        report = ogf_poly_check(terms, extra=10, p=Poly.from_ints(ZZ, [-1, -1, 1]))
        assert report.first_failure == (3, ZZ.zero, ZZ.one)

    @pytest.mark.parametrize(
        "values, text",
        [
            ([1] * 12, "check ogf: PASS (prefix=12)"),
            ([2 ** n for n in range(12)], "check ogf: FAIL at index 1: expected 0, got 2 (prefix=12)"),
        ],
        ids=["ones", "powers-of-2"],
    )
    def test_takes_a_polynomial_that_is_not_monic(self, values, text):
        # 2t - 2 annihilates 1, 1, 1, ... (2a_n = 2a_(n-1)), and not 2^n
        report = ogf_poly_check([ZZ.from_int(v) for v in values], extra=10, p=Poly.from_ints(ZZ, [-2, 2]))
        assert report.to_text() == text

    def test_refuses_its_inputs_before_unrolling(self, unroll_budget):
        unroll_budget.reset(0)
        with pytest.raises(ValueError, match="^the zero polynomial is not a characteristic polynomial$"):
            ogf_poly_check(ones(ZZ), extra=200000, p=ZERO)
        with pytest.raises(RingMismatch, match=f"^{OUTSIDE_Z}$"):
            ogf_poly_check(ones(QQ), extra=200000, p=Poly.from_ints(ZZ, [-1, 1]))
        assert unroll_budget.produced == []

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

    @pytest.mark.parametrize(
        "squared, failure",
        [(5, (1, 2, 1)), (1, (1, 2, 4))],
        ids=["multiplicative-at-1-before-additive-at-5", "additive-before-multiplicative-at-1"],
    )
    def test_laws_interleave_by_index(self, squared, failure):
        # the identity, but for one squared term: it breaks the additive law
        # at that index, and the multiplicative law (Hadamard to Newton)
        # from index 1 on
        fib_q = LinRec(Poly.from_ints(QQ, [-1, -1, 1]), [QQ.zero, QQ.one])

        def square_one(ts):
            ts = list(ts)
            ts[squared] = ts[squared] * ts[squared]
            return ts

        report = morphism_laws(square_one, "hadamard", "newton", [(fib_q, ones(QQ))], 12, "square")
        index, expected, actual = failure
        assert report.first_failure == (index, QQ.from_int(expected), QQ.from_int(actual))

    def test_unknown_map_rejected(self):
        with pytest.raises(ValueError):
            morphism_check("sigma", [(ones(QQ), ones(QQ))], 10)


def _impulse(ring, n):
    # 1 at index n and 0 elsewhere: the charpoly t^(n+1)
    return LinRec(Poly(ring, [ring.zero] * (n + 1) + [ring.one]), [ring.zero] * n + [ring.one])


class TestProductCheck:
    PRODUCTS = {"sum": seq_sum, "hadamard": hadamard, "cauchy": cauchy, "hurwitz": hurwitz, "newton": newton}

    @pytest.mark.parametrize("kind, prefix", [("sum", 10), ("hadamard", 12), ("cauchy", 10), ("hurwitz", 12),
                                              ("newton", 12)])
    def test_reads_order_plus_d_terms_of_each_product(self, kind, prefix):
        # orders 2 and 3: c.order = D = 5 for sum and Cauchy, 6 for the others
        rng = random.Random(59)
        a, b = random_linrec(rng, MOD, 2), random_linrec(rng, MOD, 3)
        report = product_check(kind, a, b, self.PRODUCTS[kind](a, b))
        assert report.to_text() == f"check product-{kind}: PASS (prefix={prefix})"

    def test_decides_where_d_plus_20_terms_do_not(self):
        # the product plus an impulse at D + 20 = 29: its first 29 terms are
        # the product's, and it recurs with a polynomial of degree 39, so the
        # check reads 39 + 9 terms
        rng = random.Random(61)
        a, b = random_linrec(rng, ZZ, 3), random_linrec(rng, ZZ, 3)
        c = seq_sum(hadamard(a, b), _impulse(ZZ, 29))
        assert c.terms(29) == direct_product_oracle("hadamard", a.terms(29), b.terms(29))
        report = product_check("hadamard", a, b, c)
        index, expected, actual = report.first_failure
        assert (index, actual - expected, report.checked_prefix) == (29, ZZ.one, 48)

    @pytest.mark.parametrize("ring", [ZZ, MOD], ids=str)
    def test_newton_fails_where_the_double_sum_does(self, ring):
        # psi^-1 is unitriangular: the images first differ at the first
        # differing term, and the report names the terms themselves
        rng = random.Random(67)
        a, b = random_linrec(rng, ring, 2), random_linrec(rng, ring, 3)
        c = seq_sum(newton(a, b), _impulse(ring, 8))
        report = product_check("newton", a, b, c)
        k = report.checked_prefix
        direct = direct_product_oracle("newton", a.terms(k), b.terms(k))
        first = next((n, e, x) for n, (e, x) in enumerate(zip(direct, c.terms(k))) if e != x)
        assert report.first_failure == first
        assert (first[0], k) == (8, 15 + 6)

    def test_refuses_its_inputs_before_unrolling(self, unroll_budget):
        unroll_budget.reset(0)
        with pytest.raises(ValueError, match="^unknown product kind 'frobnicate'$"):
            product_check("frobnicate", ones(ZZ), ones(ZZ), ones(ZZ))
        for call in (lambda: product_check("newton", ones(ZZ), ones(ZZ), ones(QQ)),
                     lambda: morphism_check("psi-inverse", [(ones(ZZ), ones(ZZ)), (ones(ZZ), ones(QQ))], 200000)):
            with pytest.raises(RingMismatch, match=f"^{Z_AND_Q}$"):
                call()
        assert unroll_budget.produced == []


class TestDecompositionCheck:
    def test_fibonacci_over_q_passes(self):
        fib_q = LinRec(Poly.from_ints(QQ, [-1, -1, 1]), [QQ.zero, QQ.one])
        report = decomposition_check(fib_q, ones(QQ))
        assert report.passed
        assert report.to_text() == "check newton-decomposition: PASS (prefix=4)"

    def test_corrupted_product_fails(self, monkeypatch):
        # the Hurwitz product of 1, 1, 1, ... with itself is 2^n, the Newton
        # product 3^n: the true Newton term 3 is expected, the
        # decomposition's 2 is actual
        monkeypatch.setattr(verify, "newton_via_decomposition", hurwitz)
        report = decomposition_check(ones(ZZ), ones(ZZ))
        assert not report.passed
        assert report.first_failure == (1, ZZ.from_int(3), ZZ.from_int(2))

    def test_impulse_past_thirty_terms_fails_there(self, monkeypatch):
        # the decomposition plus 1 at index 40 alone, which a 30-term prefix
        # never reads: the sum's order is 2 + 41 and D = 2, so the check
        # reads 45 terms and fails at 40, on the true term plus 1
        fib_q = LinRec(Poly.from_ints(QQ, [-1, -1, 1]), [QQ.zero, QQ.one])
        impulse = LinRec(Poly.from_ints(QQ, [0] * 41 + [1]), [QQ.zero] * 40 + [QQ.one])
        monkeypatch.setattr(
            verify, "newton_via_decomposition", lambda a, b: seq_sum(newton_via_decomposition(a, b), impulse)
        )
        report = decomposition_check(fib_q, ones(QQ))
        true = direct_product_oracle("newton", fib_q.terms(41), ones(QQ).terms(41))[40]
        assert report.first_failure == (40, true, true + QQ.one)
        assert report.checked_prefix == 45


PINNED_INVERSE_TEXTS = {
    QQ: "check newton-inverse: FAIL at index 3: expected -1/8, got 7/8 (prefix=10)",
    MOD: "check newton-inverse: FAIL at index 3: expected 8756, got 8757 (prefix=10)",
}


def _wrong_inverse_rows():
    # a = base^n, whose psi^-1 (base + 1)^n is all units, with its inverse's
    # term t corrupted; the two rows that pin a text keep their former ids
    for ring, base in [(QQ, 1), (MOD, 1), (Zmod(12), 4), (Zmod(2**61 - 1), 2)]:
        for t in (0, 3, 9):
            text = PINNED_INVERSE_TEXTS.get(ring) if t == 3 else None
            yield pytest.param(ring, base, t, text, id=str(ring) if text else f"{ring}-t{t}")


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

    def test_an_inverse_claimed_where_none_exists_raises(self, monkeypatch):
        # psi^-1 of 1, 1, 1, ... over Z is 2^n, no unit at index 1; the impulse
        # claimed as its inverse has the units 1, 1, 1, ... as its image
        monkeypatch.setattr(verify, "newton_inverse", lambda a, k: delta(ZZ).terms(k))
        with pytest.raises(NotInvertible) as exc:
            inverse_check(ones(ZZ), 10)
        assert (exc.value.index, exc.value.value) == (1, ZZ.from_int(2))

    @pytest.mark.parametrize("ring, base, t, text", list(_wrong_inverse_rows()))
    def test_wrong_formula_term_fails(self, monkeypatch, ring, base, t, text):
        # the formula's term t one too high: the true inverse's term is expected
        # and the formula's actual.  The true inverse is the library's, decided
        # here by the direct O(k^3) Newton product with a
        a, k = geometric(ring, base), 10
        true = newton_inverse(a, k)
        assert direct_product_oracle("newton", a.terms(k), true) == delta(ring).terms(k)

        def off_by_one(a, k):
            terms = newton_inverse(a, k)
            terms[t] = terms[t] + a.ring.one
            return terms

        monkeypatch.setattr(verify, "newton_inverse", off_by_one)
        report = inverse_check(a, k)
        assert report.first_failure == (t, true[t], true[t] + ring.one)
        if text is not None:
            assert report.to_text() == text


class TestCofactorOracle:
    def test_known_two_by_two(self, fib_z):
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


@pytest.mark.parametrize("module", [verify, matrix_oracles], ids=["verify", "matrix_oracles"])
def test_oracles_import_no_fast_path(module):
    # the oracles share no loop with recseq.kernels: no import of it, and
    # no private name of linrec or polymat but the operand check
    path = Path(module.__file__)
    allowed = {"_require_charpoly_operand"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("recseq.kernels")]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [alias.name for alias in node.names]
            if module in (".kernels", "recseq.kernels") or (module in (".", "recseq") and "kernels" in names):
                found.append((node.lineno, module))
            elif module in (".linrec", ".polymat", "recseq.linrec", "recseq.polymat"):
                private = [name for name in names if name.startswith("_") and name not in allowed]
                found += [(node.lineno, f"{module}.{name}") for name in private]
    assert not found, "\n".join(f"{path.name}:{line}: imports {name}" for line, name in found)
