"""Formula parsing and round-tripping."""

import pytest

from ordshift.design import Term
from ordshift.exceptions import FormulaError
from ordshift.formula import FormulaSpec, parse_formula


class TestParse:
    def test_two_sided(self):
        spec = parse_formula("safety ~ Age + Gender | Age")
        assert spec.response == "safety"
        assert spec.location == (Term("Age"), Term("Gender"))
        assert spec.dispersion == (Term("Age"),)

    def test_smooth_terms_both_sides(self):
        spec = parse_formula("y ~ s(age) + gender | s(age)")
        assert spec.location == (Term("age", smooth=True), Term("gender"))
        assert spec.dispersion == (Term("age", smooth=True),)

    def test_smooth_with_basis_count(self):
        spec = parse_formula("y ~ s(age, 4) | z")
        assert spec.location == (Term("age", smooth=True, n_basis=4),)

    def test_whitespace_insensitive(self):
        a = parse_formula("y~x1+x2|z1")
        b = parse_formula("  y ~  x1 +x2 |   z1 ")
        assert a == b

    def test_empty_dispersion_side_means_global(self):
        spec = parse_formula("y ~ x1 + x2")
        assert spec.dispersion == ()

    def test_missing_tilde(self):
        with pytest.raises(FormulaError):
            parse_formula("y x1 + x2")

    def test_double_tilde(self):
        with pytest.raises(FormulaError):
            parse_formula("y ~ x ~ z")

    def test_double_bar(self):
        with pytest.raises(FormulaError) as err:
            parse_formula("y ~ x | z | w")
        assert err.value.position == 10

    def test_empty_response(self):
        with pytest.raises(FormulaError):
            parse_formula(" ~ x")

    def test_malformed_smooth(self):
        for text in ("y ~ s()", "y ~ s(age", "y ~ s(age,)", "y ~ s(a b)"):
            with pytest.raises(FormulaError):
                parse_formula(text)

    def test_empty_term(self):
        with pytest.raises(FormulaError):
            parse_formula("y ~ x + | z")

    def test_position_reported(self):
        with pytest.raises(FormulaError) as err:
            parse_formula("y ~ x + 1bad")
        assert err.value.position == 8

    @pytest.mark.parametrize("text, term, position", [
        ("y ~ y | age", "y", 4),
        ("y ~ age | age + s(y)", "s(y)", 16),
        ("y ~ age +  s( y , 4)", "s( y , 4)", 11),
    ])
    def test_response_as_a_term_rejected_at_its_position(self, text, term, position):
        with pytest.raises(FormulaError) as err:
            parse_formula(text)
        assert err.value.position == position
        assert str(err.value) == f"term {term!r} names the response 'y' (position {position})"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "y ~ x1 + x2 | z1",
            "safety ~ Age + Gender + Residence | Age + Gender",
            "y ~ s(age) + gender | s(age, 8)",
            "y ~ x1",
            "y ~ s(x, 5)",
        ],
    )
    def test_parse_print_parse(self, text):
        spec = parse_formula(text)
        assert parse_formula(str(spec)) == spec

    def test_str_format(self):
        spec = FormulaSpec(
            "y",
            (Term("a"), Term("b", smooth=True, n_basis=4)),
            (Term("c", smooth=True),),
        )
        assert str(spec) == "y ~ a + s(b, 4) | s(c)"
