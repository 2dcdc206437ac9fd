"""CSV ingestion and dataset validation."""

import importlib

import numpy as np
import pytest

from ordshift.data import OrdinalDataset, load_csv
from ordshift.design import ModelSpec, Term
from ordshift.exceptions import DataError
from ordshift.fit import fit
from ordshift.formula import parse_formula
from ordshift.links import Family


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


FORMULA = parse_formula("y ~ a + g | a")


class TestLoadCsv:
    def test_small_file_inferred_k(self, tmp_path):
        path = write(
            tmp_path,
            "y,a,g,extra\n1,0.5,m,9\n2,1.0,f,9\n3,1.5,m,9\n1,2.0,f,9\n2,2.5,m,9\n3,3.0,f,9\n",
        )
        data = load_csv(path, FORMULA)
        assert data.n == 6
        assert data.k == 3
        assert data.category_counts().tolist() == [2, 2, 2]
        assert "extra" not in data.columns
        assert data.columns["a"].dtype == float
        assert data.categorical_levels["g"] == ("m", "f")

    def test_more_categories_than_rows_names_the_largest_response(self, tmp_path):
        # k, the largest response, above the row count leaves a category
        # unobserved: an error before any count of k categories
        path = write(tmp_path, "y,a,g\n1,0.5,m\n100000,1.0,f\n")
        with pytest.raises(DataError) as error:
            load_csv(path, FORMULA)
        assert str(error.value) == ("column 'y' row 3: largest response 100000; "
                                    "k=100000 categories cannot all be observed in 2 rows")

    def test_zero_category_rejected(self, tmp_path):
        path = write(tmp_path, "y,a,g\n0,0.5,m\n2,1.0,f\n")
        with pytest.raises(DataError, match="1..2"):
            load_csv(path, FORMULA)

    def test_out_of_range_response_names_the_cell(self, tmp_path):
        path = write(tmp_path, "y,a,g\n1,0.5,m\n2,1.0,f\n5,1.5,m\n0,2.0,f\n")
        with pytest.raises(DataError, match=r"column 'y' row 5: response 0; .*1\.\.5$"):
            load_csv(path, FORMULA)

    def test_non_integer_response(self, tmp_path):
        path = write(tmp_path, "y,a,g\n1.5,0.5,m\n2,1.0,f\n")
        with pytest.raises(DataError, match="not an integer"):
            load_csv(path, FORMULA)

    def test_text_in_numeric_column(self, tmp_path):
        path = write(tmp_path, "y,a,g\n1,0.5,m\n2,oops,f\n3,1.0,m\n")
        with pytest.raises(DataError, match=r"'a' row 3.*'oops'"):
            load_csv(path, FORMULA)

    def test_mixed_column_names_its_first_text_cell(self, tmp_path):
        # a non-finite number before the text does not hide it, and text
        # before the numbers is named as well: the column is not categorical
        for cells, row, value in ((["nan", "1.0", "oops"], 4, "oops"),
                                  (["oops", "1.0", "no"], 2, "oops")):
            body = "".join(f"{y},{a},m\n" for y, a in zip((1, 2, 3), cells))
            path = write(tmp_path, "y,a,g\n" + body)
            message = f"column 'a' row {row}: could not parse '{value}' as a number"
            with pytest.raises(DataError) as error:
                load_csv(path, FORMULA)
            assert str(error.value) == message

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_numeric_cell(self, tmp_path, value):
        path = write(tmp_path, f"y,a,g\n1,0.5,m\n2,{value},f\n3,1.0,m\n")
        with pytest.raises(DataError, match=rf"'a' row 3: '{value}' is not a finite number"):
            load_csv(path, FORMULA)

    def test_missing_columns(self, tmp_path):
        path = write(tmp_path, "y,a\n1,0.5\n")
        with pytest.raises(DataError, match="missing columns.*g"):
            load_csv(path, FORMULA)

    def test_declared_categorical_numeric_codes(self, tmp_path):
        path = write(
            tmp_path, "y,a,g\n1,1,m\n2,2,f\n3,1,m\n1,3,f\n2,2,m\n3,1,f\n"
        )
        data = load_csv(path, FORMULA, categorical=("a",))
        assert data.categorical_levels["a"] == ("1", "2", "3")
        assert data.columns["a"].dtype == object

    def test_unknown_declared_categorical(self, tmp_path):
        path = write(tmp_path, "y,a,g\n1,1,m\n")
        with pytest.raises(DataError, match="nope"):
            load_csv(path, FORMULA, categorical=("nope",))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, FORMULA)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "y,a,g\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, FORMULA)

    def test_duplicate_header_names_both_positions(self, tmp_path):
        path = write(tmp_path, "y,x,g,x\n1,0.5,m,9\n2,1.0,f,8\n")
        with pytest.raises(DataError, match=r"column 'x' appears twice in the header, "
                                            r"at positions 2 and 4"):
            load_csv(path, parse_formula("y ~ x"))

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("y,a,g\n1,0.5,m\n2,1.0,f\n".encode("utf-8-sig"))
        data = load_csv(path, parse_formula("y ~ a"))
        assert data.y.tolist() == [1, 2]
        assert data.columns["a"].tolist() == [0.5, 1.0]

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "y,a,g\n1,0.5,m\n2,1.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path, FORMULA)

    def test_counts_logged(self, tmp_path, caplog):
        path = write(tmp_path, "y,a,g\n1,0.5,m\n2,1.0,f\n2,0.1,m\n")
        with caplog.at_level("INFO", logger="ordshift.data"):
            load_csv(path, FORMULA)
        assert "n=3" in caplog.text
        assert "category counts" in caplog.text


class TestOrdinalDataset:
    def test_category_range_validated(self):
        with pytest.raises(DataError):
            OrdinalDataset(y=np.array([0, 1, 2]), k=2, columns={})
        with pytest.raises(DataError):
            OrdinalDataset(y=np.array([1, 5]), k=4, columns={})

    def test_category_range_error_names_the_index(self):
        with pytest.raises(DataError, match=r"response index 2: value 7; .*1\.\.4$"):
            OrdinalDataset(y=np.array([1, 4, 7, 0]), k=4, columns={})

    def test_level_codes(self):
        g = np.array(["b", "a", "c", "a"], dtype=object)
        data = OrdinalDataset(y=[1, 2, 3, 1], k=3, columns={"g": g},
                              categorical_levels={"g": ("a", "b")})
        assert data.level_codes("g").tolist() == [1, 0, -1, 0]  # c is not a level

    def test_level_codes_computed_once_per_dataset(self, monkeypatch):
        # a reverse fit relabels the responses and expands g on both sides:
        # one coding of the column serves all of it
        data_module = importlib.import_module("ordshift.data")
        calls = []

        def counted(values, levels):
            calls.append(levels)
            return level_codes(values, levels)

        level_codes = data_module.level_codes
        monkeypatch.setattr(data_module, "level_codes", counted)
        rng = np.random.default_rng(6)
        g = rng.choice(np.array(["u", "v", "w"], dtype=object), size=90)
        y = np.concatenate([[1, 2, 3], rng.integers(1, 4, 87)])
        data = OrdinalDataset(y=y, k=3, columns={"g": g},
                              categorical_levels={"g": ("u", "v", "w")})
        spec = ModelSpec(Family("cumulative", reverse=True), "locshift", (Term("g"),), (Term("g"),))
        fit(spec, data)
        fit(spec.with_structure("global"), data)
        assert calls == [("u", "v", "w")]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            OrdinalDataset(y=np.array([], dtype=int), k=3, columns={})

    def test_column_length_checked(self):
        with pytest.raises(DataError):
            OrdinalDataset(y=np.array([1, 2]), k=2, columns={"a": np.zeros(3)})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_numeric_value_rejected(self, value):
        a = np.array([0.5, 1.0, value, 2.0])
        with pytest.raises(DataError, match=r"column 'a' index 2"):
            OrdinalDataset(y=np.array([1, 2, 1, 2]), k=2, columns={"a": a})

    def test_text_column_without_levels_rejected(self):
        g = np.array(["1.5", "2", "a", "b"], dtype=object)
        with pytest.raises(DataError, match=r"column 'g' index 2: value 'a' is not a number"):
            OrdinalDataset(y=np.array([1, 2, 1, 2]), k=2, columns={"g": g})

    def test_declared_levels_not_mutated(self):
        levels = {"g": ["a", "b"]}
        data = OrdinalDataset(
            y=np.array([1, 2, 1, 2]), k=2,
            columns={"g": np.array(list("abba"), dtype=object)}, categorical_levels=levels,
        )
        assert levels == {"g": ["a", "b"]}
        assert data.categorical_levels == {"g": ("a", "b")}

    def test_float_integers_accepted(self):
        data = OrdinalDataset(y=np.array([1.0, 2.0]), k=2, columns={})
        assert data.y.dtype.kind == "i"
