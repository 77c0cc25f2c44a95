"""The one serialization route: JSON round trips of the value objects and
the shape of the CSV view."""

import csv
import io
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_routes import csv_through_flatten

from adelic_zeta import records
from adelic_zeta.lfun import CoeffTable
from adelic_zeta.polya import PolyaSpectrum, ZeroEntry, ZeroList, build_spectrum
from adelic_zeta.theta import MAX_ARCH_DEGREE, AdelicTestFn, ArchTestFn, FiniteTestFn

coefficients = st.complex_numbers(allow_nan=False, allow_infinity=False)
scales = st.fractions(min_value=Fraction(1, 10**9), max_value=10**9)

test_fns = st.builds(
    lambda summands: AdelicTestFn(tuple(summands)),
    st.lists(
        st.tuples(
            st.builds(
                lambda ms, cs: FiniteTestFn(tuple(zip(cs, ms))),
                st.lists(scales, min_size=1, max_size=4, unique=True),
                st.lists(coefficients, min_size=4, max_size=4),
            ),
            st.builds(
                lambda cs: ArchTestFn(tuple(cs)),
                st.lists(coefficients, min_size=1, max_size=MAX_ARCH_DEGREE + 1),
            ),
        ),
        min_size=1,
        max_size=3,
    ),
)

zero_lists = st.builds(
    lambda kind, rhos, tols, mults: ZeroList(
        kind, tuple(ZeroEntry(r, t, m) for r, t, m in zip(sorted(rhos), tols, mults))
    ),
    st.sampled_from(("zeta", "delta")),
    st.lists(st.floats(min_value=1e-300, max_value=1e6), max_size=6, unique=True),
    st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=6, max_size=6),
    st.lists(st.integers(1, 5), min_size=6, max_size=6),
)

spectra = st.builds(
    build_spectrum,
    zero_lists,
    delta=st.floats(min_value=1.0, max_value=20.0, exclude_min=True),
    m_pi=st.integers(1, 4),
    variant=st.sampled_from(("literal", "inclusive")),
)

coeff_tables = st.builds(
    lambda rest: CoeffTable((1,) + tuple(rest)),
    st.lists(st.integers(-(2**200), 2**200), max_size=30),
)


def round_trip(cls, obj):
    return records.loads(cls, records.dumps(obj))


@given(test_fns)
def test_test_function_round_trip(f):
    assert round_trip(AdelicTestFn, f) == f


@given(zero_lists)
def test_zero_list_round_trip(z):
    assert round_trip(ZeroList, z) == z


@given(spectra)
def test_spectrum_round_trip(spec):
    assert round_trip(PolyaSpectrum, spec) == spec


@given(coeff_tables)
def test_coeff_table_round_trip(table):
    assert round_trip(CoeffTable, table) == table


def test_plain_forms():
    assert records.plain(1.5 - 2j) == {"im": -2.0, "re": 1.5}
    assert records.plain(Fraction(-7, 3)) == "-7/3"
    assert records.plain((1, [2, (3,)])) == [1, [2, [3]]]
    assert records.plain(float("nan")) == "nan"
    assert records.plain(ZeroEntry(1.0, 1e-10)) == {
        "mult_assumed": 1, "refined_tol": 1e-10, "rho": 1.0}


def test_loads_ignores_unknown_keys_and_fills_defaults():
    z = records.loads(ZeroEntry, '{"rho": 2.5, "refined_tol": 0.1, "note": "x"}')
    assert z == ZeroEntry(2.5, 0.1, 1)


def test_loads_refuses_a_fractional_integer_field():
    with pytest.raises(ValueError):
        records.loads(ZeroEntry, '{"rho": 2.5, "refined_tol": 0.1, "mult_assumed": 1.5}')


def test_flatten_dotted_and_sorted():
    flat = records.flatten({"b": [1, [2, 3]], "a": {"y": 1, "x": {"k": "v"}}})
    assert flat == {"a.x.k": "v", "a.y": 1, "b": "1;[2, 3]"}
    assert list(flat) == ["a.x.k", "a.y", "b"]


@pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "two\nlines"])
def test_csv_quotes_awkward_cells(cell):
    text = records.csv_text([{"k": 1, "v": cell}])
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["k", "v"]
    assert rows[0] == ["1", cell]


def test_csv_nested_cells_become_columns():
    text = records.csv_text([{"E": 1 - 2j, "t": 0.5}, {"E": 3j, "t": 1.0}])
    assert text == "E.im,E.re,t\n-2.0,1.0,0.5\n3.0,0.0,1.0\n"


def _text_or_error(csv_view, rows):
    try:
        return csv_view(rows)
    except KeyError:  # a nested cell in the first row renames its column
        return KeyError


flat_cells = st.one_of(st.integers(), st.integers(-(10**30), 10**30), st.text(max_size=6),
                       st.sampled_from(('a,b', 'say "hi"', "two\nlines", "")))
other_cells = st.one_of(st.booleans(), st.floats(), st.complex_numbers(), st.none(),
                        st.lists(st.integers(), max_size=3),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@given(
    keys=st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True),
    data=st.data(),
)
def test_flat_rows_csv_is_the_flattened_csv(keys, data):
    # flat dicts of int or str values skip plain and flatten; the text is
    # byte-identical to the flattened route's, and a row holding any other
    # value still takes that route
    n = data.draw(st.integers(0, 6))
    rows = [{k: data.draw(flat_cells) for k in data.draw(st.permutations(keys))}
            for _ in range(n)]
    assert records.csv_text(rows) == csv_through_flatten(rows)
    assert records.csv_text(iter(rows)) == csv_through_flatten(rows)
    if rows:
        mixed = [dict(row) for row in rows]
        mixed[data.draw(st.integers(0, n - 1))][keys[0]] = data.draw(other_cells)
        assert _text_or_error(records.csv_text, mixed) == _text_or_error(
            csv_through_flatten, mixed)


def test_flat_rows_keep_the_errors_of_the_flattened_route():
    # a row missing a column, and a key that is not a string
    with pytest.raises(KeyError):
        records.csv_text([{"a": 1, "b": 2}, {"a": 3}])
    with pytest.raises(TypeError):
        records.csv_text([{"a": 1}, {"a": 2, 3: 4}])
