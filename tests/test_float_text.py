"""`float_text.BlockFormatter` against Python's own '%.17g', value by value."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpath.float_text import BlockFormatter


def _literal(table, separators):
    """The reference: '%.17g' per value, each followed by its column's separator."""
    seps = separators.decode()
    return "".join("%.17g" % v + seps[j % len(seps)]
                   for j, v in enumerate(np.ravel(table).tolist())).encode()


def _render(values, separators=b"\n"):
    table = np.asarray(values, dtype=np.float64).reshape(-1, len(separators))
    return bytes(BlockFormatter(separators)(table))


# any float64 by its bit pattern, or hypothesis's own floats (edges, small
# integers, subnormals, -0.0, NaN, ±inf), or a short dyadic number, whose
# exact decimal expansion may end in a 5 just past the 17th digit: a tie
_bits = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
_dyadic = st.builds(math.ldexp, st.integers(-2 ** 30, 2 ** 30), st.integers(-80, 40))
_float64 = st.one_of(_bits, st.floats(allow_nan=True, allow_infinity=True, width=64), _dyadic)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_block_matches_percent_17g(data):
    separators = data.draw(st.lists(st.sampled_from([b",", b" ", b"\n", b";"]),
                                    min_size=1, max_size=6).map(b"".join))
    rows = data.draw(st.integers(1, 12))
    values = data.draw(st.lists(_float64, min_size=rows * len(separators),
                                max_size=rows * len(separators)))
    table = np.array(values, dtype=np.float64).reshape(rows, len(separators))
    assert bytes(BlockFormatter(separators)(table)) == _literal(table, separators)


@pytest.mark.parametrize("value, text", [
    (2.0 ** -25, "2.9802322387695312e-08"),         # an exact tie, rounded to even
    (9.9999999999999998e-249, "9.9999999999999998e-249"),  # log10 rounds up to -248
    (1e16, "10000000000000000"), (1e17, "1e+17"),   # the last fixed, the first exponent
    (0.0001, "0.0001"), (1e-05, "1.0000000000000001e-05"),
    (1e-100, "1e-100"), (1e100, "1e+100"),
    (5e-324, "4.9406564584124654e-324"), (1.7976931348623157e308, "1.7976931348623157e+308"),
    (-0.0, "-0"), (0.0, "0"), (float("nan"), "nan"), (float("inf"), "inf"),
    (float("-inf"), "-inf"), (0.1, "0.10000000000000001"), (-0.4, "-0.40000000000000002"),
    (123456.78125, "123456.78125"), (1.5, "1.5"), (99999999999999999.0, "1e+17"),
])
def test_named_values(value, text):
    assert "%.17g" % value == text  # the reference itself
    assert _render([value]) == (text + "\n").encode()


def test_integer_valued_floats_print_as_percent_d():
    rng = np.random.default_rng(5)
    ints = np.concatenate([np.arange(-1000, 1001), rng.integers(-10 ** 16, 10 ** 16, 5000),
                           10 ** np.arange(17), -(10 ** np.arange(17))]).astype(np.float64)
    assert _render(ints) == "".join("%d\n" % v for v in ints.tolist()).encode()


def test_ties_and_random_bit_patterns():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, 60000, dtype=np.uint64).view(np.float64)
    # m·2^e with m < 2^24 has a short exact expansion: many tie at 17 digits
    dyadic = np.ldexp(rng.integers(1, 2 ** 24, 60000).astype(np.float64),
                      rng.integers(-90, 10, 60000))
    kernel_like = rng.standard_normal(60000) * 10.0 ** rng.integers(-7, 3, 60000)
    for values in (bits, dyadic, kernel_like):
        table = values.reshape(-1, 6)
        render = BlockFormatter(b", ;,,\n")
        got = b"".join(bytes(render(table[lo:lo + 500])) for lo in range(0, len(table), 500))
        assert got == _literal(table, b", ;,,\n")


def test_one_formatter_renders_longer_and_shorter_blocks():
    rng = np.random.default_rng(3)
    render = BlockFormatter(b",\n")
    for rows in (3, 700, 2, 2048, 1):  # grows its work arrays, then reuses them
        table = rng.standard_normal((rows, 2)) * 1e-3
        assert bytes(render(table)) == _literal(table, b",\n")
