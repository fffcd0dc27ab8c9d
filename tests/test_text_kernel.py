"""The writer's ``%.17g`` kernel: its bytes against ``"%.17g" % x``, and its
tables against exact rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim import config


def rendered(values):
    """The kernel's text of each value, its PAD bytes dropped."""
    words = config._render(np.asarray(values, dtype=np.float64))
    slots = words.view(np.uint8).reshape(-1, 32)
    assert not slots[:, 31].any()          # left free for the separator
    return [slot.tobytes().replace(b"\0", b"") for slot in slots]


def percent(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_kernel_matches_percent_on_any_bit_pattern(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert rendered(values) == percent(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_kernel_matches_percent_on_any_float(values):
    assert rendered(values) == percent(values)


def powers_with_neighbours(k_min, k_max):
    out = []
    for k in range(k_min, k_max + 1):
        p = float(f"1e{k}")
        out += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    return out


# doubles just below a power of ten whose 17 digits round up to it, so that
# D = 10**17 carries into the exponent
CARRIES = [(1e-243, -243), (1e-79, -79), (1e-14, -14), (1e98, 98), (1e153, 153),
           (1e220, 220)]

# exact ties of the 17th digit, which "%" rounds half to even
TIES = [1e15 + 0.25, 1e15 + 0.75, 2.0**51 - 0.25, 1e14 + 0.125, 1053 / 2**20,
        1055 / 2**20]

EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.0**53,
    2.0**53 + 2, 0.99999999999999999, 9.9999999999999999e16, 0.1, 1 / 3, -2 / 3,
    # the fixed/exponent switch at X = -5/-4 and 16/17
    1e-4, np.nextafter(1e-4, 0.0), 1.5e-4, 9.5e-5, -1.2345678901234567e-4,
    1e16, 1e17, np.nextafter(1e17, 0.0), 1.2345678901234567e16, 1.2345678901234567e17,
    # three-digit exponents, on and off the fast path
    1e100, -1.5e-100, 1e-280, 1e280, 2.5e-300, 1e300, 1.7976931348623157e308,
    2.2250738585072014e-308, 2.0**-930, 2.0**930,
    np.nextafter(2.0**-930, 0.0), np.nextafter(2.0**930, 0.0),
    *TIES, *(v for v, _ in CARRIES), *powers_with_neighbours(-300, 300),
]


def test_kernel_matches_percent_on_the_edges():
    assert rendered(EDGES) == percent(EDGES)
    assert rendered(np.negative(EDGES)) == percent(np.negative(EDGES))


@pytest.mark.parametrize("value, k", CARRIES)
def test_the_carries_round_up_to_a_power_of_ten(value, k):
    assert Fraction(value) < Fraction(10) ** k
    assert round(Fraction(value) * Fraction(10) ** (17 - k)) == 10**17
    assert b"%.17g" % value == b"1e%+03d" % k


def test_rounding_ties_are_left_to_percent():
    # a tie is within the double-double's error of rounding either way
    x = np.array(TIES + [0.1, 1 / 3, 1e15 + 0.5])
    ties = config._significand(x)[2]
    assert ties.tolist() == [True] * len(TIES) + [False] * 3


def test_kernel_matches_percent_in_bulk():
    rng = np.random.default_rng(26)
    n = 20000
    values = np.concatenate([
        rng.uniform(-1.0, 1.0, n),
        np.exp(rng.uniform(-745.0, 709.0, n)) * rng.choice([-1.0, 1.0], n),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        np.arange(-n, n) / 8.0,
        np.arange(-n // 10, n // 10) * 1e14,
        (rng.integers(2**51, 2**53, n) | 1) / 4.0,       # ties from 1e15 on
    ])
    assert rendered(values) == percent(values)


def test_kernel_takes_an_empty_array():
    assert config._render(np.empty(0)).shape == (0, 4)


def test_powers_of_ten_are_exact():
    k_min, k_max = config._X_MIN, 16 - config._X_MIN
    hi, lo = config._powers_of_ten(k_min, k_max)
    assert len(hi) == len(lo) == k_max - k_min + 1
    for k, h, low in zip(range(k_min, k_max + 1), hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** k
        assert h == float(exact), k
        assert low == float(exact - Fraction(h)), k


def significant_bits(value):
    m = abs(value.as_integer_ratio()[0])
    return (m // (m & -m)).bit_length() if m else 0


def test_multipliers_are_exact_double_doubles_of_10_to_16_minus_x():
    for row, x in enumerate(range(config._X_MIN, config._X_MAX + 1)):
        exact = Fraction(10) ** (16 - x)
        hi, lo = float(config._MUL_HI[row]), float(config._MUL_LO[row])
        hh, hl = float(config._MUL_HH[row]), float(config._MUL_HL[row])
        assert hi == float(exact) and lo == float(exact - Fraction(hi)), x
        assert Fraction(hh) + Fraction(hl) == Fraction(hi), x
        assert significant_bits(hh) <= 26 and significant_bits(hl) <= 26, x


def test_exponent_rows_and_thresholds_are_exact():
    for eb in range(2048):
        e = eb - 1023
        row, above = int(config._ROW[eb]), float(config._ABOVE[eb])
        if not config._FAST_PATH[eb]:
            assert not -config._FAST <= e < config._FAST
            assert row == -config._X_MIN and above == np.inf
            continue
        x = row + config._X_MIN
        # floor(E log10 2), and every double of this binade is at 10**x or
        # 10**(x + 1) and below 10**(x + 2), inside the table with its carry
        assert Fraction(10) ** x <= Fraction(2) ** e < Fraction(10) ** (x + 1), e
        assert Fraction(2) ** (e + 1) <= Fraction(10) ** (x + 2), e
        assert config._X_MIN <= x and x + 2 <= config._X_MAX, e
        # the least double at or above 10**(x + 1)
        assert Fraction(above) >= Fraction(10) ** (x + 1), e
        assert Fraction(np.nextafter(above, 0.0)) < Fraction(10) ** (x + 1), e


def test_digit_tables_are_exact():
    for c in range(10000):
        text = b"%04d" % c
        assert config._CHUNK[c:c + 1].view(np.uint8).tobytes() == text
        for j in range(4):
            expected = 0 if c == 0 else 1 + 4 * j + len(text.rstrip(b"0"))
            assert config._LENGTH[j, c] == expected


def test_exponent_suffixes_are_exact():
    ends = config._ENDS.view(np.uint8).reshape(-1, 2, 32)
    for row, x in enumerate(range(config._X_MIN, config._X_MAX + 1)):
        suffix = b"" if -4 <= x < 17 else b"e%+03d" % x
        for sign in (0, 1):
            assert ends[row, sign, 24:32].tobytes().rstrip(b"\0") == suffix, x
