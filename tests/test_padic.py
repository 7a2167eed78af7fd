import math

import pytest

from spolink.padic import (
    MAX_PRIME,
    Prime,
    a_val,
    all_divisible,
    binom_column,
    binom_mod,
    defect,
    digits,
    divisible_js,
)

PRIMES = (3, 5, 7)


def test_prime_validation():
    assert Prime(3).p == 3
    assert Prime(101).p == 101
    for bad in (2, 1, 0, -3, 9, 15, 4):
        with pytest.raises(ValueError):
            Prime(bad)


def test_prime_cap_is_checked_before_primality():
    assert MAX_PRIME == 2**31
    assert Prime(2**31 - 1).p == 2**31 - 1  # the largest prime below the cap
    for big in (2**31 + 11, 10**18 + 3, 2**127 - 1):  # primes at or above it
        with pytest.raises(ValueError, match=r"below 2\^31"):
            Prime(big)


def test_digits_known():
    assert digits(4, 3) == [1, 1]
    assert digits(0, 5) == []
    assert digits(242, 3) == [2, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        digits(-1, 3)


def test_digits_roundtrip():
    for p in PRIMES:
        for n in range(2000):
            d = digits(n, p)
            assert sum(c * p**i for i, c in enumerate(d)) == n
            assert all(0 <= c < p for c in d)
            assert not d or d[-1] != 0


def carries(a: int, b: int, p: int) -> int:
    """Number of carries when a is added to b in base p: by Kummer's theorem,
    the p-adic valuation of C(a+b, a), the oracle for binom_mod and a_val."""
    count = carry = 0
    while a or b or carry:
        carry = 1 if a % p + b % p + carry >= p else 0
        count += carry
        a //= p
        b //= p
    return count


def test_carries_known():
    assert carries(1, 2, 3) == 1
    for p in PRIMES:
        for k in (0, 1, 7, 100):
            assert carries(k, 0, p) == 0
    # C(8, 4) = 70 = 2 * 5 * 7 has no factor 3: adding 4 + 4 in base 3 carries nowhere
    assert carries(4, 4, 3) == 0


def _val_fact(limit, p):
    # v_p(m!) prefix table via v_p(m! ) = v_p((m-1)!) + v_p(m)
    out = [0] * (limit + 1)
    for m in range(1, limit + 1):
        v, x = 0, m
        while x % p == 0:
            v += 1
            x //= p
        out[m] = out[m - 1] + v
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_carries_equals_binomial_valuation(p):
    # independent route: valuation of C(n, a) from factorial valuations
    limit = 2000
    vf = _val_fact(limit, p)
    step = 1 if p == 3 else 3
    for n in range(0, limit + 1):
        for a in range(0, n + 1, step):
            assert carries(a, n - a, p) == vf[n] - vf[a] - vf[n - a]


def test_binom_mod_known():
    assert binom_mod(3, 1, 3) == 0
    for p in PRIMES:
        for n in (0, 1, 5, 19, 1000):
            assert binom_mod(n, 0, p) == 1
    assert binom_mod(7, 2, 3) == 0  # C(7,2) = 21
    assert binom_mod(4, 7, 5) == 0
    assert binom_mod(4, -1, 5) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_binom_mod_against_pascal(p):
    # additive Pascal recurrence mod p, independent of the digit products:
    # dense below 500, then full rows on a stride and near prime powers.
    check_rows = set(range(501)) | set(range(500, 3001, 13))
    check_rows |= {p**i + d for i in range(4, 9) for d in (-1, 0, 1) if p**i + d <= 3000}
    check_rows |= {2999, 3000}
    row = [1]
    for n in range(1, 3001):
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(n - 1)] + [1]
        if n in check_rows:
            assert row == [binom_mod(n, k, p) for k in range(n + 1)], f"row {n}"


def test_binom_mod_against_comb():
    for p in PRIMES:
        for n in range(0, 120):
            for k in range(0, n + 1):
                assert binom_mod(n, k, p) == math.comb(n, k) % p


@pytest.mark.parametrize("p", PRIMES)
def test_binom_mod_and_a_val_against_kummer(p):
    for n in range(0, 300):
        for k in range(0, n + 1):
            c = carries(k, n - k, p)
            assert (binom_mod(n, k, p) == 0) == (c > 0), (n, k)
            assert a_val(math.comb(n, k), p) == c, (n, k)


def test_a_val_known():
    assert a_val(6, 3) == 1
    assert a_val(7, 3) == 0
    with pytest.raises(ValueError):
        a_val(0, 5)
    assert a_val(-54, 3) == 3
    for p in PRIMES:
        for l in range(1, 3000):
            a = a_val(l, p)
            assert l % p**a == 0 and l % p ** (a + 1) != 0


def test_defect_known():
    assert defect(8, 3) == 2
    assert defect(3, 3) == 0
    for p in PRIMES:
        assert defect(p - 1, p) == 1
    with pytest.raises(ValueError):
        defect(-1, 3)


def test_all_divisible_known():
    assert all_divisible(9, 2, 3) is False  # C(7, 1) = 7
    assert all_divisible(9, 1, 3) is False  # C(8, 1) = 8
    for p in PRIMES:
        for k in (1, 4, 17):
            assert all_divisible(k, 0, p) is True
    with pytest.raises(ValueError):
        all_divisible(5, 5, 3)


@pytest.mark.parametrize("p", PRIMES)
def test_all_divisible_against_direct_binomials(p):
    # the run C(k-j, 1), C(k-j+1, 2), ..., C(k-1, j) scanned directly
    kmax = 1000 if p == 3 else 400
    for k in range(2, kmax + 1):
        for j in range(1, k):
            direct = all(binom_mod(k - j + t - 1, t, p) == 0 for t in range(1, j + 1))
            assert all_divisible(k, j, p) == direct, (k, j, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_divisible_js_equal_the_all_divisible_scan(p):
    for k in range(p**3 + 2 * p):  # through k's fourth digit
        assert divisible_js(k, p) == [j for j in range(1, k) if all_divisible(k, j, p)], (k, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_binom_column_equals_binom_mod(p):
    # j of one, two and three digits; j = n and j = n + 1 give zeros
    for n in range(p**3 + 2):
        for j in (*range(2 * p + 1), p**2 - 1, p**2, p**2 + 1, n, n + 1):
            assert binom_column(n, j, p) == [binom_mod(i, j, p) for i in range(n)], (n, j, p)
