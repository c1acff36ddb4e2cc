import cmath
import math

import mpmath
import pytest

from young.asymptotics import (
    ALPHA,
    BAND_CONSTANT,
    C,
    _euler_terms_needed,
    _lemma1_terms,
    freiman_lhs,
    freiman_main_term,
    freiman_remainder,
    hardy_ramanujan_log,
    headline_bound,
    lemma1_bound_check,
    restricted_asymptotic_log,
    rousseau_ali_lower,
    slant_bounds,
)
from young.counting import count_partitions


def test_constants():
    assert math.isclose(C**2, math.pi**2 / 6.0, rel_tol=1e-15)
    assert math.isclose(ALPHA, 2.0 / math.pi**2, rel_tol=1e-15)


def test_hardy_ramanujan_values():
    assert math.isclose(math.exp(hardy_ramanujan_log(1)), 1.87669, rel_tol=1e-4)
    assert math.isclose(math.exp(hardy_ramanujan_log(100)), 1.99281e8, rel_tol=1e-4)
    ratio = math.exp(hardy_ramanujan_log(100)) / count_partitions(100)
    assert 1.04 < ratio < 1.05
    with pytest.raises(ValueError):
        hardy_ramanujan_log(0)


def test_hardy_ramanujan_log_space():
    assert math.isfinite(hardy_ramanujan_log(10**9))


def test_hardy_ramanujan_error_band_decreasing():
    prev = None
    for n in (100, 400, 1600, 6400):
        err = abs(math.exp(math.log(count_partitions(n)) - hardy_ramanujan_log(n)) - 1.0)
        assert err <= BAND_CONSTANT / math.sqrt(n)
        if prev is not None:
            assert err < prev
        prev = err


def test_restricted_asymptotic():
    n = 400
    assert math.isclose(math.exp(restricted_asymptotic_log(n, 1e-12, 1e-12)),
                        math.exp(hardy_ramanujan_log(n)), rel_tol=1e-9)
    assert math.isclose(restricted_asymptotic_log(n, 1.0, 2.0),
                        hardy_ramanujan_log(n) - 3.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        restricted_asymptotic_log(400, 400**0.3, 1.0)


def test_restricted_asymptotic_band():
    for n in (2500, 10**4):
        for h in (0.5, 1.0, 2.0):
            for w in (0.5, 2.0):
                r, s = slant_bounds(n, h, w, rounding="floor")
                exact = count_restricted_cached(n, r, s)
                ratio = math.exp(math.log(exact) - restricted_asymptotic_log(n, h, w))
                assert abs(ratio - 1.0) <= BAND_CONSTANT / math.sqrt(n) * (h + w + 1.0) ** 2


_cache = {}


def count_restricted_cached(n, r, s):
    from young.counting import count_restricted
    key = (n, min(r, s), max(r, s))
    if key not in _cache:
        _cache[key] = count_restricted(n, r, s)
    return _cache[key]


def test_slant_bounds():
    scale = math.sqrt(10**4) / C
    r, s = slant_bounds(10**4, 1.0, 1.0, rounding="ceil")
    assert r == s == math.ceil(scale * math.log(scale))
    rf, _ = slant_bounds(10**4, 1.0, 1.0, rounding="floor")
    assert rf == math.floor(scale * math.log(scale))
    with pytest.raises(ValueError):
        slant_bounds(100, 0.0, 1.0)
    for h, w, name in [(1.0, math.nan, "w"), (math.inf, 1.0, "h"), (-math.inf, 1.0, "h")]:
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            slant_bounds(100, h, w)
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            restricted_asymptotic_log(100, h, w)


def test_freiman_truncation_and_wedge():
    # far from zero a single factor dominates the log-product
    assert math.isclose(freiman_lhs(10.0).real, math.exp(-10.0), rel_tol=1e-3)
    with pytest.raises(ValueError, match="wedge"):
        freiman_lhs(complex(0.1, 0.05))
    with pytest.raises(ValueError, match="Re u"):
        freiman_lhs(complex(-0.1, 0.0))


def test_freiman_remainder_linear_decay():
    k_fit = abs(freiman_remainder(0.2)) / 0.2
    for u in (0.1, 0.05, 0.025, complex(0.05, 0.0025)):
        assert abs(freiman_remainder(u)) <= k_fit * abs(u) * (1.0 + 1e-9)
    # the remainder really shrinks with u, not just stays bounded
    assert abs(freiman_remainder(0.025)) < abs(freiman_remainder(0.2))


@pytest.mark.parametrize("u", [3e-5, complex(3e-5, 3e-6)])
def test_freiman_remainder_near_zero_is_minus_u_over_24(u):
    # log P(e^{-u}) = pi^2/(6u) + Log(u/2pi)/2 - u/24 up to e^{-4 pi^2/u}, so
    # the remainder is -u/24; about 1.4e6 terms are summed here
    assert abs(freiman_remainder(u) / u + 1.0 / 24.0) <= 1e-4 / 24.0


def test_freiman_lhs_matches_exactly_rounded_sum():
    # reference: the real and imaginary parts of the same terms summed by fsum
    u = complex(1e-4, 1e-5)
    count = _euler_terms_needed(u.real)
    terms = [cmath.log(1.0 - cmath.exp(-k * u)) for k in range(1, count + 1)]
    ref = -complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    assert abs(freiman_lhs(u) - ref) <= 1e-15 * abs(ref)


def test_freiman_main_term_value():
    u = 0.1
    main = freiman_main_term(u)
    assert math.isclose(main.real, math.pi**2 / 0.6 + 0.5 * math.log(u / (2 * math.pi)),
                        rel_tol=1e-12)
    assert main.imag == 0.0


def test_lemma1_theta_zero_is_equality():
    lhs, rhs = lemma1_bound_check(0.8, 0.0)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


@pytest.mark.parametrize("r", [0.999 + 0.0001 * i for i in range(10)])
def test_lemma1_theta_zero_is_exact_equality_near_one(r):
    # lhs and rhs are sums of ~1e5 logs; they must round alike term by term
    lhs, rhs = lemma1_bound_check(r, 0.0)
    assert lhs == rhs


@pytest.mark.parametrize("r,theta", [(0.9, 0.5), (0.99, math.pi), (0.6, -2.0)])
def test_lemma1_bound_holds(r, theta):
    lhs, rhs = lemma1_bound_check(r, theta)
    assert lhs <= rhs + 1e-12


def test_lemma1_matches_direct_product_magnitude():
    r, theta = 0.7, 1.3
    lhs, _ = lemma1_bound_check(r, theta)
    direct = 0.0
    q = r * cmath.exp(1j * theta)
    for k in range(1, 200):
        direct -= math.log(abs(1 - q**k))
    assert math.isclose(lhs, direct, rel_tol=1e-10)


LEMMA1_GRID = [-math.pi + 2.0 * math.pi * (j + 1) / 8 for j in range(8)]


def _lemma1_by_loop(r, theta):
    # reference: the per-term loop over all K terms that lemma1_bound_check
    # ran before it summed its tail as a Lambert series
    terms = max(int(math.ceil(math.log(1e-16 * (1.0 - r)) / math.log(r))), 1)
    log_p_r = 0.0
    log_abs_pq = 0.0
    for k in range(1, terms + 1):
        rk = r**k
        log_p_r -= math.log(1.0 - rk)
        log_abs_pq -= math.log(abs(1.0 - rk * cmath.exp(1j * k * theta)))
    decay = ALPHA * r * theta**2 / ((1.0 - r) * ((1.0 - r) ** 2 + 2.0 * r * ALPHA * theta**2))
    return log_abs_pq, log_p_r - decay


def _lemma1_oracle(r, theta):
    """-sum_{k<=K} log|1 - q^k| over the K = _lemma1_terms(r) terms of
    lemma1_bound_check, q = r e^{i theta} for the float r and theta.

    mpmath rounds q to 160-bit fixed point; q^k runs by integer products,
    and the product of the |1 - q^k|^2 is kept as a 160-bit integer
    mantissa and a binary exponent; mpmath takes its log.  Each step
    rounds by 2^-160, which leaves the result good to about 1e-37 over the
    43728 steps at r = 0.999; there it matches a direct 40-digit mpmath
    product to 1e-38 and runs about 15 times faster.
    """
    terms, bits = _lemma1_terms(r), 160
    with mpmath.workdps(60):
        q = mpmath.mpf(r) * mpmath.expj(mpmath.mpf(theta))
        a, b = (int(mpmath.nint(part * 2**bits)) for part in (q.real, q.imag))
    one = 1 << bits
    x, y, mantissa, exponent = one, 0, one, -bits
    for _ in range(terms):
        x, y = (x * a - y * b) >> bits, (x * b + y * a) >> bits
        mantissa *= (one - x) ** 2 + y * y
        shift = mantissa.bit_length() - bits
        mantissa >>= shift
        exponent += shift - 2 * bits
    with mpmath.workdps(60):
        return float(-(mpmath.log(mantissa) + exponent * mpmath.log(2)) / 2)


def test_lemma1_matches_a_40_digit_oracle():
    # budget: lhs and rhs within 1e-15 log P(r) of the oracle, P(r) the
    # product at r.  Errors scale with log P(r), not with lhs, which can be
    # near 0.  The largest measured is 5.7e-16 log P(r) over this grid, the
    # 20 x 20 grid of criterion 07 and 150 random points with r in
    # [0.5, 0.999]; relative to lhs, 1.6e-14 here.  The per-term loop errs
    # by up to 5.5e-14 log P(r), so the two agree within 1e-13 log P(r).
    for r in (0.5, 0.9, 0.99, 0.999):
        log_p_r = _lemma1_oracle(r, 0.0)
        for theta in LEMMA1_GRID + [1e-3, -1e-3, 1e-6, -1e-6]:
            lhs, rhs = lemma1_bound_check(r, theta)
            exact = _lemma1_oracle(r, theta)
            assert abs(lhs - exact) <= 1e-15 * log_p_r, (r, theta, lhs, exact)
            decay = ALPHA * r * theta**2 / ((1.0 - r) * ((1.0 - r) ** 2
                                                         + 2.0 * r * ALPHA * theta**2))
            assert abs(rhs - (log_p_r - decay)) <= 1e-15 * log_p_r, (r, theta, rhs)
            loop_lhs, _ = _lemma1_by_loop(r, theta)
            assert abs(lhs - loop_lhs) <= 1e-13 * log_p_r, (r, theta, lhs, loop_lhs)


@pytest.mark.parametrize("r", [0.9999, 0.99999])
def test_lemma1_bound_holds_near_one(r):
    # a head of 5000 or 50000 terms where the per-term loop summed 460494 or 4835405
    for theta in LEMMA1_GRID + [1e-4, -1e-4, 1e-6, -1e-6]:
        lhs, rhs = lemma1_bound_check(r, theta)
        assert lhs <= rhs + 1e-12, (r, theta, lhs, rhs)


def test_lemma1_domain():
    with pytest.raises(ValueError):
        lemma1_bound_check(1.0, 0.1)
    with pytest.raises(ValueError):
        lemma1_bound_check(0.0, 0.1)


@pytest.mark.parametrize("r, terms", [(0.999999, 50656847), (0.9999999, 529594546)])
def test_lemma1_rejects_a_truncation_past_the_term_cap(r, terms):
    with pytest.raises(ValueError, match=f"needs {terms} terms"):
        lemma1_bound_check(r, 0.1)


def test_headline_bound():
    assert math.isclose(headline_bound(910, 0.315), 0.32678, rel_tol=1e-4)
    assert math.isclose(headline_bound(910, 0.11), 0.67667, rel_tol=1e-4)
    assert headline_bound(910, 0.0) == 1.0
    with pytest.raises(ValueError):
        headline_bound(15)
    for constant in (-5.0, -1e-300, math.nan, math.inf, 1000.0):
        with pytest.raises(ValueError, match="constant"):
            headline_bound(20, constant)
    # strictly decreasing in n and in the constant
    values = [headline_bound(n) for n in (16, 100, 1000, 10**6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert headline_bound(910, 0.2) > headline_bound(910, 0.3)


def test_rousseau_ali_lower():
    assert math.isclose(rousseau_ali_lower(1), 0.5, rel_tol=1e-12)
    assert math.isclose(rousseau_ali_lower(2), 0.375, rel_tol=1e-12)
    assert math.isclose(rousseau_ali_lower(50), (math.pi * 50) ** -0.5, rel_tol=0.01)
    values = [rousseau_ali_lower(k) for k in range(1, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        rousseau_ali_lower(0)
    with pytest.raises(ValueError, match="k too large"):
        rousseau_ali_lower(10**400)


def test_rousseau_ali_lower_matches_the_exact_ratio():
    for k in range(1, 2001):
        assert math.isclose(rousseau_ali_lower(k), math.comb(2 * k, k) / 4**k, rel_tol=1e-14), k


@pytest.mark.parametrize("k", [10**6, 10**10, 10**13, 10**15, 10**17])
def test_rousseau_ali_lower_does_not_cancel_at_large_k(k):
    # the next term of the series, 1/(128k^2), is below 1e-14 relative here
    want = (math.pi * k) ** -0.5 * (1.0 - 1.0 / (8 * k))
    assert math.isclose(rousseau_ali_lower(k), want, rel_tol=1e-12)
