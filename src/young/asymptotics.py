"""Closed-form asymptotics for partition counts and their error machinery.

Everything here is floating point.  Quantities that overflow doubles (the
partition function grows like e^{pi sqrt(2n/3)}) are returned as logs:
`hardy_ramanujan_log`, `restricted_asymptotic_log`, `freiman_lhs` and
`lemma1_bound_check`.  The functions that return plain floats,
`headline_bound` and `rousseau_ali_lower`, return values in (0, 1].  The log
of an exact big-integer count is `math.log` of it, which does not overflow.

`lemma1_bound_check` sums a head of 1/(2(1-r)) factors plus a Lambert-series tail.
"""

from __future__ import annotations

import cmath
import math

# Scale of the sqrt(n) law of a random diagram: its largest part is about
# (sqrt(n)/C) log(sqrt(n)/C), and C^2 = pi^2/6.
C = math.pi / math.sqrt(6.0)
# Decay constant of the Euler product away from the positive axis (Lemma 1).
ALPHA = 2.0 / math.pi**2

# Error-band multiplier used by the accuracy checks pairing exact counts with
# the closed forms below.  The analytic error terms come with unspecified
# constants; 5 is an empirical calibration with comfortable slack at the
# smallest n we test (n=100), and the checks also assert decay in n, so a
# larger constant would not mask a regression.
BAND_CONSTANT = 5.0

# Wedge half-aperture for the Euler-product expansion: |Im u| may be at most
# this fraction of Re u.
FREIMAN_WEDGE_RATIO = 0.1


def _require_levels(h: float, w: float) -> None:
    """Reject a slant level that is not positive and finite, naming it."""
    for name, level in (("h", h), ("w", w)):
        if not 0.0 < level < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {level!r}")


def slant_bounds(n: int, h: float, w: float, rounding: str = "floor") -> tuple[int, int]:
    """Map tail levels (h, w) to integer part/count bounds (r, s).

    r is the rounding of (sqrt(n)/c) * log((sqrt(n)/c) / h), and s the same
    with w.  The floor form belongs to the restricted-count asymptotic, the
    ceiling form to exact tail probabilities.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _require_levels(h, w)
    scale = math.sqrt(n) / C
    op = {"floor": math.floor, "ceil": math.ceil}[rounding]
    r = op(scale * math.log(scale / h))
    s = op(scale * math.log(scale / w))
    return int(r), int(s)


def _float_of(name: str, value: int) -> float:
    """float(value), or a ValueError naming the argument when it is beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} too large: beyond the float range") from None


def hardy_ramanujan_log(n: int) -> float:
    """log of the leading-order partition count e^{pi sqrt(2n/3)} / (4 sqrt(3) n)."""
    if n < 1:
        raise ValueError("n must be positive")
    x = _float_of("n", n)
    return math.pi * math.sqrt(2.0 * x / 3.0) - math.log(4.0 * math.sqrt(3.0) * x)


def restricted_asymptotic_log(n: int, h: float, w: float) -> float:
    """log of the leading term for doubly-restricted counts at slant levels (h, w).

    Valid when h and w grow slower than n^{1/4}; enforced loosely as
    h, w <= n^{0.24}.  Callers pair the value with the exact count at
    (r, s) = slant_bounds(n, h, w, "floor").
    """
    _require_levels(h, w)
    cap = _float_of("n", n) ** 0.24
    if h > cap or w > cap:
        raise ValueError(f"h, w must be <= n^0.24 = {cap:.3g}")
    return hardy_ramanujan_log(n) - h - w


# Cap on the terms of one truncated Euler-product sum, which bounds the time
# of one call.  freiman_lhs sums every term and reaches the cap near
# Re u = 4.5e-6, where it takes about 4 s (2-core x86 VM).  lemma1_bound_check
# sums only the head of its truncation term by term, about 1e5 terms at the
# cap (r = 1 - 4.9e-6), which takes about 0.1 s.  An argument whose tail needs
# more terms raises ValueError instead of running on.
EULER_MAX_TERMS = 10**7


def _euler_terms_needed(re_u: float, tail: float = 1e-14) -> int | float:
    """Terms T whose dropped tail e^{-(T+1)x} / (1 - e^{-x}) is below tail, x = re_u;
    inf where 1 - e^{-x} rounds to 0."""
    x = re_u
    gap = 1.0 - math.exp(-x)
    if gap == 0.0:
        return math.inf
    t = math.log(gap * tail) / (-x) - 1.0
    return max(int(math.ceil(t)), 1)


def freiman_lhs(u: complex) -> complex:
    """log of the Euler product at q = e^{-u}, truncated to machine accuracy.

    u must be finite and lie in the wedge Re u > 0, |Im u| <= FREIMAN_WEDGE_RATIO * Re u.
    The truncation point is chosen so the dropped tail is below 1e-14; a u
    whose tail needs more than EULER_MAX_TERMS terms raises.
    """
    u = complex(u)
    if not cmath.isfinite(u):
        raise ValueError(f"u must be finite, got {u}")
    if u.real <= 0:
        raise ValueError("Re u must be positive")
    if abs(u.imag) > FREIMAN_WEDGE_RATIO * u.real:
        raise ValueError("u outside the wedge |Im u| <= ratio * Re u")
    terms = _euler_terms_needed(u.real)
    if terms > EULER_MAX_TERMS:
        raise ValueError(f"Re u = {u.real:.3g} needs {terms} terms for a 1e-14 tail, "
                         f"more than the {EULER_MAX_TERMS} that are summed")
    # compensated (Kahan) summation: the sum is about pi^2/(6u), 4 pi^2/u^2
    # times the remainder u/24 past the main term, so a plain running sum of
    # 1e6 or more terms loses the remainder; this one errs by a few roundings
    # of the sum of the terms' magnitudes, which is the size of the sum here
    log, exp = cmath.log, cmath.exp
    total = comp = 0j
    for k in range(1, terms + 1):
        y = log(1.0 - exp(-k * u)) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return -total


def freiman_main_term(u: complex) -> complex:
    """pi^2/(6u) + (1/2) Log(u / 2 pi), the closed-form core of the expansion."""
    u = complex(u)
    return math.pi**2 / (6.0 * u) + 0.5 * cmath.log(u / (2.0 * math.pi))


def freiman_remainder(u: complex) -> complex:
    """Difference between the truncated log-product and its closed-form core."""
    return freiman_lhs(u) - freiman_main_term(u)


def _lemma1_terms(r: float) -> int:
    """Terms of the 1e-16 truncation of the Euler product at r, which grow
    with r; an r outside (0, 1) or past EULER_MAX_TERMS raises ValueError."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    terms = max(int(math.ceil(math.log(1e-16 * (1.0 - r)) / math.log(r))), 1)
    if terms > EULER_MAX_TERMS:
        raise ValueError(f"r = {r!r} needs {terms} terms for a 1e-16 tail, "
                         f"more than the {EULER_MAX_TERMS} that are summed")
    return terms


def _euler_log_abs(r: float, theta: float) -> float:
    """log|prod_{k<=K} 1/(1 - q^k)| at q = r e^{i theta}, K = _lemma1_terms(r): the
    first h = 1/(2(1-r)) factors one by one, the rest from the Lambert identity
    sum_{k=h+1}^{K} -Log(1 - q^k) = sum_{m>=1} (q^{m(h+1)} - q^{m(K+1)}) / (m (1 - q^m)),
    cut at the M <= 83 terms that reach |q^{h+1}|^M <= 1e-18 (|q^{h+1}| <= e^{-1/2}),
    or one by one where M >= K - h.  1 - q^m is -expm1(m log r) +
    2 r^m sin^2(m theta/2) - i r^m sin(m theta), which does not cancel as r -> 1."""
    terms = _lemma1_terms(r)
    log_r = math.log(r)
    head = int(0.5 / (1.0 - r))
    tail = math.ceil(math.log(1e-18) / ((head + 1) * log_r))
    if head + tail >= terms:
        head, tail = terms, 0
    lq = complex(log_r, theta)
    log, exp, expm1, sin, cos = math.log, cmath.exp, math.expm1, math.sin, math.cos
    total = 0.0
    for k in range(1, head + 1):
        total -= log(abs(1.0 - exp(k * lq)))
    z, w = exp((head + 1) * lq), exp((terms + 1) * lq)
    zm, wm, lambert = z, w, 0j
    for m in range(1, tail + 1):
        rm_less_1 = expm1(m * log_r)
        s, c = sin(m * theta / 2), cos(m * theta / 2)
        rm = 1.0 + rm_less_1
        lambert += (zm - wm) / (m * complex(2.0 * rm * s * s - rm_less_1, -2.0 * rm * s * c))
        zm, wm = zm * z, wm * w
    return total + lambert.real


def lemma1_bound_check(r: float, theta: float) -> tuple[float, float]:
    """Log-magnitude of the Euler product on |q| = r against its decay bound.

    Returns (lhs, rhs) with lhs = log|product at re^{i theta}| and
    rhs = log(product at r) - alpha r theta^2 / ((1-r)((1-r)^2 + 2 r alpha theta^2)).
    The inequality lhs <= rhs is what callers assert.  Values are logs because
    the product itself overflows doubles as r -> 1.  Both sides come from one
    kernel, lhs at theta and log(product at r) at theta = 0, so at theta = 0
    lhs equals rhs exactly.  Against a 40-digit value of the same truncation,
    lhs errs by at most 1e-15 log(product at r) for r in [0.5, 0.999].  An r
    whose 1e-16 truncation needs more than EULER_MAX_TERMS terms raises
    ValueError before any term is summed.
    """
    lhs = _euler_log_abs(r, theta)
    decay = ALPHA * r * theta**2 / ((1.0 - r) * ((1.0 - r) ** 2 + 2.0 * r * ALPHA * theta**2))
    return lhs, _euler_log_abs(r, 0.0) - decay


def headline_bound(n: int, constant: float = 0.11) -> float:
    """exp(-constant * log n / log log n), the slow-decay probability bound.

    The constant must be finite and nonnegative, and the bound must not
    underflow to 0, so a returned bound lies in (0, 1].
    """
    if n < 16:
        raise ValueError("n must be at least 16 so that log log n exceeds 1")
    if not 0.0 <= constant < math.inf:
        raise ValueError("constant must be finite and nonnegative")
    value = math.exp(-constant * math.log(n) / math.log(math.log(n)))
    if value == 0.0:
        raise ValueError("constant too large: the bound underflows to 0")
    return value


def rousseau_ali_lower(k: int) -> float:
    """Central binomial lower bound 2^{-2k} C(2k, k), asymptotic to (pi k)^{-1/2}.

    For k <= 1000 it is the big-integer ratio, rounded once.  Beyond, it is
    (pi k)^{-1/2} (1 - 1/(8k) + 1/(128k^2) + 5/(1024k^3) - 21/(32768k^4)), the
    series of Gamma(k + 1/2) / (sqrt(pi) Gamma(k + 1)): its first dropped term
    is below 2e-18 relative there, and no two terms cancel.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k <= 1000:
        return math.comb(2 * k, k) / 4**k
    x = _float_of("k", k)
    series = 1.0 + (-1 / 8 + (1 / 128 + (5 / 1024 - 21 / 32768 / x) / x) / x) / x
    return series / math.sqrt(math.pi) / math.sqrt(x)
