"""repr of float64 arrays: the bytes of repr(float(v)) for every element, vectorised.

reprs(values) is the one float formatter of the CSV writers. CPython's repr
is the shortest decimal that reads back to the same double (David Gay's
dtoa, mode 0), laid out positionally for decimal exponents -4..15 and in
scientific notation otherwise. Most doubles need 16 or 17 digits, where
repr costs about a microsecond each; reprs finds the same digits with
float64 and int64 array arithmetic.

Fast path, for 1e-4 <= |x| < 1e15 (every such repr is positional):

- k = 16 - floor(log10 |x|), corrected so that y = |x| * 10**k lies in
  [1e16, 1e17). Dekker's exact two-product (Numer. Math. 18:224, 1971)
  writes y = p + e exactly in two doubles, so the 17-digit rounding is
  D17 = p + rint(e) and the remainder f = e - rint(e) is exact.
- D16, the half-even rounding of y / 10, and D15, the nearest integer to
  y / 100, follow from D17 and f by integer quotient and remainder.
- D15 reads back to x iff float(D15) / 10.0**(k - 2) == x: D15 < 2**53 and
  k - 2 <= 22, so this is one correctly rounded division (Clinger's fast
  path, PLDI 1990).
- D16 reads back to x iff |10 * D16 - y| < h, with h = ulp(x) / 2 * 10**k
  the half-width of x's rounding interval. ulp(x) / 2 is the power of two
  2**(e - 1023 - 53) built from x's biased exponent bits e: every x on the
  fast path is normal, so it equals np.spacing(x) / 2. With delta =
  10 * D16 - D17 this is delta - h < f < delta + h, where both bounds are
  exact doubles. No 16-digit decimal lies exactly on an interval end in
  this range, so the strict test is exact.
- The first of D15, D16, D17 that reads back is repr's digit string, as
  dtoa's shortest, nearest and half-even choice: h lies in (0.55, 11.1],
  so the interval holds at most one 15-digit decimal (and a tie at 15
  digits never reads back), the nearest 16-digit decimal is inside it
  whenever any is, and D17 always is. A power of two has a lower
  half-interval half as wide, but every power of two in range has at
  most 15 significant digits, so D15 reads back for each of them.
- None of the chosen digit strings rounds up to a new decade: that would
  need x = fl(10**j) < 10**j or x within ulp(x) / 2 below 10**j, and no
  power of ten from 1e-4 to 1e14 rounds down.

The digits are laid out in repr's positional form with trailing zeros of
the fraction stripped. +-0.0 is written directly. Every other value
(non-finite, subnormal, |x| < 1e-4, |x| >= 1e15) goes to repr itself, so
reprs equals repr on every input.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reprs"]

_WIDTH = 24  # the longest repr of a double, e.g. '-2.2250738585072014e-308'

_P10 = np.array([float(10 ** i) for i in range(23)])  # exact doubles up to 1e22
_SPLIT = 134217729.0                                  # 2**27 + 1: Dekker's splitting factor
_P10_HI = _P10 * _SPLIT - (_P10 * _SPLIT - _P10)
_P10_LO = _P10 - _P10_HI

# Four ASCII digits per uint32 (byte order = digit order), and the number of
# trailing zero digits of each four-digit group (4 for 0000).
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
_QUAD_BYTES = np.stack([np.tile(np.repeat(_DIGITS, 10 ** (3 - j)), 10 ** j) for j in range(4)],
                       axis=1)
_QUAD = _QUAD_BYTES.view(np.uint32).reshape(-1)
_ZERO = _QUAD_BYTES == ord("0")
_QUAD_ZEROS = _ZERO[:, 3] * (1 + _ZERO[:, 2] * (1 + _ZERO[:, 1]
                                                  * (1 + _ZERO[:, 0].astype(np.int8))))
del _DIGITS, _QUAD_BYTES, _ZERO


def _layout_masks():
    """Byte masks of each positional layout, keyed by (sign, column of '.', length).

    `before` selects the columns left of the point (after the sign) and
    `after` those right of it, both short of the length; `punct` holds the
    '.' and the '-'.
    """
    sign, point, length = (a.reshape(-1) for a in np.indices((2, 16, _WIDTH + 1)))
    point = point + sign
    prefix = np.tri(_WIDTH + 2, _WIDTH, -1, dtype=np.uint8) * np.uint8(255)  # row j: j bytes
    before = prefix[np.minimum(point, length)] & ~prefix[sign]
    after = prefix[length] & ~prefix[point + 1]
    punct = np.eye(_WIDTH + 1, _WIDTH, dtype=np.uint8)[point] * np.uint8(ord("."))
    punct[:, 0] |= sign.astype(np.uint8) * np.uint8(ord("-"))
    return tuple(mask.view(f"S{_WIDTH}").reshape(-1) for mask in (before, after, punct))


_BEFORE, _AFTER, _PUNCT = _layout_masks()


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**k as p + e exactly (Dekker's two-product; 10**k is split once)."""
    p = x * _P10[k]
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    bh, bl = _P10_HI[k], _P10_LO[k]
    return p, ((hi * bh - p) + hi * bl + lo * bh) + lo * bl


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits of positive x in [1e-4, 1e15).

    Returns (d, k): d * 10**-k is repr's decimal, with d padded by zeros to
    17 digits, 10**16 <= d < 10**17.
    """
    k = 16 - np.floor(np.log10(x)).astype(np.int64)
    p, e = _scaled(x, k)
    # log10 may land one decade off next to a power of ten
    fix = ((p < 1e16) | ((p == 1e16) & (e < 0))).astype(np.int64) \
        - ((p > 1e17) | ((p == 1e17) & (e >= 0)))
    off = np.flatnonzero(fix)
    k[off] += fix[off]
    p[off], e[off] = _scaled(x[off], k[off])
    r = np.rint(e)
    f = e - r
    d17 = p.astype(np.int64) + r.astype(np.int64)
    del p, e, r
    q = d17 // 10
    t = (d17 - q * 10) + f
    d16 = q + ((t > 5) | ((t == 5) & (q & 1 == 1)))
    q = d17 // 100
    d15 = q + ((d17 - q * 100) + f > 50)
    ok15 = d15.astype(np.float64) / _P10[k - 2] == x
    half = ((x.view(np.int64) >> 52) - 53 << 52).view(np.float64) * _P10[k]  # ulp(x) / 2 * 10**k
    delta = (d16 * 10 - d17).astype(np.float64)
    ok16 = (delta - half < f) & (f < delta + half)
    np.copyto(d17, d16 * 10, where=ok16)
    np.copyto(d17, d15 * 100, where=ok15)
    return d17, k


def _positional(d: np.ndarray, k: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """repr's positional form of (-1)**neg * d * 10**-k, d of 17 digits, as S24.

    Overwrites d.
    """
    n = d.size
    exp10 = 16 - k                                   # decimal exponent, -4..14
    # Row bytes 7..10 are '0000' and 11..27 the 17 digits: the digit string
    # with four leading zeros, enough for '0.000' before the digits. Reads
    # past byte 27 run into the next row (a spare row ends the buffer) and
    # are masked off.
    rows = np.empty((n + 1, 8), dtype=np.uint32)
    rows[:, 1] = _QUAD[0]
    lead = d // 10**16
    rows[:n, 2] = _QUAD[lead]                        # '000' + leading digit
    d -= lead * 10**16
    hi = d // 10**8
    d -= hi * 10**8
    g1, g3 = hi // 10_000, d // 10_000
    hi -= g1 * 10_000
    d -= g3 * 10_000
    groups = (g1, hi, g3, d)                         # four digits each
    for col, group in enumerate(groups, start=3):
        rows[:n, col] = _QUAD[group]
    zeros = _QUAD_ZEROS[d]                           # trailing zero digits
    run = d == 0
    for group in groups[2::-1]:
        zeros += run * _QUAD_ZEROS[group]
        run &= group == 0
    del lead, hi, g1, g3, groups, run
    # The unsigned string is the row from byte 7 + start on, with '.' after
    # the units digit, at column `point`. Its bytes left of the point come
    # from the window at that byte, those right of it from the window one
    # byte earlier; a '-' moves both windows one byte earlier.
    start = 4 + np.minimum(exp10, 0)                 # below 1: keep -exp10 zeros, '0.0..'
    point = np.maximum(exp10, 0) + 1
    length = np.maximum(22 - zeros - start, exp10 + 3) + neg  # last nonzero digit, or '.0'
    key = (neg * 16 + point) * (_WIDTH + 1) + length
    first = np.arange(7, 32 * n, 32) + start - neg
    del exp10, zeros, start, point, length
    flat = rows.reshape(-1).view(np.uint8)
    windows = np.ndarray(buffer=flat, dtype=f"S{_WIDTH}", shape=(flat.size - _WIDTH + 1,),
                         strides=(1,))
    out = windows[first]
    bits = out.view(np.uint64)
    bits &= np.take(_BEFORE, key).view(np.uint64)
    shifted = windows[first - 1].view(np.uint64)
    shifted &= np.take(_AFTER, key).view(np.uint64)
    bits |= shifted
    bits |= np.take(_PUNCT, key).view(np.uint64)
    return out


def reprs(values) -> np.ndarray:
    """repr(float(v)) of every element of a 1-D array, as ASCII bytes in an S24 array.

    `.tolist()` of the result gives the bytes objects (numpy drops the
    padding). Exact for every float64, including NaN, infinities,
    subnormals and -0.0.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"reprs takes a 1-D array, got shape {x.shape}")
    out = np.empty(x.size, dtype=f"S{_WIDTH}")
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1e15)
    zero = mag == 0
    out[fast] = _positional(*_shortest(mag[fast]), np.signbit(x[fast]))
    out[zero] = np.where(np.signbit(x[zero]), b"-0.0", b"0.0")
    rest = ~(fast | zero)
    out[rest] = [repr(v).encode() for v in x[rest].tolist()]
    return out
