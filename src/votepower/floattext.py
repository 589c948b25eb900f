"""Float text for the CLI's CSV tables: ``"%.17g" % v`` of a whole numpy
column, made a block at a time by a vectorized kernel.

``commands`` imports this module, and with it numpy, on the first float
array column it writes; a table of Python numbers is written without it.
"""

from __future__ import annotations

import functools

import numpy as np

# --------------------------------------------------------------------------
# "%.17g" in numpy
#
# |x| * 10**(16 - e), e = floor(log10 |x|), is computed in double-double
# arithmetic: 10**p is a pair hi + lo, the product |x| * hi is made exact by
# Veltkamp splitting (numpy has no fused multiply-add), and |x| * lo is
# added to its low part.  The product is at least 10**16 > 2**53, so its
# high part is an integer, and the 17 significant digits are that integer
# plus the rounded low part.  The error is below 2**-46, so rounding the
# low part to nearest is right unless its fraction lies within 2**-30 of
# 1/2; those values, true ties among them, go to Python's "%.17g" %, and so
# do NaN, infinities and |x| outside [1e-30, 1e30].  The digits become text
# by a table of 3-digit groups and are laid out by one byte template per
# class (fixed or exponent layout, digits kept, sign).

_G17_RANGE = (1e-30, 1e30)
_POW10_LOW = -16  # the table holds 10**p for p in [-16, 48]
_VELTKAMP = 134217729.0  # 2**27 + 1


@functools.cache  # built on first use, so commands that write no CSV floats skip it
def _pow10_table() -> np.ndarray:
    """Rows hi, lo, hi's high 26 bits and hi's low bits, one column per
    p, with hi + lo = 10**p to about 2**-106, from exact integer
    arithmetic."""
    rows = []
    for p in range(_POW10_LOW, 49):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        hi = num / den  # correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(rows).T
    high = _VELTKAMP * hi - (_VELTKAMP * hi - hi)
    return np.stack([hi, lo, high, hi - high])


def _scaled(a: np.ndarray, e: np.ndarray):
    """The integer part and the fraction of a * 10**(16 - e)."""
    hi, lo, hi_high, hi_low = _pow10_table().take(16 - e - _POW10_LOW, axis=1)
    a_high = _VELTKAMP * a - (_VELTKAMP * a - a)
    a_low = a - a_high
    top = a * hi
    rest = ((a_high * hi_high - top) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    rest += a * lo
    whole = np.floor(rest)
    return top.astype(np.int64) + whole.astype(np.int64), rest - whole


def _digits_exponent(a: np.ndarray):
    """(d, e, exact): a is d * 10**(e - 16) rounded to nearest, with d in
    [10**16, 10**17), wherever ``exact``; elsewhere the caller falls back."""
    exact = (a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1])
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, fraction = _scaled(a, e)
    step = (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)  # log10 may be one off
    redo = np.flatnonzero(step)
    if redo.size:
        e[redo] += step[redo]
        whole[redo], fraction[redo] = _scaled(a[redo], e[redo])
    d = whole + (fraction > 0.5)
    exact &= (np.abs(fraction - 0.5) > 2.0 ** -30) & (whole >= 10 ** 16) & (d < 10 ** 17)
    return d, e, exact


def _ascii_words(texts) -> np.ndarray:
    """Each text, at most 8 ASCII bytes, NUL-padded into one uint64."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), np.uint64)


@functools.cache
def _group_words():
    """Each 3-digit group 0-999 as the word "d.d.d.", and its count of
    trailing zeros."""
    digits = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    text = np.zeros((1000, 8), dtype=np.uint8)
    text[:, 0:6:2] = digits
    text[:, 1:6:2] = ord(".")
    zeros = np.cumprod(digits[:, ::-1] == ord("0"), axis=1).sum(axis=1)
    return text.view(np.uint64).ravel(), zeros


# A value's 64 bytes, as eight words: word 0 "-0.000" and two NULs, words
# 1-6 its six 3-digit groups as "d.d.d." (the first group's leading digit
# is always 0), word 7 "e+XX".  Its text is some of these bytes in order.
_LEAD_WORD = _ascii_words(["-0.000"])
_EXPONENT_WORDS = _ascii_words("e%+03d" % e for e in range(-31, 32))
_DIGIT_BYTE = 8 + 8 * (np.arange(1, 18) // 3) + 2 * (np.arange(1, 18) % 3)  # group digits 1-17
_EXPONENT_BYTE = 56
_NUL_BYTE = 7
_G17_WIDTH = 24  # the longest "%.17g" text, "-2.2250738585072014e-308" (a fallback's)


@functools.cache
def _layout_table() -> np.ndarray:
    """Byte positions of the text of every class, NUL-padded: classes are
    (layout, kept digits, sign), layout e + 4 for the fixed notation of
    exponent e in [-4, 16] and 21 for exponent notation."""
    layout, kept, neg = np.meshgrid(np.arange(22), np.arange(1, 18), [0, 1], indexing="ij")
    layout, kept, neg = layout.ravel(), kept.ravel(), neg.ravel()
    sci = layout == 21
    e = np.where(sci, 17, layout - 4)
    small = e < 0  # fixed notation below 1: "0." and -e - 1 zeros
    keep = np.zeros((layout.size, 64), dtype=bool)
    keep[:, 0] = neg
    keep[:, 1:3] = small[:, None]
    keep[:, 3:6] = np.arange(1, 4) <= np.where(small, -e - 1, 0)[:, None]
    last = np.where(sci | small, kept, np.maximum(kept, e + 1))  # integer digits stay
    keep[:, _DIGIT_BYTE] = np.arange(17) < last[:, None]
    dot = np.where(sci, 0, np.where(small, -1, e))  # the digit the point follows
    keep[:, _DIGIT_BYTE + 1] = (np.arange(17) == dot[:, None]) & (kept > dot + 1)[:, None]
    keep[:, _EXPONENT_BYTE:_EXPONENT_BYTE + 4] = sci[:, None]
    order = np.argsort(~keep, axis=1, kind="stable")[:, :_G17_WIDTH]
    order[np.arange(_G17_WIDTH) >= keep.sum(axis=1)[:, None]] = _NUL_BYTE
    return order


_G17_CHUNK = 4096  # values laid out at once, which keeps the temporaries small
_ROW_BYTES = np.arange(0, 64 * _G17_CHUNK, 64)[:, None]  # where each value's bytes start


def _g17(values: np.ndarray) -> list[str]:
    """``"%.17g" % v`` of every value."""
    text = []
    for start in range(0, values.size, _G17_CHUNK):
        text += _g17_chunk(values[start:start + _G17_CHUNK]).tolist()
    return text


def _g17_chunk(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of every value, as an array of ``str``."""
    a = np.abs(values)
    d, e, exact = _digits_exponent(a)
    d[~exact], e[~exact] = 0, 0  # zero is laid out as "0"; the rest falls back
    exact |= a == 0
    halves = np.stack(np.divmod(d, 10 ** 9), axis=1).astype(np.float64)
    top = np.floor(halves / 1e6)  # below 10**9, float floor division is exact
    rest = halves - top * 1e6
    middle = np.floor(rest / 1e3)
    groups = np.stack([top, middle, rest - middle * 1e3], axis=2).reshape(-1, 6).astype(np.intp)
    group_words, group_zeros = _group_words()
    zeros = group_zeros[groups[:, 5]]  # trailing zeros of the 17 digits
    for i in range(4, -1, -1):
        rows = np.flatnonzero(zeros == 15 - 3 * i)  # groups after i are all 000
        zeros[rows] += group_zeros[groups[rows, i]]
    words = np.empty((d.size, 8), dtype=np.uint64)
    words[:, 0] = _LEAD_WORD
    words[:, 1:7] = group_words[groups]
    words[:, 7] = _EXPONENT_WORDS[np.clip(e, -31, 31) + 31]
    layout = np.where((e < -4) | (e >= 17), 21, e + 4)
    kept = 17 - np.minimum(zeros, 16)
    positions = _layout_table().take((layout * 17 + kept - 1) * 2 + np.signbit(values), axis=0)
    positions += _ROW_BYTES[:d.size]
    chars = words.view(np.uint8).ravel().take(positions).astype(np.uint32)
    text = chars.view(f"U{_G17_WIDTH}").ravel()
    for i in np.flatnonzero(~exact).tolist():
        text[i] = "%.17g" % float(values[i])
    return text


def float_text(values: np.ndarray) -> list[str]:
    """``format(v, ".17g")`` of every value.  A run of neighbours with
    equal bits is formatted once.  Bits, not values, so -0.0 after 0.0 is
    not merged.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    text = _g17(values[starts])
    if len(text) == values.size:
        return text
    return np.array(text, dtype=object)[np.cumsum(starts) - 1].tolist()
