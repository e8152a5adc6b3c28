"""Render float64 row blocks as exactly the bytes Python's '%.17g' prints.

`BlockFormatter(separators)(table)` yields the text of a 2-D float table,
each value followed by the separator of its column, as bytes chunks of
whole rows; `ncpath kernel` and `ncpath symbol` write their artifacts with it.

Every value is printed with 17 significant digits, correctly rounded (ties
to even), like `'%.17g' % value`: trailing zeros are dropped, and the value
is written in fixed notation when its decimal exponent X is in [-4, 16],
otherwise as d.ddd…e±XX.  Per value, with X = ⌊log10|x|⌋ and P = 16 − X,
|x|·10^P is formed as a double-double product (10^P held as hi + lo, both
from Python integers, and Dekker's exact product), so that its integer part
and fraction are known to about 10^-14; the 17-digit integer is that product
rounded to nearest.  The digits come from a table of 4-digit groups, and each
value's text is laid out in a fixed 48-byte slot that holds every character
any spelling can use, with NUL in the places this value does not use; one
`bytes.translate` drops the NULs and joins the slots.

A value is handed to Python's '%.17g' instead when the product cannot
decide its digits: a fraction within 2^-40 of ½ (a possible exact tie), a
product outside [10^16, 10^17) (log10 off by one, or rounding up to 10^17),
|x| outside [1e-250, 1e250] (where the tables and the product stop), and NaN
or ±inf.  Zero needs no product: it prints as 0 or -0.

A formatter renders any table in calls of ⌊4096 / columns⌋ rows (one row
at least), so the caller never chooses a size.  It keeps only its separator
words between calls: each call works in fresh NumPy temporaries, about
1.3 MB traced at 4096 values (the float and integer rows, the 48-byte slots,
their masks and the joined bytes), all freed when the call returns.
"""

from __future__ import annotations

import numpy as np

_U64 = np.dtype("<u8")     # eight text bytes, first byte lowest
_SPLIT = 134217729.0       # 2^27 + 1: Veltkamp's split of a double into two halves
_TINY, _HUGE = 1e-250, 1e250
_LOW = -251                # decimal exponents X the product tables cover: _LOW … -_LOW
_TIE = 2.0 ** -40          # a fraction this close to ½ may be an exact tie
_SLOT = 6                  # words per value: 48 bytes
_X0 = 400                  # offset of X in the exponent-indexed tables
_CALL_VALUES = 4096        # values per render call, at most (one row at least)


def _power_tables():
    """10^(16 - X) for X in [_LOW, -_LOW] as hi + lo, hi split into halves."""
    hi, lo = [], []
    for exponent in range(_LOW, 1 - _LOW):
        num, den = 10 ** max(16 - exponent, 0), 10 ** max(exponent - 16, 0)
        h = num / den                       # correctly rounded
        h_num, h_den = h.as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))  # the rest, rounded
        hi.append(h)
    hi = np.array(hi)
    split = _SPLIT * hi
    hi_hi = split - (split - hi)
    return hi, hi_hi, hi - hi_hi, np.array(lo)


def _text_words(texts, width):
    """ASCII texts, NUL-padded to width bytes, as little-endian words."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width).view(_U64)


_HI, _HI_HI, _HI_LO, _LO = _power_tables()

# A value's slot, six little-endian words (48 bytes):
#   [sign][0.000][d0][.] | d1 . d2 . d3 . d4 . | … | d13 . … d16 . | [e±XXX][sep]
# its layout class: fixed notation with X = 0 … 16 (the '.' after digit X),
# fixed with X = -1 … -4 ('0.' and -X-1 zeros before the digits), or
# scientific with a 2- or 3-digit exponent.

# the four digits of 0 … 9999, each followed by a '.' that the mask keeps only
# where the decimal point falls, and how many of the four are trailing zeros
_DIGITS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
_QUADS = np.full((10000, 8), ord("."), np.uint8)
_QUADS[:, ::2] = _DIGITS + ord("0")
_QUADS = _QUADS.view(_U64).reshape(-1)
_TRAILING_ZEROS = np.cumprod(_DIGITS[:, ::-1] == 0, axis=1).sum(axis=1)
_EXPONENTS = _text_words([f"e{x:+03d}" for x in range(-_X0, _X0 + 1)], 8).reshape(-1)
# the first word without d0 (byte 6) and with a NUL for the sign (byte 0)
_FIRST_WORD = int.from_bytes(b"\0" b"0.000" b"\0" b".", "little")

# per X + _X0: the layout class, and the digits fixed notation puts before the point
_CLASS_OF_X = np.array([x if 0 <= x <= 16 else 16 - x if -4 <= x < 0 else
                        21 if abs(x) < 100 else 22 for x in range(-_X0, _X0 + 1)])
_CLASSES = 23
_INTEGER_DIGITS = np.array([x + 1 if 0 <= x <= 16 else 0 for x in range(-_X0, _X0 + 1)])


def _slot_masks():
    """Per (kept digits K, layout class): 0xFF on each slot byte the text uses."""
    masks = np.zeros((18, _CLASSES, 8 * _SLOT), np.uint8)
    for cls in range(_CLASSES):
        dot, lead, exponent = (cls, 0, 0) if cls <= 16 else \
            (None, cls - 15, 0) if cls <= 20 else (0, 0, cls - 17)
        for kept in range(1, 18):
            mask = masks[kept, cls]
            mask[0] = 0xFF                      # the sign, NUL unless negative
            mask[1:1 + lead] = 0xFF
            mask[6:6 + 2 * kept:2] = 0xFF
            if dot is not None and dot + 1 < kept:
                mask[7 + 2 * dot] = 0xFF
            mask[40:40 + exponent] = 0xFF
            mask[45] = 0xFF                     # the separator
    return masks.view(_U64).reshape(-1, _SLOT)


_MASKS = _slot_masks()


class BlockFormatter:
    """Renders 2-D float64 tables whose columns end with `separators` (one
    byte each) as the bytes of `'%.17g'` per value, row after row."""

    def __init__(self, separators: bytes):
        self._separators = np.frombuffer(separators, np.uint8).astype(_U64) << 40
        self._rows = max(1, _CALL_VALUES // len(separators))

    def __call__(self, table):
        """Yield the text of table, one bytes chunk per `self._rows` rows."""
        for lo in range(0, len(table), self._rows):
            yield self._render(np.ascontiguousarray(table[lo:lo + self._rows], np.float64))

    def _render(self, table):
        x = table.reshape(-1)

        # N = |x|·10^(16-X) rounded to an integer, with X = ⌊log10|x|⌋
        a = np.abs(x)
        zero = a == 0
        ok = (a >= _TINY) & (a <= _HUGE)
        a[~ok] = 1.0                            # keeps log10 and the tables in range
        e = np.floor(np.log10(a)).astype(np.int64) - _LOW  # X as an index of the power tables
        p = a * _HI[e]                          # p + t = a·hi exactly (Dekker)
        ah = a * _SPLIT
        ah -= ah - a
        al = a - ah
        hi_hi, hi_lo = _HI_HI[e], _HI_LO[e]
        t = ah * hi_hi - p + ah * hi_lo + al * hi_hi + al * hi_lo + _LO[e] * a
        whole = np.floor(t)                     # a·10^P = p + t, to about 10^-14
        t -= whole                              # the fraction
        n17 = p.astype(np.int64) + whole.astype(np.int64)  # ⌊a·10^P⌋ (p ≥ 2^53 is whole)
        ok &= (n17 >= 10 ** 16) & (np.abs(t - 0.5) >= _TIE)
        n17 += t > 0.5
        ok &= n17 < 10 ** 17
        n17[zero] = 0
        ok |= zero
        e += _X0 + _LOW                         # X as an index of the exponent tables
        e[zero] = _X0

        # the 17 digits: d0, then four groups of four
        d0, rest = np.divmod(n17, 10 ** 16)
        g1, rest = np.divmod(rest, 10 ** 12)
        g2, rest = np.divmod(rest, 10 ** 8)
        g3, g4 = np.divmod(rest, 10 ** 4)
        words = np.empty((x.size, _SLOT), _U64)
        sign = (x.view(np.int64) >> 63) & ord("-")  # where the sign bit is set
        words[:, 0] = (d0 + ord("0")) << 48 | _FIRST_WORD | sign
        for column, group in enumerate((g1, g2, g3, g4), 1):
            words[:, column] = _QUADS[group]
        words[:, 5] = (_EXPONENTS[e].reshape(table.shape) | self._separators).reshape(-1)

        # digits kept: 17 less the trailing zeros, and at least the integer part
        kept = 17 - _TRAILING_ZEROS[g4]
        short = np.flatnonzero(g4 == 0)
        if short.size:
            z1, z2, z3 = (_TRAILING_ZEROS[g[short]] for g in (g1, g2, g3))
            kept[short] = np.where(g3[short], 13 - z3, np.where(g2[short], 9 - z2, 5 - z1))
        words &= _MASKS[np.maximum(kept, _INTEGER_DIGITS[e]) * _CLASSES + _CLASS_OF_X[e]]

        bad = np.flatnonzero(~ok)
        if bad.size:
            words[bad, :5] = 0
            words[bad, :3] = _text_words([b"%.17g" % v for v in x[bad].tolist()], 24)
            words[bad, 5] &= 0xFF << 40         # the separator alone
        return words.tobytes().translate(None, b"\0")
