"""The value writers of the row writer (cli._table_chunks): each float of a
vector as its text in a fixed cell of bytes, with numpy, byte for byte as
Python formats it. CsvCells writes "%.15g", ReprCells repr.

cli imports this module only when a command writes rows. Where no bytecode
cache is written (PYTHONDONTWRITEBYTECODE), every run compiles what it
imports, and compiling these writers raised the peak RSS of commands that
never use them, such as verify and sweep --summary, by 0.3 to 0.5 MiB.
"""

from __future__ import annotations

import numpy as np


def _two_product(a: np.ndarray, b: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The error a b - hi of the rounded products hi = a * b, exactly
    (Dekker's product, with Veltkamp's split by 2^27 + 1)."""
    a_hi = 134217729.0 * a
    a_hi -= a_hi - a
    b_hi = 134217729.0 * b
    b_hi -= b_hi - b
    a_lo, b_lo = a - a_hi, b - b_hi
    return ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


class _Cells:
    """The tables the value writers share. A writer puts the text of each
    float v into a fixed cell of CELL bytes, each a byte of the text or a
    NUL pad that one bytes.translate drops: a start row of 8 bytes, then the
    16 digits of an integer n < 10^16 as (digit, ".") pairs, in four groups
    of four from pairs. Which bytes stay depends only on the sign, on the
    decimal exponent and on the count of significant digits; a writer's keep
    holds that mask for each case. A writer builds its own tables, in about
    a millisecond, so commands that write none do not pay for them.
    """

    CELL = 40
    # CsvCells starts every cell with row 10000; ReprCells writes the
    # leading digit d of its 17 in the start row 10001 + d
    STARTS = b",-0.000\0" + b"".join(b"-0.000%d." % d for d in range(10))

    def __init__(self):
        self.pow10 = np.cumprod([1.0] + [10.0] * 22)  # 10^0 .. 10^22, all exact
        digits = np.indices((10,) * 4, np.uint8).reshape(4, 10000)  # column q: q's digits
        # row q < 10000: the digits of q as (digit, ".") pairs; then the start
        # rows. Each row is gathered as one uint64
        pairs = np.full((10011, 8), ord("."), np.uint8)
        pairs[:10000, ::2] = digits.T + ord("0")
        pairs[10000:] = np.frombuffer(self.STARTS, np.uint8).reshape(11, 8)
        self.pairs = pairs.view(np.uint64)[:, 0]
        zero = digits == 0
        trailing = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0])))  # 4 for q = 0
        self.trailing_zeros = trailing.astype(np.int8)

    @classmethod
    def masks(cls, keep: np.ndarray) -> np.ndarray:
        """A keep table of bools, CELL per row, as rows of CELL // 8 uint64
        masks: 0xff for each byte kept."""
        return (keep.reshape(-1, cls.CELL) * np.uint8(0xff)).view(np.uint64)

    def cells(self, starts: np.ndarray, n: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The (len(n), CELL) uint8 cells of the start rows starts and n's
        digits, masked by the keep rows rows minus the count of n's trailing
        zeros (of 16)."""
        top, bottom = np.divmod(n, 10 ** 8)
        quads = [*np.divmod(top, 10 ** 4), *np.divmod(bottom, 10 ** 4)]  # n's digits by 4s
        z0, z1, z2, z3 = (np.take(self.trailing_zeros, quad) for quad in quads)  # 4 for 0000
        cells = np.empty((len(n), 5), np.uint64)
        for i, index in enumerate([starts, *quads]):
            cells[:, i] = np.take(self.pairs, index)
        zeros = z3 + (z3 == 4) * (z2 + (z2 == 4) * (z1 + (z1 == 4) * z0))
        cells &= np.take(self.keep, rows - zeros, axis=0)
        return cells.view(np.uint8)

    def by_python(self, cells: np.ndarray, x: np.ndarray, others: np.ndarray, spec: str,
                  width: int, at: int) -> None:
        """Writes spec % v, at most width characters, for v = x[others] into
        cells[others] from byte at on; no text of a float holds a space."""
        if others.size:
            texts = (spec * others.size % tuple(x[others].tolist())).encode("ascii")
            texts = np.frombuffer(texts, np.uint8).reshape(others.size, width)
            cells[others, at:at + width] = np.where(texts == ord(" "), 0, texts)


class CsvCells(_Cells):
    """Writes "," + "%.15g" % v for each float v.

    A cell is ",-0.000", a NUL, then a 0 and the 15 digits of
    n = round(|v| 10^(14 - e)), e = floor(log10 |v|).
    """

    def __init__(self):
        super().__init__()
        # row (sign * 21 + e + 4) * 16 + count keeps the bytes of the text of a
        # value with that sign, exponent e (-4 to 14) and count of significant
        # digits; e = 15 keeps "0" or "-0", e = 16 the "," alone
        e = np.arange(-4, 17)[:, None, None]
        count = np.arange(16)[:, None]
        pos = np.arange(self.CELL)
        j = (pos - 10) // 2  # pairs from pos 10 hold digit j of n
        keep = np.empty((2, 21, 16, self.CELL), bool)
        keep[:] = ((pos == 0) | ((pos == 2) & ((e < 0) | (e == 15))) | ((pos == 3) & (e < 0))
                   | ((pos >= 4) & (pos <= 6) & (pos <= 2 - e))
                   | ((pos >= 10) & (pos % 2 == 0) & ((j < count) | (j <= e)) & (e <= 14))
                   | ((pos >= 10) & (pos % 2 == 1) & (j == e) & (count > e + 1)))
        keep[1, :, :, 1] = e[:, :, 0] <= 15  # the minus sign
        self.keep = self.masks(keep)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The (len(x), CELL) cells of the float vector x.

        Values in fixed notation (1e-4 <= |v| < 1e15) and zeros are written
        here, all others by Python. p = 10^(14 - e) is exact and |v| p < 10^15
        < 2^50, so the rounded product hi has an ulp of at most 1/8, and its
        error lo (Dekker's exact product) decides only a fraction of exactly
        .5, which rounds half to even as CPython's dtoa does. An e that log10
        put one too low gives n = 10^15, the same digits as a carry; one too
        high gives hi < 10^14, which Python formats.
        """
        ax = np.abs(x)
        finite = (ax > 0) & (ax < 1e16)
        safe = np.where(finite, ax, 1.0)
        e = np.clip(np.floor(np.log10(safe)), -4, 14).astype(np.intp)
        p = self.pow10[14 - e]
        hi = safe * p
        whole = np.floor(hi)
        n = whole.astype(np.int64)
        frac = hi - whole
        up = frac > 0.5
        tie = np.flatnonzero(frac == 0.5)
        if tie.size:
            lo = _two_product(safe[tie], p[tie], hi[tie])
            up[tie] = (lo > 0) | ((lo == 0) & (n[tie] % 2 == 1))
        n += up
        carry = n == 10 ** 15
        n[carry] = 10 ** 14
        e += carry
        fixed = finite & (hi >= 1e14) & (n < 10 ** 15) & (e <= 14)

        case = np.where(fixed, e, np.where(ax == 0, 15, 16))
        rows = (np.signbit(x) * 21 + case + 4) * 16 + 15
        cells = self.cells(np.full(len(x), 10000), n, rows)
        # at most 22 characters, "-1.23456789012345e-100"
        self.by_python(cells, x, np.flatnonzero(case == 16), "%-22.15g", 22, 1)
        return cells


class ReprCells(_Cells):
    """Writes repr(v), the shortest text that reads back as v, for each float v.

    A cell is "-0.000", the first of n's 17 digits and a ".", then the other
    16 as (digit, ".") pairs, where n is the shortest decimal of v that
    decimals finds, scaled to 17 digits (trailing zeros included).
    """

    GUARD = 1e-6  # scaled units (digits of n); the errors of dist and half_ulp are below 1e-13

    def __init__(self):
        super().__init__()
        # row (sign * 22 + e + 4) * 18 + count keeps the bytes of the text of
        # a value with that sign, exponent e (-4 to 15) and count of
        # significant digits: "0.", e's zeros and the digits if e < 0, else
        # the digits, at least to e + 1, with the "." after digit e (so an
        # integer ends in ".0"); e = 16 keeps "0.0" or "-0.0", e = 17 nothing
        e = np.arange(-4, 18)[:, None, None]
        count = np.arange(18)[:, None]
        pos = np.arange(self.CELL)
        j = (pos - 6) // 2  # pos 6 + 2 j holds digit j of n, pos 7 + 2 j the "." after it
        keep = np.empty((2, 22, 18, self.CELL), bool)
        keep[:] = ((((pos == 1) | (pos == 2)) & ((e < 0) | (e == 16)))
                   | ((pos == 3) & (e == 16))
                   | ((pos >= 3) & (pos <= 5) & (pos <= 1 - e))
                   | ((pos >= 6) & (pos % 2 == 0) & (e <= 15)
                      & ((j < count) | ((e >= 0) & (j <= e + 1))))
                   | ((pos >= 6) & (pos % 2 == 1) & (j == e) & (e <= 15)))
        keep[1, :, :, 0] = e[:, :, 0] <= 16  # the minus sign
        self.keep = self.masks(keep)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The (len(x), CELL) cells of the float vector x: zeros and the values
        decimals finds are written here, all others by Python."""
        n, e, ok = self.decimals(np.abs(x))
        lead, n = np.divmod(n, 10 ** 16)
        case = np.where(ok, e, np.where(x == 0, 16, 17))
        rows = (np.signbit(x) * 22 + case + 4) * 18 + 17
        cells = self.cells(10001 + lead, n, rows)
        # at most 24 characters, "-2.2250738585072014e-308"
        self.by_python(cells, x, np.flatnonzero(case == 17), "%-24r", 24, 0)
        return cells

    def decimals(self, ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, e, ok): for each v in ax >= 0 where ok holds, repr's digits
        as the 17-digit integer n, and e = floor(log10 v) of the text.

        ok holds in fixed notation, 1e-4 <= v < 1e16. With p = 10^(16 - e),
        exact as 16 - e <= 20, Dekker's exact product gives v p = hi + lo,
        where hi is an integer in [10^16, 10^17) once e is right (log10 can
        miss by one next to a power of ten). The nearest 17-, 16- and
        15-digit decimals D of v come from hi and lo, and the shortest that
        lies strictly inside v's rounding interval, half an ulp times p on
        each side, is repr's: no shorter decimal fits unless the 15-digit one
        does, at most one 15-digit decimal fits, and the 17-digit one always
        does. ok fails, so that Python writes v, for powers of two, whose
        interval is narrower below, and where a tie or a bound comparison
        falls within GUARD.
        """
        fixed = (ax >= 1e-4) & (ax < 1e16)
        safe = np.where(fixed, ax, 1.0)
        e = np.clip(np.floor(np.log10(safe)), -4, 15).astype(np.intp)
        p = self.pow10[16 - e]
        hi = safe * p
        lo = _two_product(safe, p, hi)
        below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        miss = np.flatnonzero(below | above)
        if miss.size:
            e[miss] += above[miss].astype(np.intp) - below[miss]
            p[miss] = self.pow10[16 - e[miss]]
            hi[miss] = safe[miss] * p[miss]
            lo[miss] = _two_product(safe[miss], p[miss], hi[miss])
        whole = hi.astype(np.int64)
        ulp = np.spacing(safe)
        ok = fixed & (safe != ulp * 2.0 ** 52)  # a power of two has a narrower ulp below
        half_ulp = ulp * p / 2
        n = whole
        for unit in (1, 10, 100):  # D with 17, 16 and 15 digits; the shortest inside wins
            q, r = np.divmod(whole, unit)
            c = np.floor((r + lo) / unit + 0.5)
            dist = np.abs((unit * c - r) - lo)  # |D - |v| p|
            ok &= (np.abs(dist - unit / 2) > self.GUARD) & (np.abs(dist - half_ulp) > self.GUARD)
            n = np.where(dist < half_ulp, (q + c.astype(np.int64)) * unit, n)
        carry = n == 10 ** 17
        n[carry] = 10 ** 16
        e += carry
        return n, e, ok & (e <= 15)
