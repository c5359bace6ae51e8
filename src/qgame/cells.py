"""The grid row writer (_table_chunks) and its value writers: each float of
a vector as its text in a fixed cell of bytes, with numpy, byte for byte as
Python formats it. CsvCells writes "%.15g", ReprCells repr, with one cell
layout and one body: they differ only in their digit finder and constants.
The row writer places the separators between the cells, and takes the
grid's angle texts from padded.

cli imports this module only when a command writes rows. Where no bytecode
cache is written (PYTHONDONTWRITEBYTECODE), every run compiles what it
imports, and compiling these writers raised the peak RSS of commands that
never use them, such as verify and sweep --summary, by 0.3 to 0.5 MiB.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

import numpy as np

CSV_ROWS = 1024  # rows per piece _table_chunks writes, in both formats, on any grid


def padded(texts: list[str]) -> np.ndarray:
    """ASCII texts as the rows of a NUL-padded uint8 array."""
    width = max(map(len, texts))
    data = "".join(text.ljust(width, "\0") for text in texts).encode("ascii")
    return np.frombuffer(data, np.uint8).reshape(len(texts), width)


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
    """The body the value writers share. A writer puts the text of each
    float v into a fixed cell of width bytes, each a byte of the text or a
    NUL pad that one bytes.translate drops: the start row "-0.000d.", where
    d is the leading digit of v's DIGITS-digit decimal n, then n's other
    digits as (digit, ".") pairs, up to n's last digit. The cell is gathered
    as CELL bytes, the start row and four groups of four pairs from pairs,
    with n padded with zeros to 17 digits. Which bytes stay depends only on
    the sign, on the decimal exponent e and on the count of significant
    digits; keep holds that mask for each case. Fixed notation, e from -4
    to MAX_E, and zeros are written here, an integer and zero with a ".0" if
    POINT_ZERO; all other values by Python as SPEC, left-justified in a
    width that leaves no space in a float's text. A writer builds its own
    tables, in about a millisecond, so commands that write none do not pay
    for them.
    """

    CELL = 40

    def __init__(self):
        self.pow10 = np.cumprod([1.0] + [10.0] * 22)  # 10^0 .. 10^22, all exact
        digits = np.indices((10,) * 4, np.uint8).reshape(4, 10000)  # column q: q's digits
        # row q < 10000: the digits of q as (digit, ".") pairs; then the start
        # rows of d = 0 to 9. Each row is gathered as one uint64
        pairs = np.full((10010, 8), ord("."), np.uint8)
        pairs[:10000, ::2] = digits.T + ord("0")
        pairs[10000:] = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)),
                                      np.uint8).reshape(10, 8)
        self.pairs = pairs.view(np.uint64)[:, 0]
        zero = digits == 0
        trailing = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0])))  # 4 for q = 0
        self.trailing_zeros = trailing.astype(np.int8)
        self.width = 5 + 2 * self.DIGITS  # to n's last digit; no text is longer
        # row (sign * (MAX_E + 7) + e + 4) * 18 + count keeps the bytes of the
        # text of a value with that sign, exponent e and count of significant
        # digits: "0.", e's zeros and the digits if e < 0, else the digits, at
        # least to e (e + 1 with POINT_ZERO), with the "." after digit e if
        # more follow; e = MAX_E + 1 keeps zero, e = MAX_E + 2 nothing
        e = np.arange(-4, self.MAX_E + 3)[:, None, None]
        count = np.arange(18)[:, None]
        pos = np.arange(self.CELL)
        j = (pos - 6) // 2  # pos 6 + 2 j holds digit j of n, pos 7 + 2 j the "." after it
        fixed, zero = e <= self.MAX_E, e == self.MAX_E + 1
        point = self.POINT_ZERO
        keep = np.empty((2, self.MAX_E + 7, 18, self.CELL), bool)
        keep[:] = (((pos >= 1) & (pos <= 1 - e) & (e < 0))
                   | ((pos >= 1) & (pos <= 1 + 2 * point) & zero)
                   | ((pos >= 6) & (pos % 2 == 0) & fixed & ((j < count) | (j <= e + point)))
                   | ((pos >= 6) & (pos % 2 == 1) & fixed & (j == e)
                      & (point | (count > e + 1))))
        keep[1, :, :, 0] = e[:, :, 0] <= self.MAX_E + 1  # the minus sign
        # 0xff for each byte kept, as CELL // 8 uint64 masks per row
        self.keep = (keep.reshape(-1, self.CELL) * np.uint8(0xff)).view(np.uint64)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The (len(x), width) uint8 cells of the float vector x."""
        n, e, ok = self.decimals(np.abs(x))
        lead, n = np.divmod(n, 10 ** (self.DIGITS - 1))
        n *= 10 ** (17 - self.DIGITS)
        # where ok fails, n may have more than DIGITS digits, so lead is masked
        # to keep its start row in the table
        starts = np.where(ok, lead, 0) + 10000
        case = np.where(ok, e, np.where(x == 0, self.MAX_E + 1, self.MAX_E + 2))
        rows = (np.signbit(x) * (self.MAX_E + 7) + case + 4) * 18 + 17
        top, bottom = np.divmod(n, 10 ** 8)
        quads = [*np.divmod(top, 10 ** 4), *np.divmod(bottom, 10 ** 4)]  # n's digits by 4s
        z0, z1, z2, z3 = (np.take(self.trailing_zeros, quad) for quad in quads)  # 4 for 0000
        cells = np.empty((len(x), 5), np.uint64)
        for i, index in enumerate([starts, *quads]):
            cells[:, i] = np.take(self.pairs, index)
        zeros = z3 + (z3 == 4) * (z2 + (z2 == 4) * (z1 + (z1 == 4) * z0))
        cells &= np.take(self.keep, rows - zeros, axis=0)
        cells = cells.view(np.uint8)
        others = np.flatnonzero(case == self.MAX_E + 2)
        if others.size:
            texts = (self.SPEC * others.size % tuple(x[others].tolist())).encode("ascii")
            texts = np.frombuffer(texts, np.uint8).reshape(others.size, -1)
            cells[others, :texts.shape[1]] = np.where(texts == ord(" "), 0, texts)
        return cells[:, :self.width]


class CsvCells(_Cells):
    """Writes "%.15g" % v for each float v, from n = round(|v| 10^(14 - e)),
    e = floor(log10 |v|), in fixed notation (1e-4 <= |v| < 1e15)."""

    DIGITS, MAX_E, POINT_ZERO = 15, 14, False
    SPEC = "%-22.15g"  # at most 22 characters, "-1.23456789012345e-100"

    def decimals(self, ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, e, ok): for each v in ax >= 0 where ok holds, "%.15g"'s digits
        as the 15-digit integer n, and e = floor(log10 v) of the text.

        p = 10^(14 - e) is exact and v p < 10^15 < 2^50, so the rounded
        product hi has an ulp of at most 1/8, and its error lo (Dekker's exact
        product) decides only a fraction of exactly .5, which rounds half to
        even as CPython's dtoa does. An e that log10 put one too low gives
        n = 10^15, the same digits as a carry; one too high gives hi < 10^14,
        which Python formats.
        """
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
        return n, e, finite & (hi >= 1e14) & (n < 10 ** 15) & (e <= 14)


class ReprCells(_Cells):
    """Writes repr(v), the shortest text that reads back as v, for each float
    v, from its shortest decimal that decimals finds, scaled to 17 digits
    (trailing zeros included), in fixed notation (1e-4 <= |v| < 1e16)."""

    DIGITS, MAX_E, POINT_ZERO = 17, 15, True
    SPEC = "%-24r"  # at most 24 characters, "-2.2250738585072014e-308"
    GUARD = 1e-6  # scaled units (digits of n); the errors of dist and half_ulp are below 1e-13

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


def _table_chunks(fields: tuple[str, ...], fmt: str, grid: StrategyGrid, pad: int,
                  chunks: Iterable[tuple]) -> Iterator[str]:
    """Per-profile rows in pieces: the bytes of cli._csv_table(fields, rows) for csv,
    of json.dumps(rows, indent=2) + "\n" nested pad - 2 spaces deep for json.

    A chunk is (prefix values, profiles, columns): cli._sweep_blocks makes
    one of each block (profiles, probs, alice, bob) of table_blocks, with the
    block's range of profiles, and equilibria one of epsilon_nash's array.
    profiles holds flat profile indices in output order, which grid.indices
    decodes, and columns one 1-D array per value field, in the same order.
    Each slice of at most CSV_ROWS profiles becomes one piece, built as bytes
    in both formats: a row is its head (the separator from the row before,
    and the prefix), then a fixed label and a text for each field from
    theta1 on. The four angles' texts are gathered by np.take from the
    NUL-padded text of the grid's theta and phi values, built once per table
    and none per grid point; the values' texts are the cells of CsvCells or
    ReprCells. So the pieces are bounded on any grid.
    """
    thetas, phis = grid.theta_values().tolist(), grid.phi_values().tolist()
    first = fields.index("theta1")  # the prefix fields come before it
    if fmt == "csv":
        cells, angle = CsvCells(), "%.15g".__mod__  # cli._fmt_csv's text of a float

        def head(prefix):
            return "".join("%.15g," % v for v in prefix)

        labels = ["" if i == first else "," for i in range(first, len(fields))]
        sep, end = "", "\n"
        header = ",".join(fields) + "\n"  # goes out with the first rows, or alone
        lead, empty, close = header, header, ""
    else:
        # every value is finite because GameMatrix bounds the payoffs by MAX_PAYOFF
        cells, angle = ReprCells(), json.dumps
        indent, sep = " " * pad, ",\n"
        end = "\n" + indent + "}"

        def head(prefix):
            return sep + indent + "{\n" + "".join(
                f'{indent}  "{f}": {json.dumps(v)},\n' for f, v in zip(fields, prefix))

        labels = [("" if i == first else ",\n") + f'{indent}  "{f}": '
                  for i, f in enumerate(fields) if i >= first]
        lead, empty, close = "[\n", "[]\n", f"\n{indent[2:]}]\n"
    angles = [padded([angle(v) for v in values]) for values in (thetas, phis)]
    # a row after its head: the labels, NULs where the texts go and the end
    widths = [angles[0].shape[1], angles[1].shape[1]] * 2 + [cells.width] * (len(labels) - 4)
    body, offsets = "", []
    for label, width in zip(labels, widths):
        body += label
        offsets.append(len(body))
        body += "\0" * width
    body += end

    def render(row, shift, profiles, values):
        """The rows of the profiles: each is row, a head of shift bytes and
        then body, with the texts written into its NUL slots."""
        texts = [np.take(angles[i % 2], index, axis=0)  # theta, phi, theta, phi
                 for i, index in enumerate(grid.indices(profiles))]
        texts.extend(cells(values).reshape(-1, len(profiles), cells.width))
        # the rows go into a bytearray, which translate reads with no tobytes copy
        line = bytearray(len(profiles) * len(row))
        view = np.frombuffer(line, np.uint8).reshape(len(profiles), len(row))
        view[:] = row
        for at, text in zip(offsets, texts):
            view[:, shift + at:shift + at + text.shape[1]] = text
        view[0, :len(sep)] = 0  # the piece's lead goes before its first row
        del texts, view
        piece = line.translate(None, b"\0")
        del line  # each copy is freed as soon as the next is made
        return piece.decode("ascii")

    wrote = False
    for prefix, profiles, columns in chunks:
        start = head(prefix)
        row = np.frombuffer((start + body).encode("ascii"), np.uint8)
        for lo in range(0, len(profiles), CSV_ROWS):
            values = np.concatenate([column[lo:lo + CSV_ROWS] for column in columns])
            ids = profiles[lo:lo + CSV_ROWS]
            # np.asarray of a range converts one Python int at a time
            ids = (np.arange(ids.start, ids.stop, ids.step, np.intp) if isinstance(ids, range)
                   else np.asarray(ids, np.intp))
            yield lead + render(row, len(start), ids, values)
            lead, wrote = sep, True
        del profiles, columns  # the chunk's block goes before the next is built
    yield close if wrote else empty
