r"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

``write_floats`` writes the text of a whole array to a binary stream,
computed on numpy lanes a chunk at a time, in three steps:

1. Digits, by Schubfach (Giulietti 2020).  For v = c * 2**q, take k =
   floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when the rounding
   interval is lopsided (c a power of two above the least exponent).  The
   scaled value vb = 4 * v * 10**-k and the interval ends vbl, vbr are the
   top 64 bits, rounded to odd, of products of a 126-bit table entry
   g ~ 10**-k with 4c << h, (4c - 2 or 1) << h and (4c + 2) << h, done on
   uint64 lanes in 32-bit limbs.  With s = vb // 4, the digits d are
   s // 10 * 10 or the next multiple of 10 when just one of the two lies
   in the interval, else s or s + 1, whichever is in, or the nearer, ties
   to even: the shortest digits that round-trip, nearest the value, as
   Gay's dtoa (mode 0) gives repr.  Zero takes a table row whose g is 0.
2. Digit bytes.  d is scaled to 18 digits and looked up 4 ASCII digits at a
   time; the last byte that is not "0" gives nd, the significant digits.
3. Layout.  For v = 0.DIGITS * 10**decpt, repr is positional when
   -4 < decpt <= 16 (with ".0" after an integral value) and d.ddde[+-]XX
   otherwise.  Each value fills a 32-byte slot: sign and digits with the
   point inserted by shifts of 64-bit words, then exponent and terminator;
   a byte mask of the valid bytes gathers the slots of a chunk.

``read_floats`` reads such text back from a file, bit for bit as
``float()``: lines of comma-separated tokens of at most 24 bytes in the
grammar ``-?[0-9]+(\.[0-9]+)?(e[+-]?[0-9]{1,3})?``, and None for any other
text.  It reads the file into one window of zero-padded words, finds the
window's newlines once, and takes its whole lines a piece of about _LANES
tokens at a time:

1. The separators, by two byte compares, must come in rows of
   ``per_line``, the last of each a newline.
2. The 24 bytes up to each token's end come from 4 aligned words; bytes
   below the token and its sign become "0".  An "e" at byte 19 to 22 ends
   the mantissa: its digits, "0"s below them, form a fourth word, and the
   mantissa moves up to the end.  The bytes up to the last "." move up one
   byte, over it.  Then every byte must be a digit; SWAR turns each word
   into the value of its 8 digits, which give the mantissa w (19
   significant digits at most, else ``float()``) and exponent q.
3. Conversion, after Eisel and Lemire (Lemire 2021).  A table holds
   g = 5**q * 2**-z truncated to 64 bits.  With w shifted to its top bit,
   the exact product hi:lo of the two is below the true scaled value by
   less than that shifted w, so by less than 2**64.  The 54 bits of hi
   from its leading one then round, half up, to the double nearest the
   true value, unless the low 9 bits of hi are all 1 and lo plus the
   shifted w carries (a point halfway between two doubles may lie in
   between), or lo and the low 9 bits of hi are 0 and the 54 bits end in
   01 (a tie, which rounds to even, downwards).  Those lanes, results
   outside the normal range, q outside the table and w of more than 19
   digits take ``float()`` on their token, which is in the grammar, so
   any correctly rounded parser gives the same double.  Zero gives +-0.

A token outside the grammar, or a non-finite ``float()``, hands the whole
file back.  All steps are exact integer arithmetic, so text and values are
the same on every platform; the words hold the text little-endian.
"""

from __future__ import annotations

import functools
import os

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(2**63 - 1)
_ZEROS = _U(int.from_bytes(b"0" * 8, "little"))
_K_MIN = -324
_EXP_ROWS = 634  # tail rows: exponents -324..308, then positional
_CHUNK = 8192
_LAST_BYTE = np.array([[8 - 1023], [72 - 1023], [136 - 1023]])
_WORD_BITS = np.array([[0], [64], [128]])


def _le(text: bytes) -> int:
    return int.from_bytes(text, "little")


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Constants per table row (biased exponent, plus 2048 when the
    fraction is 0) and the byte tables, built on first use."""
    row = np.arange(4096)
    be = row & 2047
    lopsided = (row >= 2048) & (be > 1)
    q = np.maximum(be, 1) - 1075
    k = (q * 661971961083 - lopsided * 274743187321) >> 41
    h = q + ((-k * 913124641741) >> 38) + 2
    # g = floor(10**-k * 2**-r) + 1 with 2**125 <= g < 2**126.
    g = []
    for kk in range(_K_MIN, int(k.max()) + 1):
        r = ((-kk * 913124641741) >> 38) - 125
        p = 10 ** abs(kk)
        g.append((p << -r if r < 0 else p >> r) + 1 if kk <= 0 else (1 << -r) // p + 1)
    limbs = [[x & 0xFFFFFFFF, (x >> 32) & 0x7FFFFFFF, (x >> 63) & 0xFFFFFFFF, x >> 95, x >> 63] for x in g]
    zero = row == 2048
    t = {"k": np.where(zero, 0, k), "sh": (h + 2).astype(np.uint64)}
    t["g"] = np.where(zero, 0, np.array(limbs, np.uint64)[k - _K_MIN].T)
    lead = np.where(be > 0, 1 << 52, 0).astype(np.uint64) << t["sh"]
    half = np.where(zero, 0, 2 << h).astype(np.uint64)
    t["offsets"] = np.stack([lead, lead - (half >> lopsided.astype(np.uint64)), lead + half])
    # Digits of d from the exponent field of float(d): those of 2**e, plus
    # one from the next power of ten on.  Field 0 is d = 0, one digit.
    ndig = [1] + [len(str(1 << (e - 1023))) if e >= 1023 else 1 for e in range(1, 1081)]
    t["ndig"] = np.array(ndig)
    t["next10"] = np.array([10**n if e >= 1023 else 2**64 - 1 for e, n in enumerate(ndig)], np.uint64)
    t["scale"] = np.array([10 ** (18 - n) for n in range(18)], np.uint64)
    quad = np.arange(10000)
    t["four"] = sum((quad // 10 ** (3 - j) % 10 + 48) << 8 * j for j in range(4)).astype(np.uint64)
    t["four_hi"] = t["four"] << _U(32)
    t["two"] = t["four"][:100] >> _U(16) | _U(_le(b"000000") << 16)
    exps = [b"e%+03d" % e for e in range(-324, 309)] + [b""]
    t["tail"] = np.array([_le(e + end) for end in (b",", b"\n") for e in exps], np.uint64)
    t["tail_valid"] = np.array([_le(b"\x01" * (len(e) + 1)) for e in exps] * 2, np.uint64)
    for table in t.values():
        table.flags.writeable = False
    return t


def _mulhi(a0, a1, b0, b1, out, p, t) -> None:
    """out = high 64 bits of (a1:a0) * (b1:b0) in 32-bit limbs; b1 < 2**27."""
    np.multiply(b0, a0, out=p)
    p >>= _U(32)
    np.multiply(b1, a0, out=t)
    p += t
    np.multiply(b0, a1, out=t)
    np.right_shift(t, _U(32), out=out)
    t &= _M32
    p += t
    p >>= _U(32)
    out += p
    np.multiply(b1, a1, out=t)
    out += t


def _scratch(n: int) -> np.ndarray:
    """Scratch rows for up to ``n`` lanes, reused by every chunk; row 47 is
    the constant "00000000" word ahead of the digits."""
    ws = np.empty((59, n), np.uint64)
    ws[47] = _ZEROS
    return ws


def _format(x: np.ndarray, tail: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """The text of the finite float64 array ``x``, each value followed by
    the terminator ``tail`` picks (0 for ",", _EXP_ROWS for a newline)."""
    t = _tables()
    n = x.shape[0]
    bits = x.view(np.uint64)
    u = ws[:, :n]
    frac, s, sp, tmp, sign, lo = u[:6]
    row, decpt, nd0, nd, ed, dp, r8, ln = u[6:14].view(np.int64)
    up_in, wp_in, coarse, u_out, w_in = ws[14].view(np.bool_).reshape(8, -1)[:5, :n]
    g0l, g0h, g1l, g1h, g1 = g = u[15:20]
    v, b0, b1, x1, y1, p, q, groups, quads = u[20:47].reshape(9, 3, n)
    h = u[47:51]
    slots, valid = ws[51:55].reshape(-1, 4)[:n], ws[55:59].reshape(-1, 4)[:n]
    np.right_shift(bits.view(np.int64), 52, out=row)
    row &= 0x7FF
    np.bitwise_and(bits, _U(2**52 - 1), out=frac)
    np.equal(frac, 0, out=up_in)
    np.multiply(up_in, 2048, out=r8)
    row += r8
    t["k"].take(row, out=decpt, mode="wrap")
    t["sh"].take(row, out=tmp, mode="wrap")
    t["g"].take(row, axis=1, out=g, mode="wrap")
    t["offsets"].take(row, axis=1, out=q, mode="wrap")
    # vb, vbl, vbr = rop(g, (4c, its interval ends) << h).
    np.left_shift(frac, tmp, out=tmp)
    np.add(q, tmp, out=v)
    np.bitwise_and(v, _M32, out=b0)
    np.right_shift(v, _U(32), out=b1)
    _mulhi(g0l, g0h, b0, b1, x1, p, q)
    _mulhi(g1l, g1h, b0, b1, y1, p, q)
    v *= g1
    v >>= _U(1)
    v += x1
    np.right_shift(v, _U(63), out=x1)
    y1 += x1
    v &= _M63
    v += _M63
    v >>= _U(63)
    y1 |= v
    vb, vbl, vbr = y1
    np.bitwise_and(frac, _U(1), out=tmp)  # the interval is open for odd c
    vbl += tmp
    vbr -= tmp
    np.right_shift(vb, _U(2), out=s)
    np.floor_divide(s, _U(10), out=sp)
    sp *= _U(10)
    np.left_shift(sp, _U(2), out=tmp)
    np.less_equal(vbl, tmp, out=up_in)
    tmp += _U(40)
    np.less_equal(tmp, vbr, out=wp_in)
    np.not_equal(up_in, wp_in, out=coarse)
    np.bitwise_and(vb, _U(2**64 - 4), out=tmp)
    np.greater(vbl, tmp, out=u_out)
    tmp += _U(4)
    np.less_equal(tmp, vbr, out=w_in)
    # s + 1 is nearer when vb % 8 is 3, 6 or 7: the set bits of 0xC8.
    vb &= _U(7)
    np.right_shift(_U(0xC8), vb, out=vb)
    vb &= _U(1)
    vb |= u_out
    vb &= w_in
    s += vb
    np.multiply(wp_in, _U(10), out=tmp)
    sp += tmp
    sp -= s
    sp *= coarse
    s += sp
    d = s
    # decpt = k + digits of d; d scaled to 18 digits, in 4-digit groups.
    tmp.view(np.float64)[...] = d
    np.right_shift(tmp.view(np.int64), 52, out=r8)
    t["ndig"].take(r8, out=nd0, mode="wrap")
    t["next10"].take(r8, out=tmp, mode="wrap")
    np.greater_equal(d, tmp, out=up_in)
    nd0 += up_in
    decpt += nd0
    t["scale"].take(nd0, out=tmp, mode="wrap")
    d *= tmp
    np.floor_divide(d, _U(10**10), out=groups[0])
    np.multiply(groups[0], _U(10**10), out=tmp)
    d -= tmp
    np.floor_divide(d, _U(100), out=groups[1])
    np.multiply(groups[1], _U(100), out=tmp)
    np.subtract(d, tmp, out=lo)
    np.floor_divide(groups[:2], _U(10000), out=quads[:2])
    np.multiply(quads[:2], _U(10000), out=p[:2])
    groups[:2] -= p[:2]
    t["four"].take(quads[:2].view(np.int64), out=h[1:3], mode="wrap")
    t["four_hi"].take(groups[:2].view(np.int64), out=p[:2], mode="wrap")
    h[1:3] |= p[:2]
    t["two"].take(lo.view(np.int64), out=h[3], mode="wrap")
    # nd: the top byte of h[w] ^ "00000000" is read off its float exponent.
    np.bitwise_xor(h[1:], _ZEROS, out=x1)
    e = b0.view(np.int64)
    e.view(np.float64)[...] = x1
    e >>= 52
    e += _LAST_BYTE
    e >>= 3
    np.maximum(e[0], e[1], out=nd)
    np.maximum(nd, e[2], out=nd)  # negative for 0.0, which is positional
    # ed = decpt, or 1 in exponent form.  With h = "00000000" + digits, the
    # integer part is h[a:b] and the fraction h[b:c]: a = 7 + min(ed, 1),
    # b = 8 + ed, c = 8 + max(nd, ed + 1), or 8 + nd in exponent form.
    np.right_shift(bits, _U(63), out=sign)
    si = sign.view(np.int64)
    expf = coarse
    np.add(decpt, 3, out=ed)
    np.greater(ed.view(np.uint64), _U(19), out=expf)
    np.subtract(1, decpt, out=ed)
    ed *= expf
    ed += decpt
    # Shift h down by a - sign bytes; a sign lands on a "0" and flips it.
    np.minimum(ed, 1, out=r8)
    r8 -= si
    r8 *= 8
    r8 += 56
    np.subtract(64, r8, out=ln)
    np.right_shift(h[:3], r8.view(np.uint64), out=v)
    np.left_shift(h[1:], ln.view(np.uint64), out=p)
    v |= p
    np.multiply(sign, _U(ord("0") ^ ord("-")), out=tmp)
    v[0] ^= tmp
    # The point goes in at byte dp; the bytes from dp on move up one.
    np.subtract(ed, 1, out=dp)
    np.maximum(dp, 0, out=dp)
    dp += 1
    dp += si
    jj = q.view(np.int64)
    np.multiply(dp, 8, out=jj[0])
    np.subtract(jj[0], _WORD_BITS, out=jj)
    np.left_shift(_U(ord(".")), jj.view(np.uint64), out=b0)
    np.maximum(jj, 0, out=jj)
    np.left_shift(_U(2**64 - 1), jj.view(np.uint64), out=b1)
    b1 &= v
    v ^= b1
    v |= b0
    np.left_shift(b1, _U(8), out=p)
    b1 >>= _U(56)
    p[1:] |= b1[:2]
    np.bitwise_or(v, p, out=slots[:, :3].T)
    # Valid bytes: up to dp, then the point and c - b digits, if c > b.
    np.add(ed, 1, out=ln)
    ln -= expf
    np.maximum(ln, nd, out=ln)
    ln -= ed
    np.greater(ln, 0, out=up_in)
    ln += up_in
    ln += dp
    np.multiply(ln, -8, out=jj[0])
    np.add(jj[0], _WORD_BITS + 64, out=jj)
    np.maximum(jj, 0, out=jj)
    np.right_shift(_U(_le(b"\x01" * 8)), jj.view(np.uint64), out=valid[:, :3].T)
    # Exponent and terminator: tail row decpt + 323, or the positional row.
    np.subtract(decpt, 310, out=r8)
    r8 *= expf
    r8 += tail
    r8 += _EXP_ROWS - 1
    t["tail"].take(r8, out=slots[:, 3], mode="wrap")
    t["tail_valid"].take(r8, out=valid[:, 3], mode="wrap")
    # The words hold the text little-endian; "<u8" is a no-op view there.
    text = slots.astype("<u8", copy=False).view(np.uint8)
    return text[valid.astype("<u8", copy=False).view(np.bool_)]


def write_floats(stream, values: np.ndarray, per_line: int) -> None:
    """Write ``repr`` of each value of a finite C-contiguous float64 array,
    then ``,``, or a newline after every ``per_line``-th, to the binary
    ``stream``; its chunks share one set of scratch rows (a few MB), so none faults in new pages."""
    flat = values.reshape(-1)
    lanes = min(_CHUNK, flat.size)
    ws = _scratch(lanes)
    for start in range(0, flat.size, lanes):
        x = flat[start : start + lanes]
        ends = np.arange(start + 1, start + 1 + x.size) % per_line == 0
        stream.write(_format(x, ends * _EXP_ROWS, ws))


_PAD = 32  # zero bytes before and after the window
# Bytes of text read at a time, unless a line needs more.  With windows of
# 512 KB or 1 MB the cli-large benchmark's peak RSS was 109-111 MB, against
# 100.5-100.7 MB with this one: glibc lays out its heap differently.
_WINDOW = 1 << 21
_LANES = 8192  # tokens per piece, about 160 bytes each live at the peak
_Q_MIN, _Q_MAX = -342, 308
_BYTES = 0x0101010101010101
_ALL = _U(2**64 - 1)
_FOUR = np.arange(4)[:, None]
_SWAR = [(10, 8, 0x00FF * 0x0001000100010001), (100, 16, 0xFFFF * 0x0000000100000001), (10000, 32, 0xFFFFFFFF)]


@functools.cache
def _read_tables() -> dict[str, np.ndarray]:
    """The reader's tables, built on first use."""
    t = {}
    # Per q - _Q_MIN: 5**q = g * 2**z with 2**63 <= g < 2**64, g truncated,
    # and the exponent field base of its product with a mantissa (below).
    g, base = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        p = 5 ** abs(q)
        z = p.bit_length() - 64 if q >= 0 else -63 - p.bit_length()
        g.append((p >> z if z > 0 else p << -z) if q >= 0 else (1 << -z) // p)
        base.append((63 + z + q) % 2**64)
    t["pow5"], t["base"] = np.array(g, np.uint64), np.array(base, np.uint64)
    # An "e" alone at byte 3, 4, 5 or 6 of the last word: twice the
    # exponent's length, by the mask of "e" bytes; then, by that plus 1 if
    # it is signed, the bytes below its 1 to 3 digits, or none if it has
    # no digits or 4, so that its "e" fails the digit check.
    t["exp_len"] = np.zeros(256, np.uint64)
    t["exp_len"][[8, 16, 32, 64]] = [10, 8, 6, 4]
    ndig = [i // 2 - 1 - i % 2 for i in range(12)]
    t["exp_junk"] = np.array([0 if d in (0, 4) else 2**64 - 1 >> 8 * max(d, 0) for d in ndig], np.uint64)
    for table in t.values():
        table.flags.writeable = False
    return t


def _bytes_equal(w: np.ndarray, byte: int) -> np.ndarray:
    """Bit i set where byte i of ``w`` equals ``byte``."""
    x = w ^ _U(byte * _BYTES)
    t = (x & _U(0x7F * _BYTES)) + _U(0x7F * _BYTES)
    t |= x
    t = ~t & _U(0x80 * _BYTES)
    t *= _U(0x0002040810204081)  # gathers the top bits of the bytes
    return t >> _U(56)


def _parse(words: np.ndarray, text: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """For the tokens text[starts:ends]: their float64 bits, whether one
    is outside the grammar, and the mask of those left to ``float()``."""
    t = _read_tables()
    length = ends - starts
    neg = (text.take(starts, mode="wrap") == ord("-")).astype(np.int64)
    # The 24 bytes up to each token's end, from 4 aligned words; the bytes
    # below the token and its sign become "0".
    at = ends + (_PAD - 24)
    sh = ((at & 7) << 3).view(np.uint64)
    g = words.take((at >> 3) + _FOUR, mode="wrap")
    w = np.empty((4, ends.size), np.uint64)
    np.right_shift(g[:3], sh, out=w[:3])
    g[1:] <<= _U(64) - sh
    w[:3] |= g[1:]
    del at, sh, g  # lanes are freed once dead: they set the reader's peak memory
    w[:3] ^= _ZEROS
    w[:3] &= _ALL << np.maximum((24 - length + neg) * 8 - _WORD_BITS, 0).view(np.uint64)
    w[:3] ^= _ZEROS
    # Exponent: its digits, with "0"s below them, go to w[3]; then the
    # mantissa moves up to the end of the window, over it.
    explen2 = t["exp_len"].take(_bytes_equal(w[2], ord("e")).view(np.int64), mode="wrap")
    s = explen2 << _U(2)
    first = (w[2] >> (_U(72) - s)) & _U(0xFF)
    eneg = first == ord("-")
    signed = eneg | (first == ord("+"))
    np.bitwise_xor(w[2], _ZEROS, out=w[3])
    w[3] &= t["exp_junk"].take(explen2.view(np.int64) + signed, mode="wrap")
    w[3] ^= w[2]
    carry = w[:2] >> (_U(64) - s)
    w[:3] <<= s
    w[1:3] |= carry
    w[0] |= _ZEROS >> (_U(64) - s)
    del s, first, signed, carry
    # Point: the bytes up to the last "." move up one, over it.
    dots = _bytes_equal(w[:3], ord(".")) << np.array([[0], [8], [16]], np.uint64)
    point = (np.bitwise_or.reduce(dots).astype(np.float64).view(np.int64) >> 52) - 1023
    moved = w[:3] << _U(8)
    moved[1:] |= w[:2] >> _U(56)
    moved[0] |= _U(ord("0"))
    w[:3] ^= moved
    w[:3] &= _ALL << np.maximum(point * 8 + 8 - _WORD_BITS, 0).view(np.uint64)
    w[:3] ^= moved
    frac = point >= 0
    nfrac = np.where(frac, 23 - point, 0)
    bad = (length - (explen2 >> _U(1)).view(np.int64) - neg - nfrac - frac < 1) | (frac & (nfrac == 0))
    bad |= length > 24
    del dots, moved, length, explen2, point, frac
    # Every byte a digit; then 8 digits per word, by SWAR.
    w ^= _ZEROS
    x = ((w & _U(0x7F * _BYTES)) + _U(0x76 * _BYTES)) | w
    bad |= np.bitwise_or.reduce(x) & _U(0x80 * _BYTES) != 0
    for mul, shift, mask in _SWAR:
        x = w >> _U(shift)
        w *= _U(mul)
        w += x
        w &= _U(mask)
    # Mantissa m < 10**19 and exponent q; mn is m shifted to its top bit.
    m = w[0] * _U(10**16) + w[1] * _U(10**8) + w[2]
    q = w[3].astype(np.int64)
    np.negative(q, out=q, where=eneg)
    q -= nfrac + _Q_MIN
    slow = (w[0] >= _U(1000)) | (q.view(np.uint64) > _U(_Q_MAX - _Q_MIN))
    del w, x
    g = t["pow5"].take(q, mode="wrap")
    f = m.astype(np.float64).view(np.int64) >> 52
    f -= (m >> (f - 1023).view(np.uint64)) == 0
    mn = m << (1086 - f).view(np.uint64)
    # hi:lo = mn * g, exact, in 32-bit limbs.
    a0, a1, b0 = mn & _M32, mn >> _U(32), g & _M32
    g >>= _U(32)
    p00, p01, p10 = a0 * b0, a0 * g, a1 * b0
    mid = (p00 >> _U(32)) + (p01 & _M32) + (p10 & _M32)
    hi = a1 * g + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
    lo = (mid << _U(32)) | (p00 & _M32)
    del a0, a1, b0, p00, p01, p10, mid
    # The true product lies in [hi:lo, hi:lo + mn): float() takes the lanes
    # where that interval may hold a rounding boundary, or a tie.
    low9 = hi & _U(0x1FF)
    slow |= (low9 == _U(0x1FF)) & (lo + mn < mn)
    msb = hi >> _U(63)
    mant = hi >> (msb + _U(9))
    slow |= (lo == 0) & (low9 == 0) & (mant & _U(3) == 1)
    mant += mant & _U(1)
    mant >>= _U(1)
    e = t["base"].take(q, mode="wrap") + msb + (mant >> _U(53)) + f.view(np.uint64)
    slow |= e - _U(1) >= _U(2046)
    slow &= m != 0
    bits = (e << _U(52)) | (mant & _U(2**52 - 1))
    bits &= ~(f >> 63).view(np.uint64)  # m = 0 left f = -1
    bits |= neg.view(np.uint64) << _U(63)
    return bits, bad.any(), slow


def read_floats(f, rows: int, per_line: int) -> np.ndarray | None:
    """The values of the rest of the binary file ``f``: ``rows`` lines of
    ``per_line`` comma-separated tokens in the grammar, of at most 24 bytes
    each, each line ending in a newline.  None if the text is not of that
    form or a value is not finite.  The text passes through one zero-padded
    window of _WINDOW bytes, or 25 per token of a line if that is more:
    each read fills it, its whole lines are parsed, and the partial last
    line moves to its front."""
    if 2 * rows * per_line > os.fstat(f.fileno()).st_size - f.tell():
        return None
    size = max(_WINDOW, 25 * per_line)
    words = np.zeros((size + 2 * _PAD + 7) // 8, "<u8")
    window = words.view(np.uint8)[_PAD : _PAD + size]
    out = np.empty(rows * per_line)
    step = max(1, _LANES // per_line)
    done = kept = 0
    while read := f.readinto(window[kept:]):
        end = kept + read
        lines = np.flatnonzero(window[:end] == 10)
        if done + lines.size > rows:
            return None
        for r in range(0, lines.size, step):
            lo = lines[r - 1] + 1 if r else 0
            piece = window[lo : lines[min(r + step, lines.size) - 1] + 1]
            ends = np.flatnonzero((piece == ord(",")) | (piece == 10)) + lo
            if ends.size != per_line * min(step, lines.size - r) or not np.array_equal(ends[per_line - 1 :: per_line], lines[r : r + step]):
                return None
            starts = np.concatenate(([lo], ends[:-1] + 1))
            bits, bad, slow = _parse(words, window, starts, ends)
            if bad:
                return None
            values = out[(done + r) * per_line : (done + r) * per_line + ends.size]
            values.view(np.uint64)[:] = bits
            for i in np.flatnonzero(slow).tolist():
                values[i] = float(window[starts[i] : ends[i]].tobytes())
            if not np.isfinite(values).all():
                return None
        done += lines.size
        tail = lines[-1] + 1 if lines.size else 0
        kept = end - tail
        window[:kept] = window[tail:end]
    return out if done == rows and not kept else None
