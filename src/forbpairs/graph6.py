"""Bit-exact graph6 encoding and decoding.

Standard format: one byte 63+n, then the upper-triangle adjacency bits in
column-major order (pairs (0,1),(0,2),(1,2),(0,3),...), packed six bits per
byte with offset 63 and zero padding.  The multi-byte order encoding for
n >= 63 is not supported; the library's own cap is 64 vertices but every
built-in enumeration stays far below it.
"""

from __future__ import annotations

from .graphs import Graph, build


class Graph6Error(ValueError):
    pass


def _pairs(n: int):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def encode_graph6(g: Graph) -> str:
    if g.n > 62:
        raise Graph6Error("graph6 short form supports at most 62 vertices")
    bits = 0
    count = 0
    for i, j in _pairs(g.n):
        bits = bits << 1 | (g.rows[i] >> j & 1)
        count += 1
    pad = (-count) % 6
    bits <<= pad
    count += pad
    chars = [chr(63 + g.n)]
    for shift in range(count - 6, -6, -6):
        chars.append(chr(63 + (bits >> max(shift, 0) & 0x3F)))
    return "".join(chars)


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("graph6 long form (n >= 63) is not supported")
    n = first - 63
    if n < 0 or n > 62:
        raise Graph6Error(f"invalid order byte {s[0]!r}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(s) - 1 != need:
        raise Graph6Error(f"expected {need} data characters for n={n}, got {len(s) - 1}")
    bits = 0
    for ch in s[1:]:
        v = ord(ch) - 63
        if v < 0 or v > 63:
            raise Graph6Error(f"invalid graph6 character {ch!r}")
        bits = bits << 6 | v
    total = need * 6
    edges = []
    for idx, (i, j) in enumerate(_pairs(n)):
        if bits >> (total - 1 - idx) & 1:
            edges.append((i, j))
    return build(n, edges)

