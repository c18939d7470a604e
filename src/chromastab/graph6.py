"""graph6 codec (bit-exact, 0 <= n <= 64) and a DOT emitter.

graph6 packs the upper triangle of the adjacency matrix column by column,
x(0,1) x(0,2) x(1,2) x(0,3) ..., six bits per printable byte with offset 63,
zero-padded to a multiple of six.  The size comes first: one byte n + 63 for
n <= 62, or "~" and n as 18 bits in three such bytes for 63 <= n <= 64.
"""

from __future__ import annotations

from chromastab.graph import MAX_VERTICES, Graph

_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the problem."""

    def __init__(self, message, offset=0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def encode(g: Graph) -> str:
    """graph6 string of a graph (labels are not part of the format)."""
    return encode_rows(g.n, g.rows)


def encode_rows(n: int, rows) -> str:
    """graph6 string straight from the adjacency rows of a graph on n <= 64
    vertices; n >= 63 takes the long size form."""
    if not 0 <= n <= MAX_VERTICES:
        raise Graph6Error(f"graph6 output supports 0..{MAX_VERTICES} vertices, got {n}", 0)
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)]
    acc = 0
    nbits = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | (rows[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def decode(text) -> Graph:
    """Parse one graph6 string (optionally prefixed by the standard header)."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    s = text.strip()
    base = 0
    if s.startswith(_HEADER):
        base = len(_HEADER)
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string", base)
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"invalid graph6 byte {ch!r}", base + i)
    if s[0] != "~":
        n, start = ord(s[0]) - 63, 1
    else:
        if len(s) < 4:
            raise Graph6Error("truncated long vertex count", base + len(s))
        n, start = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63, 4
        if not 63 <= n <= MAX_VERTICES:
            raise Graph6Error(f"vertex count {n} outside the long form's 63..{MAX_VERTICES}", base)
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    body = s[start:]
    if len(body) < need:
        raise Graph6Error(
            f"truncated graph6 string: need {need} data bytes, got {len(body)}",
            base + len(s),
        )
    if len(body) > need:
        raise Graph6Error("trailing bytes after graph6 data", base + start + need)
    bitstr = "".join(format(ord(ch) - 63, "06b") for ch in body)
    if "1" in bitstr[pairs:]:
        raise Graph6Error("nonzero padding bits", base + start + need - 1)
    rows = [0] * n
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if bitstr[pos + u] == "1":
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        pos += v
    return Graph(n, rows)


def to_dot(g: Graph, name="G") -> str:
    """Graphviz DOT text; vertex labels are rendered when present."""
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        tag = g.labels[v] if g.labels is not None else None
        if tag is not None:
            lines.append(f'  {v} [label="{tag}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
