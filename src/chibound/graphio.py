"""Graph text formats: a plain edge list and headerless graph6.

Edge list: first line is the vertex count, then one "u v" pair per line.
The writer emits u < v in lexicographic order so fixtures diff cleanly.

graph6 is the usual 6-bit packing of the upper adjacency triangle in
column order, with the minimal size prefix; the reader and the writer
share one layout (see write_graph6). Non-minimal prefixes, wrong data
length, and nonzero padding are all rejected so that every graph has
exactly one encoding.
"""

from .errors import GraphParseError
from .graphs import Graph


def parse_edge_list(text):
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphParseError(f"expected vertex count, got {line!r}", line=lineno)
            if n < 0:
                raise GraphParseError(f"vertex count must be non-negative, got {n}", line=lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {line!r}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"endpoint out of range in {line!r} (n={n})", line=lineno)
        if u == v:
            raise GraphParseError(f"self-loop {u} not allowed", line=lineno)
        edges.append((u, v))
    if n is None:
        raise GraphParseError("empty input, expected a vertex count line", line=1)
    return Graph(n, edges)


def write_edge_list(g):
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# the one pair of 6-bit tables: a graph6 data byte's six bits, highest
# first, and back; a byte outside 63..126 has no entry
_G6_BITS = {byte: format(byte - 63, "06b") for byte in range(63, 127)}
_G6_BYTE = {six: chr(byte) for byte, six in _G6_BITS.items()}


def _g6_size_prefix(n):
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])
    raise ValueError(f"graph too large for graph6: n={n}")


def _g6_parse_size(data):
    """Returns (n, bytes consumed). The prefix must be the one
    _g6_size_prefix writes for n, so every size has exactly one form."""
    width = 8 if data[:2] == b"~~" else 4 if data[:1] == b"~" else 1
    head = data[:width]
    n = 0
    for byte in head[width // 4:]:
        n = n * 64 + byte - 63
    if not (0 <= n < 1 << 36 and _g6_size_prefix(n) == head):
        raise GraphParseError(f"invalid or non-minimal graph6 size prefix {head!r}", line=1, offset=0)
    return n, width


def parse_graph6(text):
    """Decode a single headerless graph6 line: the inverse of write_graph6."""
    line = text.strip()
    if "\n" in line:
        raise GraphParseError("expected a single graph6 line", line=2)
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as e:
        raise GraphParseError(f"non-ASCII character {line[e.start]!r} in graph6 text", line=1, offset=e.start) from None
    n, pos = _g6_parse_size(data)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nchars:
        raise GraphParseError(
            f"non-canonical graph6 length: expected {nchars} data bytes for n={n}, got {len(body)}",
            line=1,
            offset=pos,
        )
    groups = [_G6_BITS.get(byte) for byte in body]
    if None in groups:
        idx = groups.index(None)
        raise GraphParseError(f"invalid graph6 data byte {body[idx]}", line=1, offset=pos + idx)
    cols = "".join(groups)
    if "1" in cols[nbits:]:
        raise GraphParseError("nonzero graph6 padding bits", line=1, offset=pos)
    edges = [
        (i, j) for j in range(1, n) for i, bit in enumerate(cols[j * (j - 1) // 2 : j * (j + 1) // 2]) if bit == "1"
    ]
    return Graph(n, edges)


def write_graph6(g):
    """The graph6 line of g. Column j, the pairs (i, j) with i < j, is
    the bits of j's adjacency mask below j, lowest first; the columns are
    joined into one bit string, padded to whole 6-bit groups."""
    n = g.n
    adj = g.adjacency_masks()
    cols = "".join(format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    cols += "0" * (-len(cols) % 6)
    body = "".join([_G6_BYTE[cols[s : s + 6]] for s in range(0, len(cols), 6)])
    return _g6_size_prefix(n).decode("ascii") + body


def parse_graph(text, fmt):
    """Parse the one graph in text. fmt is "edge-list" or "graph6"; graph6
    text holds one non-blank line, and an error names its line in text."""
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "graph6":
        lines = [(lineno, raw) for lineno, raw in enumerate(text.splitlines(), start=1) if raw.strip()]
        if not lines:
            raise GraphParseError("no graph6 line found", line=1)
        lineno, raw = lines[0]
        try:
            g = parse_graph6(raw)
        except GraphParseError as e:
            raise GraphParseError(e.args[0], line=lineno, offset=e.offset) from None
        if len(lines) > 1:
            raise GraphParseError(f"expected one graph, got a second line {lines[1][1].strip()!r}", line=lines[1][0])
        return g
    raise ValueError(f"unknown format {fmt!r}")


def write_graph(g, fmt):
    if fmt == "edge-list":
        return write_edge_list(g)
    if fmt == "graph6":
        return write_graph6(g) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
