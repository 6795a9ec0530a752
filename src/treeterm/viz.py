"""PNG rendering of the dependency graph, with the standard library only.

Nodes sit on a circle in index order, so the picture, like the DOT output,
is byte-identical across runs. Each node is a disc labelled with its index
(the `n{i}` of the DOT output), filled with its component's DOT colour and
outlined in bold when a certificate decreases strictly on it. Edges are
straight arrows; a self-loop is a small ring outside its node.
"""
from __future__ import annotations

import math
import struct
import zlib

from .analysis import Verdict
from .report import node_styles

_RGB = {
    "lightblue": (173, 216, 230), "lightsalmon": (255, 160, 122), "palegreen": (152, 251, 152),
    "khaki": (240, 230, 140), "plum": (221, 160, 221), "lightgrey": (211, 211, 211),
}
_WHITE, _GREY, _BLACK = (255, 255, 255), (112, 112, 112), (0, 0, 0)
# 3x5 digit glyphs: one octal digit per row, the high bit is the left column.
_FONT = "75557 26227 71747 71717 55711 74717 74757 71111 75757 75717".split()
_R = 16  # node radius in pixels
_MAX_RING = 800  # larger graphs let their nodes overlap rather than grow the canvas


class _Canvas:
    def __init__(self, size: int):
        self.size = size
        self.buf = bytearray(b"\xff" * (3 * size * size))

    def span(self, y: int, x0: int, x1: int, color: tuple[int, int, int]) -> None:
        """Paint pixels x0..x1 of row y, clipped to the canvas."""
        x0, x1 = max(x0, 0), min(x1, self.size - 1)
        if 0 <= y < self.size and x0 <= x1:
            i = 3 * (y * self.size + x0)
            self.buf[i:i + 3 * (x1 - x0 + 1)] = bytes(color) * (x1 - x0 + 1)

    def square(self, x: int, y: int, side: int, color: tuple[int, int, int]) -> None:
        for dy in range(side):
            self.span(y + dy, x, x + side - 1, color)

    def disc(self, cx: float, cy: float, r: float, color: tuple[int, int, int]) -> None:
        for y in range(math.ceil(cy - r), math.floor(cy + r) + 1):
            half = math.sqrt(max(r * r - (y - cy) ** 2, 0.0))
            self.span(y, round(cx - half), round(cx + half), color)

    def ring(self, cx: float, cy: float, r: float, width: float, color, fill=_WHITE) -> None:
        self.disc(cx, cy, r, color)
        self.disc(cx, cy, r - width, fill)

    def line(self, x0: float, y0: float, x1: float, y1: float) -> None:
        """A black line two pixels thick, painted as one span per row."""
        if y0 > y1:
            x0, y0, x1, y1 = x1, y1, x0, y0
        dy = y1 - y0
        for y in range(round(y0), round(y1) + 2):
            # the stretch of the line that passes through rows y-1 and y
            ta, tb = (0.0, 1.0) if dy == 0 else (max((y - 1.5 - y0) / dy, 0.0), min((y + 0.5 - y0) / dy, 1.0))
            xa, xb = sorted((x0 + (x1 - x0) * ta, x0 + (x1 - x0) * tb))
            self.span(y, round(xa), round(xb) + 1, _BLACK)

    def arrow(self, x0: float, y0: float, x1: float, y1: float) -> None:
        """An arrow from the rim of the node centred at (x0, y0) to the rim of
        the node centred at (x1, y1), with a filled head."""
        length = math.hypot(x1 - x0, y1 - y0)
        ux, uy = (x1 - x0) / length, (y1 - y0) / length
        x0, y0, x1, y1 = x0 + _R * ux, y0 + _R * uy, x1 - _R * ux, y1 - _R * uy
        self.line(x0, y0, x1 - 8 * ux, y1 - 8 * uy)
        for w in range(-5, 6):  # the head as a fan of lines from its base to the tip
            bx, by = x1 - 10 * ux - w * uy, y1 - 10 * uy + w * ux
            self.line(bx, by, x1 - ux, y1 - uy)

    def number(self, cx: float, cy: float, text: str, scale: int = 2) -> None:
        """Write the digits of `text` centred on (cx, cy)."""
        left, top = round(cx - (4 * len(text) - 1) * scale / 2), round(cy - 5 * scale / 2)
        for k, ch in enumerate(text):
            for row, bits in enumerate(_FONT[int(ch)]):
                for col in range(3):
                    if int(bits, 8) >> (2 - col) & 1:
                        self.square(left + (4 * k + col) * scale, top + row * scale, scale, _BLACK)

    def png(self) -> bytes:
        def chunk(kind: bytes, data: bytes) -> bytes:
            return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))

        stride = 3 * self.size
        raw = b"".join(b"\x00" + self.buf[y * stride:(y + 1) * stride] for y in range(self.size))
        header = struct.pack(">IIBBBBB", self.size, self.size, 8, 2, 0, 0, 0)  # 8-bit RGB
        return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
                + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))


def render_graph_png(verdict: Verdict) -> bytes:
    """Draw `verdict.graph` as the bytes of a PNG file."""
    graph = verdict.graph
    n = len(graph.nodes)
    radius = min(max(4 * _R, n * 4 * _R / (2 * math.pi)), _MAX_RING)
    centre = radius + 3 * _R
    canvas = _Canvas(round(2 * centre))
    angle = [2 * math.pi * i / n - math.pi / 2 for i in range(n)]
    pos = [(centre + radius * math.cos(a), centre + radius * math.sin(a)) for a in angle]

    for a, b in ((a, b) for a, succ in enumerate(graph.adjacency) for b in succ):
        if a == b:
            (x, y), out = pos[a], 1.4 * _R
            canvas.ring(x + out * math.cos(angle[a]), y + out * math.sin(angle[a]), 0.8 * _R, 2, _BLACK)
        else:
            canvas.arrow(*pos[a], *pos[b])

    fill, strict = node_styles(verdict)
    for i, (x, y) in enumerate(pos):
        bold = i in strict
        colour = _RGB[fill[i]] if i in fill else _WHITE
        canvas.ring(x, y, _R, 4 if bold else 1.5, _BLACK if bold else _GREY, colour)
        canvas.number(x, y, str(i))
    return canvas.png()
