"""Static SVG rendering of estimation results.

Two plot kinds, both written as self-contained SVG documents with no
external resources, scripts, or fonts beyond generic families:

* a mixture plot: one line per cluster running from its baseline risk on
  the left axis to its exposed risk on the right axis, with a dot at the
  cluster's propensity whose area is proportional to its mass;
* a convergence plot: achieved entropy per grid resolution as dots, with
  the closed-form maximum of the unrelaxed problem as a horizontal
  reference line (an epsilon-relaxed LP can rise above it).

Elements carry stable class names (``effect-line``, ``cluster-dot``,
``entropy-dot``, ``reference-line``) so output can be asserted on without
parsing geometry.  Output depends only on the arguments, byte for byte.
Every text a plot holds is the module's own (fixed titles and axis
labels, formatted numbers), so none needs XML escaping.
"""

from __future__ import annotations

import math

__all__ = ["mixture_svg", "convergence_svg"]

_WIDTH = 640
_HEIGHT = 420
_MARGIN = {"left": 56, "right": 56, "top": 44, "bottom": 48}

_STYLE = """\
  .frame { fill: none; stroke: #333333; stroke-width: 1; }
  .tick { stroke: #333333; stroke-width: 1; }
  .tick-label { font: 11px sans-serif; fill: #333333; }
  .axis-label { font: 12px sans-serif; fill: #111111; }
  .title { font: bold 14px sans-serif; fill: #111111; }
  .effect-line { stroke: #888888; stroke-width: 1.5; }
  .cluster-dot { fill: #3b6ea5; fill-opacity: 0.75; stroke: #1d3d5c; }
  .entropy-dot { fill: #3b6ea5; stroke: #1d3d5c; }
  .reference-line { stroke: #b03a2e; stroke-width: 1.5; stroke-dasharray: 6 4; }
"""


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _get(cluster, name: str):
    if isinstance(cluster, dict):
        return cluster[name]
    return getattr(cluster, name)


class _Frame:
    """Maps data coordinates onto the pixel frame and draws the chrome."""

    def __init__(self, x_range, y_range):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.left = _MARGIN["left"]
        self.right = _WIDTH - _MARGIN["right"]
        self.top = _MARGIN["top"]
        self.bottom = _HEIGHT - _MARGIN["bottom"]

    def x(self, v: float) -> float:
        span = self.x1 - self.x0
        frac = 0.5 if span == 0 else (v - self.x0) / span
        return self.left + frac * (self.right - self.left)

    def y(self, v: float) -> float:
        span = self.y1 - self.y0
        frac = 0.5 if span == 0 else (v - self.y0) / span
        return self.bottom - frac * (self.bottom - self.top)

    def open_svg(self, title: str) -> list[str]:
        return [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f"<style>\n{_STYLE}</style>",
            f'<title>{title}</title>',
            f'<text class="title" x="{_WIDTH / 2:.0f}" y="24" '
            f'text-anchor="middle">{title}</text>',
            f'<rect class="frame" x="{self.left}" y="{self.top}" '
            f'width="{self.right - self.left}" height="{self.bottom - self.top}"/>',
        ]

    def y_ticks(self, values, side: str) -> list[str]:
        parts = []
        edge = self.left if side == "left" else self.right
        direction = -1 if side == "left" else 1
        anchor = "end" if side == "left" else "start"
        for v in values:
            py = self.y(v)
            parts.append(
                f'<line class="tick" x1="{edge}" y1="{py:.1f}" '
                f'x2="{edge + 5 * direction}" y2="{py:.1f}"/>'
            )
            parts.append(
                f'<text class="tick-label" x="{edge + 8 * direction}" '
                f'y="{py + 3.5:.1f}" text-anchor="{anchor}">{_fmt(v)}</text>'
            )
        return parts

    def x_ticks(self, values, labels=None) -> list[str]:
        parts = []
        labels = labels or [_fmt(v) for v in values]
        for v, lbl in zip(values, labels):
            px = self.x(v)
            parts.append(
                f'<line class="tick" x1="{px:.1f}" y1="{self.bottom}" '
                f'x2="{px:.1f}" y2="{self.bottom + 5}"/>'
            )
            parts.append(
                f'<text class="tick-label" x="{px:.1f}" '
                f'y="{self.bottom + 17}" text-anchor="middle">{lbl}</text>'
            )
        return parts

    def axis_labels(self, x_label: str, left_label: str, right_label="") -> list[str]:
        cx = (self.left + self.right) / 2
        cy = (self.top + self.bottom) / 2
        parts = [
            f'<text class="axis-label" x="{cx:.0f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle">{x_label}</text>',
            f'<text class="axis-label" transform="rotate(-90 16 {cy:.0f})" '
            f'x="16" y="{cy:.0f}" text-anchor="middle">{left_label}</text>',
        ]
        if right_label:
            parts.append(
                f'<text class="axis-label" transform="rotate(90 {_WIDTH - 14} '
                f'{cy:.0f})" x="{_WIDTH - 14}" y="{cy:.0f}" '
                f'text-anchor="middle">{right_label}</text>'
            )
        return parts


def mixture_svg(clusters) -> str:
    """Render a point-mass mixture as lines and mass dots.

    ``clusters`` is an iterable of objects or mappings exposing pi, r0,
    r1, and mass.  Each yields one ``effect-line`` from (left axis, r0)
    to (right axis, r1) and one ``cluster-dot`` of area proportional to
    mass, horizontally at pi, vertically on its own line.
    """
    clusters = list(clusters)
    frame = _Frame((0.0, 1.0), (0.0, 1.0))
    parts = frame.open_svg("Estimated effect mixture")
    ticks = [i / 5 for i in range(6)]
    parts += frame.y_ticks(ticks, "left")
    parts += frame.y_ticks(ticks, "right")
    parts += frame.x_ticks(ticks)
    parts += frame.axis_labels(
        "propensity of exposure", "risk if unexposed", "risk if exposed"
    )
    dots = []
    for c in clusters:
        pi, r0, r1 = _get(c, "pi"), _get(c, "r0"), _get(c, "r1")
        mass = _get(c, "mass")
        parts.append(
            f'<line class="effect-line" x1="{frame.left}" y1="{frame.y(r0):.1f}" '
            f'x2="{frame.right}" y2="{frame.y(r1):.1f}"/>'
        )
        radius = max(2.0, 40.0 * math.sqrt(max(mass, 0.0)))
        height = r0 + pi * (r1 - r0)  # the dot sits on its own line
        dots.append(
            f'<circle class="cluster-dot" cx="{frame.x(pi):.1f}" '
            f'cy="{frame.y(height):.1f}" r="{radius:.1f}"/>'
        )
    parts += dots  # dots above lines
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def convergence_svg(points, reference: float) -> str:
    """Render (resolution, entropy) dots against a reference maximum.

    ``points`` is an iterable of (m, entropy) with entropy None for runs
    that failed; failed points are skipped.  The reference value is drawn
    as a dashed horizontal ``reference-line`` spanning the frame.
    """
    points = [(m, e) for m, e in points]
    usable = [(m, e) for m, e in points if e is not None]
    ms = [m for m, _ in points] or [0, 1]
    values = [e for _, e in usable] + [reference]
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.15 or 0.05
    frame = _Frame((min(ms) - 2, max(ms) + 2), (lo - pad, hi + pad))
    parts = frame.open_svg("Entropy vs grid resolution")
    y_ticks = [lo - pad + i * (hi - lo + 2 * pad) / 4 for i in range(5)]
    parts += frame.y_ticks(y_ticks, "left")
    shown = ms if len(ms) <= 10 else ms[:: math.ceil(len(ms) / 10)]
    parts += frame.x_ticks(shown, [str(int(m)) for m in shown])
    parts += frame.axis_labels("grid resolution m", "achieved entropy (nats)")
    ry = frame.y(reference)
    parts.append(
        f'<line class="reference-line" x1="{frame.left}" y1="{ry:.1f}" '
        f'x2="{frame.right}" y2="{ry:.1f}"/>'
    )
    for m, e in usable:
        parts.append(
            f'<circle class="entropy-dot" cx="{frame.x(m):.1f}" '
            f'cy="{frame.y(e):.1f}" r="4.0"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
