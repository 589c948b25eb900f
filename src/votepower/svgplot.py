"""Minimal self-contained SVG line charts.

Hand-rolled on purpose: output bytes depend only on the data, so chart
files are reproducible, and the package avoids a plotting dependency for
what amounts to axes plus polylines.
"""

from __future__ import annotations

from .errors import InvalidArgumentsError

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 20, 60
_XLABEL, _YLABEL = "q", "value"
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def emit_plot(series, path: str, caption: str):
    """Write a line chart of ``series`` (name, xs, ys) to ``path``; the
    coordinates are 1-d sequences of numbers or numpy arrays.

    Raises if there is nothing to draw; a single point degenerates to a
    marker.  Returns the path written.
    """
    cleaned = []
    for name, xs, ys in series:
        xs, ys = list(map(float, xs)), list(map(float, ys))
        if xs and len(xs) == len(ys):
            cleaned.append((str(name), xs, ys))
    if not cleaned:
        raise InvalidArgumentsError("no data to plot")

    x_lo = min(min(xs) for _, xs, _ in cleaned)
    x_hi = max(max(xs) for _, xs, _ in cleaned)
    y_lo = min(min(ys) for _, _, ys in cleaned)
    y_hi = max(max(ys) for _, _, ys in cleaned)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        lines.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        lines.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" '
            'stroke="#333"/>'
        )
        lines.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{_fmt(tick)}</text>'
        )
    for idx, (name, xs, ys) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        if len(xs) == 1:
            lines.append(
                f'<circle cx="{px(xs[0]):.2f}" cy="{py(ys[0]):.2f}" r="3" fill="{color}"/>'
            )
        else:
            points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            lines.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        label_y = _MARGIN_T + 14 + 14 * idx
        lines.append(
            f'<rect x="{_MARGIN_L + 8}" y="{label_y - 9}" width="10" height="10" '
            f'fill="{color}"/>'
        )
        lines.append(
            f'<text x="{_MARGIN_L + 22}" y="{label_y}" font-size="11" '
            f'font-family="sans-serif">{name}</text>'
        )
    lines.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 28}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">{_XLABEL}</text>'
    )
    lines.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.2f}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.2f})">{_YLABEL}</text>'
    )
    lines.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 10}" font-size="11" '
        f'text-anchor="middle" font-family="sans-serif" fill="#555">{caption}</text>'
    )
    lines.append("</svg>")
    payload = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    return path
