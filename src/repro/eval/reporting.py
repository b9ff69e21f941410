"""Rendering of experiment results as monospace text tables."""

from __future__ import annotations


def render_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Align a list-of-rows into a monospace table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if 0 <= cell <= 1:
            return f"{cell:.4f}"
        return f"{cell:,.1f}"
    return str(cell)


def render_scenario_table(summary: dict) -> str:
    """Per-phase table for one ``ScenarioServingReport.summary()`` dict.

    One row per phase — packets, decisions, accuracy, pps, cache hit rate
    split into exact (L1) and verified-approximate (L2) hits — plus an
    ``overall`` footer row, titled with the scenario name.
    """
    def row(label, s):
        acc = s.get("accuracy")
        return [label, s["n_packets"], s["n_decisions"],
                "-" if acc is None else f"{acc:.4f}",
                s["pps"], f"{s['cache_hit_rate']:.3f}",
                s.get("cache_exact_hits", 0), s.get("cache_approx_hits", 0)]

    rows = [row(f"{name} [{p['t_start']:.0f}-{p['t_end']:.0f}s]", p)
            for name, p in summary["phases"].items()]
    rows.append(row("overall", summary["overall"]))
    return render_table(
        ["phase", "packets", "decisions", "accuracy", "pps", "cache_hit",
         "exact", "approx"],
        rows, title=f"Scenario {summary['scenario']!r} "
                    f"(seed={summary['seed']})")
