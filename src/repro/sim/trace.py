"""Structured tracing for simulations.

Components emit ``(time, category, message, payload)`` records through a
shared :class:`Tracer`. Tracing is off by default (zero-cost beyond a
boolean check) and can be enabled globally or per category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set


@dataclass(frozen=True)
class TraceEvent:
    """One trace record."""

    time: int
    category: str
    message: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = f" {self.payload}" if self.payload else ""
        return f"[{self.time:>12}] {self.category:<16} {self.message}{extra}"


class Tracer:
    """Collects trace events; ``enabled`` gates record collection."""

    def __init__(self, engine: Any = None, enabled: bool = False,
                 categories: Optional[Set[str]] = None, limit: int = 1_000_000):
        self.engine = engine
        self.enabled = enabled
        self.categories = categories  # None = all
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    def emit(self, category: str, message: str, **payload: Any) -> None:
        """Record a trace event if tracing is enabled for ``category``.

        Once ``limit`` events are retained, every further emit that
        *would* have been recorded (enabled, category selected) bumps
        ``dropped`` instead, so ``len(events) + dropped`` is always the
        true emit count for the selected categories.
        """
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        now = self.engine.now if self.engine is not None else 0
        self.events.append(TraceEvent(now, category, message, payload))

    # ------------------------------------------------------------------
    def filter(self, category: str) -> List[TraceEvent]:
        return [e for e in self.events if e.category == category]

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def dump(self, max_lines: int = 100) -> str:
        lines = [str(e) for e in self.events[:max_lines]]
        if len(self.events) > max_lines:
            lines.append(f"... {len(self.events) - max_lines} more events")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tracer events={len(self.events)} dropped={self.dropped}>"
