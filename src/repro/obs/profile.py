"""Opt-in wall-clock profiling: cProfile + a sampling signal profiler.

Behind the CLI's ``--profile`` flag.  Two complementary collectors run
under one :class:`Profiler`:

* **cProfile** (deterministic, per-call): exact call counts and
  cumulative times — the source of the top-function table.  Its
  tracing overhead is significant, which is why profiling is opt-in;
  with ``--profile`` absent nothing here is ever constructed.
* **Sampling profiler** (statistical): a ``SIGPROF``/``ITIMER_PROF``
  timer samples the stacks of *all* threads (``sys._current_frames``)
  on process CPU time, folding them into ``a;b;c count`` stacks — the
  source of the flamegraph.  BLAS worker threads show up here even
  though cProfile (which traces only the calling thread's bytecode)
  cannot see them.  Requires the main thread and a Unix signal
  machinery; it degrades to "no samples" silently elsewhere.

The result (:class:`ProfileResult`) serializes into the run artifact's
``profile`` section (schema v3) as plain data — top rows + folded
stacks — and :func:`flamegraph_svg` renders the folded stacks into a
self-contained SVG at report time, so artifacts stay compact while the
HTML report gets a real flamegraph.
"""

from __future__ import annotations

import cProfile
import logging
import pstats
import sys
import threading
import time
from dataclasses import dataclass, field

logger = logging.getLogger(__name__)

#: Default sampling period (seconds of process CPU time).
DEFAULT_INTERVAL_S = 0.005

#: Frames deeper than this are truncated when folding stacks.
MAX_STACK_DEPTH = 64


@dataclass
class ProfileResult:
    """One profiling session, ready for artifact embedding."""

    mode: str               # collectors run: "both" (older artifacts
                            # may also say "cprofile" or "sample")
    seconds: float
    top: list[dict] = field(default_factory=list)
    folded: dict[str, int] = field(default_factory=dict)
    samples: int = 0
    interval_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "seconds": self.seconds, "top": self.top,
            "folded": self.folded, "samples": self.samples,
            "interval_s": self.interval_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileResult":
        return cls(
            mode=data.get("mode", "both"),
            seconds=float(data.get("seconds", 0.0)),
            top=list(data.get("top", [])),
            folded={k: int(v)
                    for k, v in data.get("folded", {}).items()},
            samples=int(data.get("samples", 0)),
            interval_s=float(data.get("interval_s", 0.0)),
        )

    def render_top(self, limit: int = 20) -> str:
        """Plain-text top-function table (by cumulative time)."""
        if not self.top:
            return ("(no deterministic profile; sampling-only session: "
                    f"{self.samples} samples)")
        lines = [
            f"top {min(limit, len(self.top))} functions by cumulative "
            f"time ({self.seconds:.2f}s profiled)",
            f"{'cumtime':>9}{'tottime':>9}{'ncalls':>9}  function",
            "-" * 72,
        ]
        for row in self.top[:limit]:
            lines.append(
                f"{row['cumtime_s']:>8.3f}s{row['tottime_s']:>8.3f}s"
                f"{row['ncalls']:>9}  {row['func']} "
                f"({row['file']}:{row['line']})"
            )
        return "\n".join(lines)


class SamplingProfiler:
    """Signal-driven stack sampler over all threads.

    ``ITIMER_PROF`` fires ``SIGPROF`` every ``interval`` seconds of
    process CPU time; the handler (which runs on the main thread) folds
    the current stack of every live thread.  Start/stop must both happen
    on the main thread.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL_S) -> None:
        self.interval = interval
        self.counts: dict[str, int] = {}
        self.samples = 0
        self._prev_handler = None
        self._active = False

    @staticmethod
    def available() -> bool:
        import signal

        return (hasattr(signal, "setitimer")
                and hasattr(signal, "SIGPROF")
                and threading.current_thread()
                is threading.main_thread())

    def _handler(self, signum, frame) -> None:
        self.samples += 1
        for tid, top in sys._current_frames().items():
            stack: list[str] = []
            f = top
            while f is not None and len(stack) < MAX_STACK_DEPTH:
                code = f.f_code
                stack.append(f"{code.co_name} "
                             f"({code.co_filename.rsplit('/', 1)[-1]}"
                             f":{code.co_firstlineno})")
                f = f.f_back
            if not stack:
                continue
            key = ";".join(reversed(stack))
            self.counts[key] = self.counts.get(key, 0) + 1

    def start(self) -> bool:
        import signal

        if not self.available():
            return False
        self._prev_handler = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval,
                         self.interval)
        self._active = True
        return True

    def stop(self) -> None:
        import signal

        if not self._active:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._prev_handler)
        self._active = False


class Profiler:
    """One profiling session running both collectors.

    The sampling collector drops out silently where it cannot run (off
    the main thread, or without Unix signals); cProfile always runs.

    Args:
        interval: sampling period for the statistical collector.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL_S) -> None:
        self._cprofile = cProfile.Profile()
        self._sampler: SamplingProfiler | None = SamplingProfiler(
            interval=interval)
        self._t0 = 0.0
        self._result: ProfileResult | None = None

    def start(self) -> "Profiler":
        self._t0 = time.perf_counter()
        if self._sampler is not None and not self._sampler.start():
            logger.info("sampling profiler unavailable here "
                        "(needs Unix signals + main thread); "
                        "continuing without samples")
            self._sampler = None
        self._cprofile.enable()
        return self

    def stop(self) -> ProfileResult:
        """Stop both collectors (idempotent) and return the result."""
        if self._result is not None:
            return self._result
        seconds = time.perf_counter() - self._t0
        self._cprofile.disable()
        if self._sampler is not None:
            self._sampler.stop()
        stats = pstats.Stats(self._cprofile)
        rows = []
        for (file, line, func), (cc, nc, tottime, cumtime, _callers) \
                in stats.stats.items():
            rows.append({
                "func": func,
                "file": file.rsplit("/", 1)[-1],
                "line": line,
                "ncalls": nc,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            })
        rows.sort(key=lambda r: -r["cumtime_s"])
        top = rows[:60]
        self._result = ProfileResult(
            mode="both",
            seconds=seconds,
            top=top,
            folded=dict(self._sampler.counts) if self._sampler else {},
            samples=self._sampler.samples if self._sampler else 0,
            interval_s=self._sampler.interval if self._sampler else 0.0,
        )
        return self._result


# -- flamegraph ---------------------------------------------------------------

_FLAME_COLORS = ("#d9534f", "#e8793a", "#f0a433", "#c44e52", "#dd6b4d")


def _flame_tree(folded: dict[str, int]) -> dict:
    """Fold ``a;b;c -> count`` stacks into a nested {name, total,
    children} tree rooted at "all"."""
    root = {"name": "all", "total": 0, "children": {}}
    for stack, count in folded.items():
        root["total"] += count
        node = root
        for frame in stack.split(";"):
            child = node["children"].get(frame)
            if child is None:
                child = {"name": frame, "total": 0, "children": {}}
                node["children"][frame] = child
            child["total"] += count
            node = child
    return root


def flamegraph_svg(folded: dict[str, int], width: int = 960,
                   row_height: int = 17, max_depth: int = 32) -> str:
    """Self-contained SVG flamegraph from folded stacks.

    Frame widths are proportional to sample counts; hover titles carry
    the full frame name, count, and percentage.  Pure inline SVG — no
    scripts, safe to embed in the archived HTML report.
    """
    if not folded:
        return ("<p class='muted'>(no stack samples — sampling profiler "
                "was unavailable or nothing ran long enough)</p>")
    root = _flame_tree(folded)
    total = root["total"] or 1
    rects: list[str] = []

    def emit(node: dict, x: float, depth: int) -> None:
        w = width * node["total"] / total
        if w < 0.5 or depth > max_depth:
            return
        y = depth * row_height
        color = _FLAME_COLORS[hash(node["name"]) % len(_FLAME_COLORS)]
        import html as _html

        name = _html.escape(node["name"])
        pct = 100.0 * node["total"] / total
        rects.append(
            f'<g><title>{name} — {node["total"]} samples '
            f'({pct:.1f}%)</title>'
            f'<rect x="{x:.1f}" y="{y}" width="{max(w, 1):.1f}" '
            f'height="{row_height - 1}" fill="{color}" rx="1"/>'
            + (f'<text x="{x + 3:.1f}" y="{y + row_height - 5}" '
               f'font-size="10" fill="#fff">'
               f'{name[: max(1, int(w / 6.5))]}</text>'
               if w > 30 else "")
            + "</g>"
        )
        cx = x
        for child in sorted(node["children"].values(),
                            key=lambda c: -c["total"]):
            emit(child, cx, depth + 1)
            cx += width * child["total"] / total

    emit(root, 0.0, 0)
    depth_used = min(max_depth + 1, _tree_depth(root))
    height = depth_used * row_height + 4
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        f'font-family="monospace">' + "".join(rects) + "</svg>"
    )


def _tree_depth(node: dict) -> int:
    if not node["children"]:
        return 1
    return 1 + max(_tree_depth(c) for c in node["children"].values())
