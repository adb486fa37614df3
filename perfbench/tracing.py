"""In-memory spans around the calls one triwell module makes into another.

The benchmark does not edit triwell. For a traced round it replaces the names
a triwell module imported from another triwell module (for example
``triwell.protocol.substream``) and a few methods with wrappers that record a
span, and restores the originals afterwards. A span is (name, start ns,
end ns, parent index); a layer is the module part of the span name. Spans stay
in memory and are written to an ``.npz`` file when the traced process ends.
Pool workers forked by the traced process write their own file at exit.
"""

from __future__ import annotations

import functools
import inspect
import multiprocessing.util
import os
import sys
import time
from array import array
from pathlib import Path

# Calls that stay inside one module, or go through a method, and still cross
# a layer boundary worth a span: (module, class or None, attribute, span name).
EXTRA_BOUNDARIES = (
    ("triwell.protocol", None, "build_protocol_state", "protocol.build_protocol_state"),
    ("triwell.protocol", None, "correct_and_score", "protocol.correct_and_score"),
    ("triwell.protocol", "BellMeasurement", "sample", "protocol.bell_sample"),
    ("triwell.corrections", None, "parity_collision", "corrections.parity_collision"),
    ("triwell.channel", None, "generate_channel", "channel.generate_channel"),
    ("triwell.homodyne", "IdealPhaseDiscriminator", "__init__", "homodyne.discriminator_init"),
    ("triwell.homodyne", "HomodynePhaseDiscriminator", "__init__", "homodyne.discriminator_init"),
    ("triwell.homodyne", "IdealPhaseDiscriminator", "prepare", "homodyne.prepare"),
    ("triwell.homodyne", "HomodynePhaseDiscriminator", "prepare", "homodyne.prepare"),
    ("triwell.homodyne", "_PreparedIdeal", "draw", "homodyne.draw"),
    ("triwell.homodyne", "_PreparedHomodyne", "draw", "homodyne.draw"),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder; ``install``/``uninstall`` patch triwell's boundaries."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # flat (name id, start, end, parent) records
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # A forked pool worker keeps the wrappers but starts an empty record,
        # written out by multiprocessing's exit hook (workers skip atexit).
        del self.spans[:]
        self._stack.clear()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans) >> 2
            spans.extend((nid, 0, 0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[4 * index + 2] = clock()
                spans[4 * index + 1] = start
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        """Wrap every cross-module function binding plus EXTRA_BOUNDARIES."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key.startswith("triwell.") and m is not None]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ != module.__name__
                        and obj.__module__.startswith("triwell.")):
                    self._patch(module, attr, f"{obj.__module__[8:]}.{obj.__name__}")
        for module_name, cls, attr, name in EXTRA_BOUNDARIES:
            module = sys.modules[module_name]
            self._patch(getattr(module, cls) if cls else module, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self) -> Path | None:
        """Write the recorded spans to ``spans-<pid>.npz``; None if empty."""
        if not self.spans:
            return None
        import numpy as np

        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.npz"
        records = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        np.savez(path, names=np.array(self.names), spans=records)
        return path


def aggregate(span_dir: Path) -> dict:
    """Per span name: [calls, total seconds, self seconds] over every file.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of one tree add up to its root's duration.
    """
    import numpy as np

    totals: dict[str, list] = {}
    for path in sorted(Path(span_dir).glob("spans-*.npz")):
        with np.load(path) as data:
            names, spans = list(data["names"]), data["spans"]
        dur = (spans[:, 2] - spans[:, 1]).astype(float) * 1e-9
        parent = spans[:, 3]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(spans))
        own = dur - child
        ids = spans[:, 0]
        calls = np.bincount(ids, minlength=len(names))
        total = np.bincount(ids, weights=dur, minlength=len(names))
        self_time = np.bincount(ids, weights=own, minlength=len(names))
        for nid, name in enumerate(names):
            if calls[nid]:
                entry = totals.setdefault(str(name), [0, 0.0, 0.0])
                entry[0] += int(calls[nid])
                entry[1] += float(total[nid])
                entry[2] += float(self_time[nid])
    return totals
