"""Spans around the calls into mortcast's modules, recorded from outside.

A :class:`Tracer` replaces each traced public function at every mortcast
module attribute bound to it (``from .x import y`` copies the binding, so
patching only the defining module would miss callers) and wraps the
``MortalitySurface`` constructor on the class itself, which every binding
shares. Each call becomes a span: name, start, end and the span open when
it began. Spans stay in flat in-memory arrays until :meth:`Tracer.save`;
self time is a span's duration minus the durations of its direct children.

Exact counters are recorded at the same boundaries: SL descent sweeps,
simulated paths, HMD lines parsed and bytes emitted by the ingest writers.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute) of every traced callable, in layer order.
TRACED = (
    ("cli", "main"),
    ("ingest", "parse_hmd"),
    ("ingest", "write_hmd"),
    ("ingest", "export_csv"),
    ("ingest", "export_mi_csv"),
    ("ingest", "generate_synthetic"),
    ("lifetable", "MortalitySurface"),
    ("lifetable", "survival_to_q"),
    ("lifetable", "surface_q_to_survival"),
    ("lifetable", "central_rate_to_q"),
    ("transforms", "invert_l_diff"),
    ("transforms", "build_l_diff"),
    ("sl_model", "fit_sl"),
    ("sl_model", "sl_forecast"),
    ("benchmark_models", "fit_lc"),
    ("benchmark_models", "fit_cbd"),
    ("benchmark_models", "lc_forecast"),
    ("benchmark_models", "cbd_forecast"),
    ("timeseries", "simulate_paths"),
    ("timeseries", "calibrate_rwd"),
    ("timeseries", "forecast_states"),
    ("evaluation", "run_backtest"),
    ("evaluation", "mse"),
    ("evaluation", "mape"),
)


def _argument(fn, name):
    """Extractor for one named argument of ``fn`` from a call's args/kwargs."""
    signature = inspect.signature(fn)
    position = list(signature.parameters).index(name)

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        if position < len(args):
            return args[position]
        return signature.parameters[name].default

    return get


def _source_lines(source) -> int:
    if hasattr(source, "getvalue"):
        return len(source.getvalue().splitlines())
    with open(source, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


class Tracer:
    """In-memory span recorder over mortcast's public functions."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        """A benchmark-side span, such as one set-up or one pass."""
        idx = self.open(self._intern(name))
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        tracer, name_id, counters = self, self._intern(name), self.counters
        before = after = None
        if name == "ingest.parse_hmd":
            source = _argument(fn, "source")

            def before(args, kwargs):
                counters["ingest.parse_hmd.lines"] += _source_lines(source(args, kwargs))

        elif name == "timeseries.simulate_paths":
            n_paths = _argument(fn, "n_paths")

            def before(args, kwargs):
                counters["timeseries.simulate_paths.paths"] += int(n_paths(args, kwargs))

        elif name == "sl_model.fit_sl":

            def after(state, result):
                counters["sl_model.fit_sl.sweeps"] += int(result[1].iterations)

        elif name in ("ingest.write_hmd", "ingest.export_csv", "ingest.export_mi_csv"):
            # Bytes emitted into a text buffer (its position moves) or a file path.
            destination = _argument(fn, "destination")

            def before(args, kwargs):
                dest = destination(args, kwargs)
                return dest, (dest.tell() if hasattr(dest, "write") else 0)

            def after(state, result):
                dest, start = state
                end = dest.tell() if hasattr(dest, "write") else os.path.getsize(dest)
                counters["ingest.bytes_written"] += end - start

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(state, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "mortcast"]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules[f"mortcast.{module_name}"], attr)
            if inspect.isclass(original):
                init = original.__init__
                self._restore.append((original, "__init__", init))
                original.__init__ = self._wrap(name, init)
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis --------------------------------------------------------
    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start ns, end ns."""
        return tuple(
            np.frombuffer(a, dtype=np.int64)
            for a in (self.name_id, self.parent, self.start, self.end)
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and summed self time in ms."""
        return self_times(self.names, *self.arrays())

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent,
            start_ns=start, end_ns=end,
        )


def self_times(names, name_id, parent, start, end) -> dict[str, dict[str, float]]:
    """Calls and self ms per span name; self = duration minus direct children."""
    duration = (end - start).astype(np.float64)
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    self_ns = duration - covered
    calls = np.bincount(name_id, minlength=len(names))
    self_sum = np.bincount(name_id, weights=self_ns, minlength=len(names))
    return {
        name: {"calls": int(calls[i]), "self_ms": float(self_sum[i]) / 1e6}
        for i, name in enumerate(names)
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Total and scipy import ms of ``mortcast`` from ``-X importtime`` output.

    Lines read "import time: self | cumulative | <indent>name" in post-order,
    two spaces of indent per nesting level. ``scipy_ms`` sums the cumulative
    time of every scipy module not itself imported by another scipy module.
    """
    pending: list[tuple[int, str, float, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the column header
        label = fields[2].rstrip()
        level = (len(label) - len(label.lstrip(" "))) // 2
        children = []
        while pending and pending[-1][0] > level:
            children.insert(0, pending.pop())
        pending.append((level, label.strip(), int(fields[1]) / 1e3, children))

    total = scipy = 0.0
    stack = list(pending)
    while stack:
        _, name, cumulative_ms, children = stack.pop()
        if name == "mortcast":
            total += cumulative_ms
        if name == "scipy" or name.startswith("scipy."):
            scipy += cumulative_ms
        else:
            stack.extend(children)
    return {"import.total_ms": total, "import.scipy_ms": scipy}
