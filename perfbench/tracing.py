"""Phase spans and per-layer host self time for the traced pass.

Everything here wraps the simulator from outside: :class:`PhaseTracer`
replaces a fixed set of boundary callables (trace capture, plan build,
warm start, engine run, collect, persist, batch execution) with timing
wrappers for the duration of one traced window, and :func:`fold_profile`
folds a cProfile run into the ``repro.<layer>`` packages.  Nothing under
``src/`` is edited.

Phase time is *exclusive*: a span's duration minus the time its nested
spans took, so the phases of one window sum to the time covered by the
outermost spans and never double count (a ``to_dict`` inside
``BenchCache.put`` is collect, not persist).  Spans are aggregated in
memory and read out when the window closes.
"""

import cProfile
import pstats
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

PHASES = ("capture", "plan", "warm", "replay", "collect", "persist", "batch")

#: The ``repro`` packages host self time is folded into; anything outside
#: them (stdlib, builtins, numpy, the benchmark's own code) is ``other``.
LAYERS = ("workloads", "cpu", "system", "cache", "core", "mem", "xbar", "vm",
          "sim", "bench", "obs", "energy", "util", "other")


def _boundaries() -> List[Tuple[object, str, str]]:
    """(owner, attribute, phase) for every wrapped boundary callable.

    Each callable is looked up by the program through its module or class
    attribute at call time, so replacing the attribute intercepts every
    call made while the tracer is installed.
    """
    from repro.bench import cache, frontier, traces
    from repro.system import columnar, result, system

    return [
        (traces.TraceStore, "get_or_capture", "capture"),
        (columnar, "_plan_for", "plan"),
        (columnar, "_build_plan", "plan"),
        (columnar, "_warm", "warm"),
        (system.System, "_warm_caches", "warm"),
        (system.System, "__init__", "replay"),
        (system.System, "run", "replay"),
        (system.System, "_collect", "collect"),
        (result.RunResult, "to_dict", "collect"),
        (result.RunResult, "from_dict", "collect"),
        (cache.BenchCache, "put", "persist"),
        (frontier, "execute_batch", "batch"),
    ]


class PhaseTracer:
    """Exclusive host time per phase, plus call counts per boundary.

    Use as a context manager around the traced window; the wrappers are
    installed on entry and the original attributes restored on exit.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
        #: "module_or_class.attribute" -> calls made inside the window.
        self.calls: Dict[str, int] = {}
        self._stack: List[list] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def _wrap(self, func, phase: str, name: str):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        calls[name] = 0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[phase] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def __enter__(self) -> "PhaseTracer":
        for owner, attr, phase in _boundaries():
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, phase, name))
            else:
                patched = self._wrap(original, phase, name)
            setattr(owner, attr, patched)
            self._restore.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# cProfile folding
# ----------------------------------------------------------------------


def layer_of(filename: str, repro_root: Path) -> str:
    """The ``repro`` package a source file belongs to, else ``other``."""
    try:
        parts = Path(filename).resolve().relative_to(repro_root).parts
    except ValueError:
        return "other"
    if len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return "other"


def fold_profile(profile: cProfile.Profile,
                 repro_root: Optional[Path] = None) -> Dict[str, float]:
    """cProfile ``tottime`` summed per layer (seconds)."""
    if repro_root is None:
        import repro

        repro_root = Path(repro.__file__).resolve().parent
    out = dict.fromkeys(LAYERS, 0.0)
    layers: Dict[str, str] = {}
    for (filename, _line, _func), entry in pstats.Stats(profile).stats.items():
        layer = layers.get(filename)
        if layer is None:
            layer = layers[filename] = layer_of(filename, repro_root)
        out[layer] += entry[2]
    return out
