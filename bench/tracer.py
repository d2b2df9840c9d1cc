"""Call-site tracer for the benchmark's traced run.

The library is measured from outside: on entry, `Tracer` replaces every
public subnyq function at the module attribute its callers look it up by
(the pipelines as `subnyq.harness.jdfpi`, the model helpers as
`subnyq.estimators.joint_steering`, the bounds as `subnyq.harness.crb_phase`
and `subnyq.crb.crb_phase`), records spans in memory, and puts the
originals back on exit.  Intra-module calls of `subnyq.model` are not
wrapped: they are work inside one layer.

A span is `[name, start, end, parent, trial]`: `name` is
`<defining module>.<function>` with `_full` appended when the call passes
`full_structure=True`; `start`/`end` are `time.perf_counter()` seconds;
`parent` is the index of the enclosing span (-1 at top level); `trial` is
the index of the enclosing `harness.run_trial` span (-1 outside trials).
"""

import functools
import inspect
import sys
import time

CALLER_MODULES = ("subnyq.harness", "subnyq.estimators", "subnyq.siggen",
                  "subnyq.crb")
# Steering vectors are built tens of times per trial inside the phase
# refinement loops: they are counted and timed, but get no span, so the trace
# does not swamp the trial.
COUNTED_ONLY = frozenset({"joint_steering", "full_steering", "spatial_steering"})
TRIAL_SPAN = "harness.run_trial"


class Tracer:
    """Context manager that wraps the library's call sites while active.

    `spans` holds the span records and `counts` maps
    `"<caller module>:<layer>.<function>"` to `[calls, seconds]` for the
    counted-only functions.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for mod_name in CALLER_MODULES:
            module = sys.modules[mod_name]
            caller = mod_name.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("subnyq.")):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                if fn.__name__ in COUNTED_ONLY:
                    wrapper = self._counted(fn, f"{caller}:{name}")
                else:
                    wrapper = self._spanned(fn, name)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _spanned(self, fn, name):
        spans, stack = self.spans, self._stack
        is_trial = name == TRIAL_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            trial = idx if is_trial else (spans[parent][4] if parent >= 0 else -1)
            label = name + "_full" if kwargs.get("full_structure") else name
            rec = [label, 0.0, 0.0, parent, trial]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, fn, key):
        cell = self.counts.setdefault(key, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += time.perf_counter() - t0

        return wrapper

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def as_dict(self) -> dict:
        return {"span_fields": ["name", "start", "end", "parent", "trial"],
                "spans": self.spans, "counts": self.counts}
