"""Outside-in per-layer tracing of the zenosim package.

``Tracer.install()`` replaces every public function of the seven package
modules, and every public method of their public classes, with a wrapper that
records a span: its layer, its duration and the time its child spans cover.
A function imported into another module (``from .noise import
stream_generator``) is rebound there too, so calls across modules are seen.
``uninstall()`` puts the originals back.

Self time is a span's duration minus the part its child spans cover; summed
over all layers plus the benchmark's own glue it equals the traced wall time.

``stream_generator`` hands out a ``CountingGenerator`` that counts every
value drawn from the Philox ``Generator``.  Each draw is charged to the layer
of the innermost open span, so the count follows the draw layout of whatever
code makes the draw.  Only aggregates are kept, not individual spans.
"""

import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("qubit", "noise", "lindblad", "zeno", "config", "cli", "tables")

# per-layer metric name -> (layer, function qualnames whose self time it sums)
SELF_TIMES = {
    "zeno.mc_self_s": ("zeno", ("selective_run_mc", "nonselective_run_mc")),
    "zeno.sweep_self_s": ("zeno", ("figure2_sweep", "figure3_surface")),
    "noise.ensemble_self_s": ("noise", ("ensemble_average",)),
    "noise.block_values_s": ("noise", ("block_noise_values",)),
    "noise.stream_s": ("noise", ("stream_generator",)),
    "lindblad.integrate_self_s": ("lindblad", ("integrate",)),
    "lindblad.rhs_s": ("lindblad", ("master_rhs",)),
    "qubit.validate_s": ("qubit", ("validate_density",)),
    "qubit.fidelity_s": ("qubit", ("dynamical_fidelity",)),
    "config.parse_s": ("config", ("parse_config",)),
    "tables.write_s": ("tables", ("write_csv",)),
}

# per-layer metric name -> (layer, function qualnames whose calls it counts)
CALL_COUNTS = {
    "zeno.mc_calls": ("zeno", ("selective_run_mc", "nonselective_run_mc")),
    "noise.streams": ("noise", ("stream_generator",)),
    "lindblad.rhs_calls": ("lindblad", ("master_rhs",)),
    "qubit.validate_calls": ("qubit", ("validate_density",)),
    "cli.runs": ("cli", ("main",)),
}


class CountingGenerator:
    """Proxy of a numpy ``Generator`` that counts the values each call draws."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._tracer.count_draws(int(np.size(out)))
            return out

        return counted


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self._patched = []                   # (owner, attribute, original)
        self.calls = defaultdict(int)        # (layer, qualname) -> calls
        self.self_s = defaultdict(float)     # (layer, qualname) -> self seconds
        self.draws = defaultdict(int)        # layer -> values drawn
        self.counts = defaultdict(float)     # counters filled by result hooks
        self.top_level_s = 0.0               # time covered by outermost spans
        self._stack = []                     # open spans: [layer, child seconds]

    # -- spans -------------------------------------------------------------

    def count_draws(self, n):
        self.draws[self._stack[-1][0] if self._stack else "bench"] += n

    def _wrap(self, layer, qualname, func):
        key = (layer, qualname)
        hook = _HOOKS.get(key)

        @functools.wraps(func)
        def span(*args, **kwargs):
            frame = [layer, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                self.calls[key] += 1
                self.self_s[key] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                else:
                    self.top_level_s += duration
            if hook is not None:
                result = hook(self, args, kwargs, result)
            return result

        return span

    # -- patching ----------------------------------------------------------

    def _targets(self):
        """Yield (owner, attribute, layer, qualname, original) to wrap."""
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, name, layer, name, obj
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            yield obj, attr, layer, f"{obj.__name__}.{attr}", member

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [self.package, *self.modules.values()]
        for owner, attr, layer, qualname, original in list(self._targets()):
            wrapped = self._wrap(layer, qualname, original)
            if inspect.isclass(owner):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            # rebind every module-level name that refers to this function
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, name, original))
                        setattr(ns, name, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, passes, wall_s):
        """Per-pass per-layer metrics for ``passes`` traced passes of ``wall_s`` total."""
        per = 1.0 / passes
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per * sum(v for (lay, _), v in self.self_s.items()
                                               if lay == layer)
        for metric, (layer, names) in SELF_TIMES.items():
            out[metric] = per * sum(self.self_s[(layer, n)] for n in names)
        for metric, (layer, names) in CALL_COUNTS.items():
            out[metric] = per * sum(self.calls[(layer, n)] for n in names)
        steps = self.counts["zeno.traj_steps"]
        selective_steps = self.counts["zeno.selective_steps"]
        out["zeno.traj_steps"] = per * steps
        out["zeno.draws"] = per * self.draws["zeno"]
        out["zeno.draws_per_step"] = self.draws["zeno"] / steps if steps else 0.0
        out["zeno.alive_frac"] = (self.counts["zeno.survivors"] / selective_steps
                                  if selective_steps else 0.0)
        out["noise.draws"] = per * self.draws["noise"]
        out["noise.block_bytes"] = self.counts["noise.block_bytes"]
        out["tables.rows"] = per * self.counts["tables.rows"]
        out["tables.bytes"] = per * self.counts["tables.bytes"]
        out["bench.wall_s"] = per * wall_s
        out["bench.glue_self_s"] = per * (wall_s - self.top_level_s)
        return out


# -- result hooks: counts taken where the work happens ----------------------


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _hook_stream(tracer, args, kwargs, gen):
    return CountingGenerator(gen, tracer)


def _hook_mc(tracer, args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    steps = result.trajectories * config.measurements
    tracer.counts["zeno.traj_steps"] += steps
    if result.survivors_per_step is not None:
        tracer.counts["zeno.selective_steps"] += steps
        tracer.counts["zeno.survivors"] += sum(result.survivors_per_step)
    return result


def _hook_block_values(tracer, args, kwargs, values):
    tracer.counts["noise.block_bytes"] = max(tracer.counts["noise.block_bytes"], values.nbytes)
    return values


def _hook_write_csv(tracer, args, kwargs, result):
    tracer.counts["tables.rows"] += len(_arg(args, kwargs, 0, "table").rows)
    tracer.counts["tables.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    return result


_HOOKS = {
    ("noise", "stream_generator"): _hook_stream,
    ("noise", "block_noise_values"): _hook_block_values,
    ("zeno", "selective_run_mc"): _hook_mc,
    ("zeno", "nonselective_run_mc"): _hook_mc,
    ("tables", "write_csv"): _hook_write_csv,
}
