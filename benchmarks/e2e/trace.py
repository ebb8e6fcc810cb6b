"""Outside-in tracer: times calls into public ``repro`` functions without editing them.

:data:`LAYERS` maps each layer of the system to the dotted public names it
wraps.  :meth:`Tracer.install` replaces every ``repro.*`` module global,
class attribute and module-level registry entry that *is* a target with a
timing wrapper -- so ``from x import f`` aliases are caught -- and
:meth:`Tracer.uninstall` puts every original back.  A target that no longer
exists is reported in :attr:`Tracer.absent`, not raised.

Every wrapped call updates count, total and self time (total minus the time
its traced children cover) under its span name.  Calls of ``coarse``
targets also keep a full span (name, start, end, parent, run id) in memory
for :meth:`Tracer.chrome_trace`.  A call made while a span of the same name
is open is not counted again, so nested or recursive calls are not double
counted.

:data:`PER_LAYER` turns the summed totals into the per-layer metrics named
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union


def _arg(args, kwargs, index: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _layer(tag: str) -> str:
    """Layer id (``l0``, ``l1``) from a kernel workspace tag such as ``lanes.bwd.l1.act``."""
    for part in str(tag).split("."):
        if len(part) > 1 and part[0] == "l" and part[1:].isdigit():
            return part
    return "lx"


#: Circuit named by the last part of a backward kernel's tag.
_CIRCUIT = {"act": "ptanh", "neg": "negweight"}


def _crossbar(direction: str):
    def name(args, kwargs, parent):
        tag = _arg(args, kwargs, 4 if direction == "fwd" else 3, "tag", "")
        return f"pnn.{_layer(tag)}.crossbar.{direction}"
    return name


def _transfer_fwd(args, kwargs, parent):
    kind = _arg(args, kwargs, 2, "kind", "")
    tag = _arg(args, kwargs, 4, "tag", "")
    return f"pnn.{_layer(tag)}.{kind}.fwd"


def _transfer_bwd(args, kwargs, parent):
    tag = str(_arg(args, kwargs, 3, "tag", ""))
    return f"pnn.{_layer(tag)}.{_CIRCUIT.get(tag.rsplit('.', 1)[-1], 'circuit')}.bwd"


def _eval_layer(args, kwargs, parent):
    """``layer_forward`` calls are numbered by call order inside ``network_forward``."""
    if parent is None or parent.name != "pnn.forward":
        return "pnn.lx.eval_fwd"
    return f"pnn.l{parent.bump()}.eval_fwd"


def _optimizer(args, kwargs, parent):
    return "optim.lanes.step" if type(args[0]).__name__ == "LaneAdam" else "optim.adam.step"


# --------------------------------------------------------------------- #
# observers: counts read from arguments and results                     #
# --------------------------------------------------------------------- #


def _obs_outcome(tracer, args, kwargs, result):
    tracer.add("cache.hits", result is not None)


def _obs_store(tracer, args, kwargs, result):
    cache, digest = args[0], _arg(args, kwargs, 1, "digest")
    tracer.add("cache.bytes", os.path.getsize(cache.design_path(digest))
               + os.path.getsize(cache.meta_path(digest)))


def _obs_solve(tracer, args, kwargs, result):
    tracer.add("spice.solve.lanes", len(result.converged))
    tracer.add("spice.solve.newton_iters", int(result.iterations.sum()))
    tracer.add("spice.solve.converged", int(result.converged.sum()))


def _obs_train(tracer, args, kwargs, result):
    results = result if isinstance(result, list) else [result]
    epochs = [r.epochs_run for r in results]
    tracer.add("core.train.lane_epochs", sum(epochs))
    tracer.add("core.train.lane_slots", len(epochs) * max(epochs, default=0))


def _obs_eval(tracer, args, kwargs, result):
    tracer.add("core.eval.evals", result.accuracies.size)


def _obs_tile(tracer, args, kwargs, result):
    tracer.add("exporting.tile.tiles", result.n_tiles)
    tracer.add("exporting.tile.devices", result.n_devices)


def _obs_verify(tracer, args, kwargs, result):
    tracer.add("exporting.verify.passed", bool(result.passed))


def _obs_dataset(tracer, args, kwargs, result):
    if result.stats is not None:
        tracer.add("surrogate.kept", result.stats.n_kept)
        tracer.add("surrogate.sampled", result.stats.n_sampled)


def _obs_train_mlp(tracer, args, kwargs, result):
    tracer.add("surrogate.train_mlp.epochs", len(result.history))


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``name`` is the span name, or ``name(args, kwargs, parent_frame)``
    returning it.  ``inside`` lists ``(extra_name, ancestor)`` pairs: the
    call's duration is also added to ``extra_name`` while a span named
    ``ancestor`` is open.  ``samples`` keeps every duration (for
    percentiles).
    """

    dotted: str
    name: Union[str, Callable]
    coarse: bool = False
    observe: Optional[Callable] = None
    inside: Tuple[Tuple[str, str], ...] = ()
    samples: bool = False


_GK = "repro.core.grad_kernels"

#: layer -> the public callables that carry its work.
LAYERS: Dict[str, Tuple[Target, ...]] = {
    "experiments.parallel": (
        Target("repro.experiments.parallel.run_table2_parallel", "parallel.table2", coarse=True),
    ),
    "experiments.jobs": (
        Target("repro.experiments.jobs.execute_job_lanes", "jobs.lanes", coarse=True),
    ),
    "experiments.cache": (
        Target("repro.experiments.cache.ResultCache.load_outcome", "cache.load_outcome",
               observe=_obs_outcome),
        Target("repro.experiments.cache.ResultCache.load_design", "cache.load_design", coarse=True),
        Target("repro.experiments.cache.ResultCache.store", "cache.store", coarse=True,
               observe=_obs_store),
        Target("repro.experiments.cache.RunJournal.record", "cache.journal"),
    ),
    "experiments.tables": tuple(
        Target(f"repro.experiments.tables.{fn}", "tables.render", coarse=True)
        for fn in ("render_table2", "render_table3", "render_scenario_grid")
    ),
    "datasets": (
        Target("repro.datasets.registry.load_splits", "datasets.load_splits", coarse=True),
    ),
    "surrogate": (
        Target("repro.surrogate.io.load_bundle", "surrogate.load_bundle", coarse=True),
        Target("repro.surrogate.dataset_builder.build_surrogate_dataset", "surrogate.build_dataset",
               coarse=True, observe=_obs_dataset),
        Target("repro.surrogate.fitting.fit_ptanh_batch", "surrogate.fit"),
        Target("repro.surrogate.training.train_surrogate", "surrogate.train_mlp", coarse=True,
               observe=_obs_train_mlp),
    ),
    "autograd": (
        Target("repro.nn.module.Module.__call__", "autograd.forward"),
        Target("repro.autograd.tensor.Tensor.backward", "autograd.backward"),
    ),
    "optim": (
        Target("repro.optim.adam.Adam.step", _optimizer),
    ),
    "spice": (
        Target("repro.spice.sweep.dc_sweep_batch", "spice.sweep"),
        Target("repro.spice.batch.solve_dc_batch", "spice.solve", observe=_obs_solve),
    ),
    "core.training": (
        Target("repro.core.lanes.train_pnn_lanes", "core.train", coarse=True, observe=_obs_train),
        Target("repro.core.training.train_pnn", "core.train", coarse=True, observe=_obs_train),
        Target("repro.core.lanes.LaneNetwork.loss_and_grads", "core.train.fwd_bwd", samples=True),
        Target(f"{_GK}.KernelNetwork.loss_and_grads", "core.train.fwd_bwd", samples=True),
        Target("repro.core.lanes.LaneNetwork.loss_values", "core.train.val"),
        Target(f"{_GK}.KernelNetwork.loss_value", "core.train.val"),
        Target("repro.core.training.draw_epoch_epsilons", "core.train.sample_eps"),
    ),
    "core.pnn": (
        Target(f"{_GK}.crossbar_fwd", _crossbar("fwd")),
        Target(f"{_GK}.crossbar_bwd", _crossbar("bwd")),
        Target(f"{_GK}.transfer_fwd", _transfer_fwd),
        Target(f"{_GK}.transfer_bwd", _transfer_bwd),
        Target(f"{_GK}.reassemble_omega_fwd", "pnn.eta.fwd"),
        Target(f"{_GK}.surrogate_eta_fwd", "pnn.eta.fwd"),
        Target(f"{_GK}.reassemble_omega_bwd", "pnn.eta.bwd"),
        Target(f"{_GK}.surrogate_eta_bwd", "pnn.eta.bwd"),
        Target("repro.core.kernels.apply_nonideality", "pnn.nonideality.fwd"),
        Target(f"{_GK}.apply_nonideality_bwd", "pnn.nonideality.bwd"),
        Target(f"{_GK}.margin_loss_fwd", "pnn.loss.fwd"),
        Target(f"{_GK}.ce_loss_fwd", "pnn.loss.fwd"),
        Target(f"{_GK}.margin_loss_bwd", "pnn.loss.bwd"),
        Target(f"{_GK}.ce_loss_bwd", "pnn.loss.bwd"),
        Target("repro.core.kernels.network_forward", "pnn.forward",
               inside=(("core.eval.forward", "core.eval"),)),
        Target("repro.core.kernels.layer_forward", _eval_layer),
    ),
    "core.evaluation": (
        Target("repro.core.evaluation.evaluate_mc", "core.eval", coarse=True, observe=_obs_eval),
        Target("repro.core.evaluation.evaluate_mc_sharded", "core.eval", coarse=True,
               observe=_obs_eval),
        Target("repro.core.evaluation.draw_variation_samples", "core.eval.sample_eps"),
    ),
    "exporting": (
        Target("repro.exporting.tiling.compile_tiling", "exporting.tile", coarse=True,
               observe=_obs_tile),
        Target("repro.exporting.deploy.verify_deployment", "exporting.verify", coarse=True,
               observe=_obs_verify),
        Target("repro.exporting.netlist_export.export_tiled_netlist_text", "exporting.netlist",
               coarse=True),
    ),
}


# --------------------------------------------------------------------- #
# the tracer                                                            #
# --------------------------------------------------------------------- #


class _Frame:
    __slots__ = ("name", "start", "child", "sid", "parent_sid", "counter")

    def __init__(self, name, start, sid, parent_sid):
        self.name = name
        self.start = start
        self.child = 0.0
        self.sid = sid
        self.parent_sid = parent_sid
        self.counter = -1

    def bump(self) -> int:
        """Number this frame's next counted child call (0, 1, ...)."""
        self.counter += 1
        return self.counter


def resolve(dotted: str):
    """The function a dotted ``module[.Class].attr`` name refers to, or ``None``.

    For a method this is the entry of the class ``__dict__``, which is what
    aliases compare ``is`` to.
    """
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            return vars(owner)[parts[-1]]
        except (AttributeError, KeyError):
            return None
    return None


class Tracer:
    """Wrap the targets of ``layers`` and aggregate their timings.

    ``begin(run)`` labels the spans that follow; totals are kept apart for
    the ``"setup"`` run and for all other runs (``"units"``).
    """

    def __init__(self, layers: Dict[str, Sequence[Target]] = LAYERS):
        self.targets = [target for group in layers.values() for target in group]
        self.absent: List[str] = []
        self.totals: Dict[str, Dict[str, float]] = {"setup": defaultdict(float),
                                                    "units": defaultdict(float)}
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.spans: List[tuple] = []
        self.run = "setup"
        self.origin = perf_counter()
        self._stack: List[_Frame] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._sites: List[tuple] = []
        self._next_sid = 0

    # -- installation ---------------------------------------------------- #

    def install(self) -> "Tracer":
        """Rebind every alias of every present target to its wrapper."""
        if self._sites:
            raise RuntimeError("tracer already installed")
        replace: Dict[int, object] = {}
        self.absent = []
        for target in self.targets:
            func = resolve(target.dotted)
            if func is None:
                self.absent.append(target.dotted)
                continue
            if id(func) not in replace:
                replace[id(func)] = self._wrap(func, target)
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "repro" or name.startswith("repro.")):
                self._rebind(vars(module), module, replace, scan_classes=True)
        return self

    def _rebind(self, namespace, owner, replace, scan_classes=False):
        for key, value in list(namespace.items()):
            if key == "__builtins__":
                continue
            if id(value) in replace:
                self._sites.append((owner, key, value))
                setattr(owner, key, replace[id(value)])
            elif isinstance(value, dict):
                for entry_key, entry in list(value.items()):
                    if id(entry) in replace:
                        new = replace[id(entry)]
                    elif isinstance(entry, tuple) and any(id(x) in replace for x in entry):
                        new = tuple(replace.get(id(x), x) for x in entry)
                    else:
                        continue
                    self._sites.append((value, entry_key, entry))
                    value[entry_key] = new
            elif (scan_classes and isinstance(value, type)
                  and value.__module__ == getattr(owner, "__name__", None)):
                self._rebind(vars(value), value, replace)

    def uninstall(self) -> None:
        """Put every rebound original back (reverse order)."""
        while self._sites:
            owner, key, original = self._sites.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ------------------------------------------------------- #

    def begin(self, run: str) -> None:
        self.run = run

    def add(self, counter: str, value: float) -> None:
        self.totals[self._phase()][counter] += value

    def _phase(self) -> str:
        return "setup" if self.run == "setup" else "units"

    def _wrap(self, func, target: Target):
        tracer = self
        fixed = None if callable(target.name) else target.name

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            name = fixed or target.name(args, kwargs, stack[-1] if stack else None)
            if tracer._open[name]:
                return func(*args, **kwargs)
            frame = tracer._push(name, target.coarse)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._pop(frame, target)
            if target.observe is not None:
                target.observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def _push(self, name: str, coarse: bool) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        parent_sid = None if parent is None else (
            parent.sid if parent.sid is not None else parent.parent_sid)
        sid = None
        if coarse:
            sid = self._next_sid
            self._next_sid += 1
        self._open[name] += 1
        frame = _Frame(name, perf_counter(), sid, parent_sid)
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, target: Target) -> None:
        end = perf_counter()
        duration = end - frame.start
        self._stack.pop()
        self._open[frame.name] -= 1
        totals = self.totals[self._phase()]
        totals[f"{frame.name}.calls"] += 1
        totals[f"{frame.name}.s"] += duration
        totals[f"{frame.name}.self_s"] += duration - frame.child
        for extra, ancestor in target.inside:
            if self._open[ancestor]:
                totals[f"{extra}.s"] += duration
        if self._stack:
            self._stack[-1].child += duration
        else:
            totals["trace.top_s"] += duration
        if target.samples and self.run != "setup":
            self.samples[frame.name].append(duration)
        if frame.sid is not None:
            self.spans.append((frame.name, frame.start, end, frame.sid, frame.parent_sid, self.run))

    # -- output ---------------------------------------------------------- #

    def chrome_trace(self) -> List[dict]:
        """The kept spans as Chrome trace events (open in Perfetto or chrome://tracing)."""
        return [
            {"name": name, "ph": "X", "tid": 0,
             "ts": (start - self.origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": sid, "parent": parent, "run": run}}
            for name, start, end, sid, parent, run in self.spans
        ]


# --------------------------------------------------------------------- #
# per-layer metrics                                                     #
# --------------------------------------------------------------------- #


def _per_unit(key):
    return lambda t, units, setups: t.get(key, 0.0) / units


def _ratio(num, den):
    return lambda t, units, setups: t.get(num, 0.0) / t[den] if t.get(den) else 0.0


def _pctl(key, q):
    def value(t, units, setups):
        samples = t.get(f"samples.{key}") or []
        if len(samples) < 2:
            return samples[0] * 1e3 if samples else 0.0
        return statistics.quantiles(samples, n=100)[q - 1] * 1e3
    return value


def _pnn_calls(t, units, setups):
    return sum(v for k, v in t.items() if k.startswith("pnn.") and k.endswith(".calls")) / units


def _overhead(t, units, setups):
    traced, plain = t.get("unit.traced_median_s"), t.get("unit.untraced_median_s")
    return traced / plain - 1.0 if traced and plain else 0.0


_TIMES = (
    "parallel.table2", "jobs.lanes", "cache.load_outcome", "cache.load_design", "cache.store",
    "cache.journal", "tables.render", "datasets.load_splits", "surrogate.build_dataset",
    "surrogate.fit", "surrogate.train_mlp", "autograd.forward", "autograd.backward",
    "optim.adam.step", "optim.lanes.step", "spice.sweep", "spice.solve", "core.train",
    "core.train.fwd_bwd", "core.train.val", "core.train.sample_eps", "core.eval",
    "core.eval.sample_eps", "core.eval.forward", "exporting.tile", "exporting.verify",
    "exporting.netlist",
)
_CALLS = (
    "jobs.lanes", "cache.load_outcome", "cache.load_design", "cache.store", "datasets.load_splits",
    "surrogate.fit", "spice.sweep", "spice.solve", "core.train", "core.eval", "exporting.tile",
    "exporting.verify",
)

#: per-layer metric name -> value(totals summed over children, traced units, setups).
PER_LAYER: Dict[str, Callable] = {
    **{f"{name}.s": _per_unit(f"{name}.s") for name in _TIMES},
    **{f"{name}.calls": _per_unit(f"{name}.calls") for name in _CALLS},
    "parallel.table2.self_s": _per_unit("parallel.table2.self_s"),
    "cache.hit_ratio": _ratio("cache.hits", "cache.load_outcome.calls"),
    "cache.bytes": _per_unit("cache.bytes"),
    "surrogate.load_bundle.s": lambda t, units, setups: t.get("setup.surrogate.load_bundle.s", 0.0) / setups,
    "surrogate.kept_ratio": _ratio("surrogate.kept", "surrogate.sampled"),
    "surrogate.train_mlp.epochs": _per_unit("surrogate.train_mlp.epochs"),
    "optim.step.calls": lambda t, units, setups: (
        t.get("optim.adam.step.calls", 0.0) + t.get("optim.lanes.step.calls", 0.0)) / units,
    "spice.solve.lanes": _per_unit("spice.solve.lanes"),
    "spice.solve.newton_iters": _per_unit("spice.solve.newton_iters"),
    "spice.solve.converged_ratio": _ratio("spice.solve.converged", "spice.solve.lanes"),
    "spice.solve.lanes_per_s": _ratio("spice.solve.lanes", "spice.solve.s"),
    "core.train.lane_epochs": _per_unit("core.train.lane_epochs"),
    "core.train.lane_util": _ratio("core.train.lane_epochs", "core.train.lane_slots"),
    "core.train.lane_epochs_per_s": _ratio("core.train.lane_epochs", "core.train.s"),
    "core.train.fwd_bwd.p50_ms": _pctl("core.train.fwd_bwd", 50),
    "core.train.fwd_bwd.p99_ms": _pctl("core.train.fwd_bwd", 99),
    **{f"pnn.{layer}.{part}.{direction}_s": _per_unit(f"pnn.{layer}.{part}.{direction}.s")
       for layer in ("l0", "l1") for part in ("crossbar", "ptanh", "negweight")
       for direction in ("fwd", "bwd")},
    **{f"pnn.{layer}.eval_fwd_s": _per_unit(f"pnn.{layer}.eval_fwd.s") for layer in ("l0", "l1")},
    **{f"pnn.{part}.{direction}_s": _per_unit(f"pnn.{part}.{direction}.s")
       for part in ("eta", "nonideality", "loss") for direction in ("fwd", "bwd")},
    "pnn.calls": _pnn_calls,
    "core.eval.evals": _per_unit("core.eval.evals"),
    "core.eval.evals_per_s": _ratio("core.eval.evals", "core.eval.s"),
    "exporting.tile.tiles": _per_unit("exporting.tile.tiles"),
    "exporting.tile.devices": _per_unit("exporting.tile.devices"),
    "exporting.verify.pass_ratio": _ratio("exporting.verify.passed", "exporting.verify.calls"),
    "trace.coverage": _ratio("trace.top_s", "unit.traced_wall_s"),
    "trace.overhead_frac": _overhead,
}


def layer_metrics(totals: Dict[str, object], units: int, setups: int) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from totals summed over a run's children."""
    return {name: float(value(totals, max(units, 1), max(setups, 1)))
            for name, value in PER_LAYER.items()}
