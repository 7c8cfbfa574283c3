"""Span tracer for the traced run, and the per-layer metrics derived from it.

``install()`` runs inside a child interpreter.  It replaces every public
function of the package's modules, in every module namespace that binds it,
with a wrapper that records a span (name, start, end, parent, attrs).  Two
private CLI helpers are wrapped as well: ``cli._summary`` (as
``cli.summary``) and the ``cli._run_gates`` generator, whose time between
yields becomes one ``cli.gate.<name>`` span per verification gate.  Spans
stay in memory until the child writes them out at the end.

``layer_metrics()`` runs in the benchmark process and turns the spans of one
traced pass into the per-layer metrics named in BENCHMARK.json.  A function
the metrics need but the package no longer defines (renamed or moved) is
reported in ``missing`` with a reason and its metrics read 0; the untraced
end-to-end run never imports this module.
"""

from __future__ import annotations

import importlib
import inspect
import time

import numpy as np

MODULES = ("cli", "optomech", "dynamics", "protocol", "gaussian_core", "readout")

#: Functions the per-layer metrics read, as (module, attribute, span name).
EXPECTED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "cmd_curve", "cli.cmd_curve"),
    ("cli", "_summary", "cli.summary"),
    ("cli", "_run_gates", "cli.gate"),
    ("optomech", "compute_couplings", "optomech.compute_couplings"),
    ("optomech", "validate_regime", "optomech.validate_regime"),
    ("protocol", "optimal_time", "protocol.optimal_time"),
    ("protocol", "optimal_time_no_heterodyne", "protocol.optimal_time_no_heterodyne"),
    ("dynamics", "coeffs_analytic", "dynamics.coeffs_analytic"),
    ("protocol", "fidelity_coherent", "protocol.fidelity_coherent"),
    ("protocol", "fidelity_no_heterodyne", "protocol.fidelity_no_heterodyne"),
    ("dynamics", "coeffs_ode", "dynamics.coeffs_ode"),
    ("dynamics", "propagator", "dynamics.propagator"),
    ("dynamics", "coeffs_from_propagator", "dynamics.coeffs_from_propagator"),
    ("protocol", "conditional_correlation", "protocol.conditional_correlation"),
    ("protocol", "teleport_covariance", "protocol.teleport_covariance"),
    ("gaussian_core", "physicality_defect", "gaussian_core.physicality_defect"),
    ("gaussian_core", "symplectic_defect", "gaussian_core.symplectic_defect"),
)

GATES = (
    "couplings-consistency",
    "ode-vs-analytic",
    "propagator-metric",
    "propagator-group",
    "conditional-physicality",
    "fidelity-identity",
    "moment-route",
    "teleport-noise",
)

OPTIMISERS = ("protocol.optimal_time", "protocol.optimal_time_no_heterodyne")


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _points_of_time(args, kwargs):
    t = _arg(args, kwargs, 2, "time")
    return {"points": int(np.size(t)), "scalar": np.ndim(t) == 0}


def _points_of_coeffs(args, kwargs):
    return {"points": int(np.size(_arg(args, kwargs, 0, "g").time))}


def _optimiser_scan(args, kwargs):
    return {"scan_points": int(_arg(args, kwargs, 2, "grid_points", 2000)) + 1}


def _ode_grid(args, kwargs):
    times = np.atleast_1d(np.asarray(_arg(args, kwargs, 2, "time"), dtype=float))
    return {"times": times.tolist(), "dt": float(_arg(args, kwargs, 3, "dt_max"))}


#: Per-span attributes, read from the call's arguments before the span starts.
ATTRS = {
    "dynamics.coeffs_analytic": _points_of_time,
    "protocol.fidelity_coherent": _points_of_coeffs,
    "protocol.fidelity_no_heterodyne": _points_of_coeffs,
    "protocol.optimal_time": _optimiser_scan,
    "protocol.optimal_time_no_heterodyne": _optimiser_scan,
    "dynamics.coeffs_ode": _ode_grid,
}


class Tracer:
    """Records spans as lists [name, start, end, parent, attrs] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []

    def _open(self, name: str, attrs) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            attrs = None
            if attrs_of is not None:
                try:
                    attrs = attrs_of(args, kwargs)
                except Exception as exc:  # a changed signature must not break the run
                    attrs = {"error": f"{type(exc).__name__}: {exc}"}
            idx = self._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def wrap_gates(self, fn):
        """Time each step of the gate generator as span cli.gate.<name>."""

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open("cli.gate", None)
                try:
                    item = next(gen)
                except StopIteration:
                    self.spans[idx][0] = "cli.gates.end"
                    return
                finally:
                    self._close(idx)
                self.spans[idx][0] = f"cli.gate.{item[0]}"
                yield item

        traced.__wrapped__ = fn
        return traced


def install() -> Tracer:
    """Wrap the package's functions in place; call before running the CLI."""
    tracer = Tracer()
    modules = {"": importlib.import_module("mirror_teleport")}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"mirror_teleport.{name}")
        except ImportError as exc:
            tracer.missing[f"mirror_teleport.{name}"] = f"import failed: {exc}"

    wrappers = {}
    for mod_name, attr, span in EXPECTED:
        fn = getattr(modules.get(mod_name), attr, None)
        if not inspect.isfunction(fn):
            tracer.missing[span] = f"mirror_teleport.{mod_name} has no function {attr}"
        elif attr == "_run_gates":
            if inspect.isgeneratorfunction(fn):
                wrappers[fn] = tracer.wrap_gates(fn)
            else:
                tracer.missing[span] = "cli._run_gates is no longer a generator"
        elif attr.startswith("_"):
            wrappers[fn] = tracer.wrap(span, fn)

    for module in modules.values():
        for attr, fn in list(vars(module).items()):
            if not inspect.isfunction(fn):
                continue
            if fn in wrappers:
                setattr(module, attr, wrappers[fn])
            elif not attr.startswith("_") and fn.__module__.startswith("mirror_teleport."):
                span = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                wrappers[fn] = tracer.wrap(span, fn)
                setattr(module, attr, wrappers[fn])
    return tracer


def _rk4_steps(times, dt: float) -> int:
    """Steps the fixed-step RK4 loop takes to reach each time in turn."""
    steps, t = 0, 0.0
    for target in times:
        while target - t > 1e-15 * target:
            t += min(dt, target - t)
            steps += 1
    return steps


#: Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "cli.load_config.s": "s",
    "optomech.compute_couplings.calls": "count",
    "optomech.compute_couplings.s": "s",
    "optomech.validate_regime.calls": "count",
    "optomech.validate_regime.s": "s",
    "cli.cmd_curve.self_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.summary.s": "s",
    "protocol.optimiser.calls": "count",
    "protocol.optimiser.scan_points": "count",
    "protocol.optimiser.refine_evals": "count",
    "protocol.optimiser.points_per_optimum": "count",
    "protocol.optimiser.s": "s",
    "dynamics.coeffs_analytic.calls": "count",
    "dynamics.coeffs_analytic.scalar_calls": "count",
    "dynamics.coeffs_analytic.points": "count",
    "dynamics.coeffs_analytic.s": "s",
    "protocol.fidelity_coherent.calls": "count",
    "protocol.fidelity_coherent.points": "count",
    "protocol.fidelity_coherent.self_s": "s",
    "protocol.fidelity_no_heterodyne.calls": "count",
    "protocol.fidelity_no_heterodyne.points": "count",
    "protocol.fidelity_no_heterodyne.self_s": "s",
    "dynamics.coeffs_ode.calls": "count",
    "dynamics.coeffs_ode.rk4_steps": "count",
    "dynamics.coeffs_ode.s": "s",
    **{f"cli.gate.{g}.s": "s" for g in GATES},
    "dynamics.propagator.calls": "count",
    "dynamics.propagator.s": "s",
    "dynamics.coeffs_from_propagator.calls": "count",
    "dynamics.coeffs_from_propagator.s": "s",
    "protocol.conditional_correlation.calls": "count",
    "protocol.conditional_correlation.s": "s",
    "protocol.teleport_covariance.calls": "count",
    "gaussian_core.physicality_defect.calls": "count",
    "gaussian_core.physicality_defect.s": "s",
    "gaussian_core.symplectic_defect.calls": "count",
    "gaussian_core.symplectic_defect.s": "s",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}

COUNTS = tuple(name for name, unit in UNITS.items() if unit in ("count", "bytes"))


def _child_time(spans: list[list]) -> list[float]:
    """Time each span spends in its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the two trace.* fractions
    and cli.csv_bytes, which the caller adds."""
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    points: dict[str, int] = {}
    for (name, start, end, _, attrs), child in zip(spans, _child_time(spans)):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child)
        if attrs and "points" in attrs:
            points[name] = points.get(name, 0) + attrs["points"]

    def under_optimiser(i: int) -> bool:
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] in OPTIMISERS:
                return True
            i = spans[i][3]
        return False

    scalar = [
        i for i, s in enumerate(spans)
        if s[0] == "dynamics.coeffs_analytic" and s[4] and s[4].get("scalar")
    ]
    opt_calls = sum(calls.get(n, 0) for n in OPTIMISERS)
    scan = sum(s[4].get("scan_points", 0) for s in spans if s[0] in OPTIMISERS and s[4])
    refine = sum(1 for i in scalar if under_optimiser(i))
    steps = sum(
        _rk4_steps(s[4]["times"], s[4]["dt"]) + _rk4_steps(s[4]["times"], s[4]["dt"] / 2.0)
        for s in spans
        if s[0] == "dynamics.coeffs_ode" and s[4] and "times" in s[4]
    )
    out = {
        "protocol.optimiser.calls": opt_calls,
        "protocol.optimiser.scan_points": scan,
        "protocol.optimiser.refine_evals": refine,
        "protocol.optimiser.points_per_optimum": (scan + refine) / opt_calls if opt_calls else 0,
        "protocol.optimiser.s": sum(incl.get(n, 0.0) for n in OPTIMISERS),
        "dynamics.coeffs_analytic.scalar_calls": len(scalar),
        "dynamics.coeffs_ode.rk4_steps": steps,
    }
    for metric in UNITS:
        if metric in out or metric.startswith("trace.") or metric == "cli.csv_bytes":
            continue
        span, _, kind = metric.rpartition(".")
        table = {"calls": calls, "points": points, "self_s": self_s}.get(kind, incl)
        out[metric] = table.get(span, 0)
    return out


def unattributed_frac(spans: list[list]) -> float:
    """Share of the root spans' (cli.main) time that no traced call covers."""
    total = own = 0.0
    for (_, start, end, parent, _), child in zip(spans, _child_time(spans)):
        if parent < 0:
            total += end - start
            own += end - start - child
    return own / total if total > 0 else 0.0


def missing_metrics(missing: dict[str, str]) -> dict[str, str]:
    """Metric name -> reason, for metrics whose source function is missing."""
    out = {}
    for metric in UNITS:
        span = metric.rpartition(".")[0]
        module = f"mirror_teleport.{span.split('.')[0]}"
        if span == "protocol.optimiser":
            if any(n in missing for n in OPTIMISERS):
                out[metric] = "; ".join(missing[n] for n in OPTIMISERS if n in missing)
        elif span.startswith("cli.gate."):
            if "cli.gate" in missing:
                out[metric] = missing["cli.gate"]
        elif span in missing:
            out[metric] = missing[span]
        elif module in missing:
            out[metric] = missing[module]
    return out
