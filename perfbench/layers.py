"""Per-layer metrics from the spans of one traced repetition.

``UNITS`` lists every per-layer metric with its unit.  Every workload
reports all of them; a metric whose layer the workload does not use reads 0.
The doc in this directory says which end-to-end metric each should move.
"""

from collections import defaultdict

UNITS = {
    "solver.iters.33": "count",
    "solver.iters.65": "count",
    "solver.iters": "count",
    "solver.trials_per_iter": "1",
    "solver.grad_evals": "count",
    "solver.self_ms_per_iter": "ms",
    "solver.euler_lagrange_residual.ms": "ms",
    "oracle_gap": "1",
    "area.area_gradient.ms_per_call": "ms",
    "area.cell_area_field.ms_per_call": "ms",
    "area.tangent_fields.calls": "count",
    "area.tangent_fields.calls_per_iter": "count",
    "area.tangent_fields.ms_per_call": "ms",
    "area.total_area.ms": "ms",
    "area.share_of_minimize": "1",
    "densities.quantiles.mixture.ms_per_call": "ms",
    "densities.quantiles.gaussian.ms_per_call": "ms",
    "densities.boundary_from_corners.ms": "ms",
    "densities.monotonicity_report.ms": "ms",
    "grid.coons_init.ms": "ms",
    "grid.save_csv.ms": "ms",
    "grid.save_csv.mb_s": "MB/s",
    "grid.save_json.ms": "ms",
    "grid.save_json.mb_s": "MB/s",
    "grid.load_csv.ms": "ms",
    "grid.load_csv.mb_s": "MB/s",
    "grid.load_json.ms": "ms",
    "grid.load_json.mb_s": "MB/s",
    "analytic.graph_boundary.ms": "ms",
    "gaussian.critical_point_residual.ms": "ms",
    "cli.import_ms": "ms",
    "cli.load_config.ms": "ms",
    "cli.solve_write_ms": "ms",
    "cli.export_plot_self_ms": "ms",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

MINIMIZE = "solver.minimize"


class SpanStats:
    """Calls, total and self time, and bytes per span name over many commands."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # seconds
        self.self_time = defaultdict(float)
        self.nbytes = defaultdict(int)
        self.spans = 0
        # work done inside solver.minimize
        self.minimize_time = 0.0
        self.area_in_minimize = 0.0  # area spans called directly by minimize
        self.trials = 0  # cell_area_field calls made directly by minimize, less the first
        self.grad_evals = 0
        self.tangents_in_minimize = 0
        self.write_time = 0.0  # cmd_solve end minus minimize end
        self.import_ms = []

    def add(self, doc: dict) -> None:
        spans = doc["spans"]
        self.import_ms.append(doc["import_ms"])
        self.spans += len(spans)
        child_time = [0.0] * len(spans)
        in_minimize = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_minimize[i] = in_minimize[parent] or spans[parent][0] == MINIMIZE
        for i, (name, start, end, parent, nbytes) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - child_time[i]
            self.nbytes[name] += nbytes
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == MINIMIZE:
                self.minimize_time += duration
                self.trials -= 1
            if parent_name == MINIMIZE:
                if name.startswith("area."):
                    self.area_in_minimize += duration
                if name == "area.cell_area_field":
                    self.trials += 1
            if in_minimize[i]:
                self.grad_evals += name == "area.area_gradient"
                self.tangents_in_minimize += name == "area.tangent_fields"
            if name == MINIMIZE and parent_name == "cli.cmd_solve":
                self.write_time += spans[parent][2] - end

    def ms(self, name: str) -> float:
        return self.total[name] * 1e3

    def ms_per_call(self, name: str) -> float:
        return self.ms(name) / self.calls[name] if self.calls[name] else 0.0

    def mb_s(self, name: str) -> float:
        return self.nbytes[name] / 1e6 / self.total[name] if self.total[name] else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats, iters: dict, oracle_gap: float, overhead_s: float) -> dict:
    """Every metric in ``UNITS``; ``iters`` maps iteration metrics to counts."""
    total_iters = sum(iters.values())
    values = {
        "solver.iters.33": iters.get("solver.iters.33", 0),
        "solver.iters.65": iters.get("solver.iters.65", 0),
        "solver.iters": iters.get("solver.iters", 0),
        "solver.trials_per_iter": _ratio(stats.trials, total_iters),
        "solver.grad_evals": stats.grad_evals,
        "solver.self_ms_per_iter": _ratio(stats.self_time[MINIMIZE] * 1e3, total_iters),
        "solver.euler_lagrange_residual.ms": stats.ms("solver.euler_lagrange_residual"),
        "oracle_gap": oracle_gap,
        "area.area_gradient.ms_per_call": stats.ms_per_call("area.area_gradient"),
        "area.cell_area_field.ms_per_call": stats.ms_per_call("area.cell_area_field"),
        "area.tangent_fields.calls": stats.calls["area.tangent_fields"],
        "area.tangent_fields.calls_per_iter": _ratio(stats.tangents_in_minimize, total_iters),
        "area.tangent_fields.ms_per_call": stats.ms_per_call("area.tangent_fields"),
        "area.total_area.ms": stats.ms("area.total_area"),
        "area.share_of_minimize": _ratio(stats.area_in_minimize, stats.minimize_time),
        "densities.quantiles.mixture.ms_per_call": stats.ms_per_call("densities.quantiles.mixture"),
        "densities.quantiles.gaussian.ms_per_call": stats.ms_per_call("densities.quantiles.gaussian"),
        "densities.boundary_from_corners.ms": stats.ms("densities.boundary_from_corners"),
        "densities.monotonicity_report.ms": stats.ms("densities.monotonicity_report"),
        "grid.coons_init.ms": stats.ms("grid.coons_init"),
        "analytic.graph_boundary.ms": stats.ms("analytic.graph_boundary"),
        "gaussian.critical_point_residual.ms": stats.ms("gaussian.critical_point_residual"),
        "cli.import_ms": _ratio(sum(stats.import_ms), len(stats.import_ms)),
        "cli.load_config.ms": stats.ms("cli.load_config"),
        "cli.solve_write_ms": stats.write_time * 1e3,
        "cli.export_plot_self_ms": stats.self_time["cli.cmd_export_plot"] * 1e3,
        "trace.overhead_s": overhead_s,
        "trace.spans": stats.spans,
    }
    for io in ("save_csv", "save_json", "load_csv", "load_json"):
        values[f"grid.{io}.ms"] = stats.ms(f"grid.{io}")
        values[f"grid.{io}.mb_s"] = stats.mb_s(f"grid.{io}")
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
