"""Per-layer metrics from the tracer's spans and counts.

Counts are per pass over the case list, taken from the first traced pass
(every pass repeats them exactly); times are per pass, averaged over the
traced passes.  `exact` marks the metrics that must be identical across
two traced runs.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# (metric, unit, better, exact)
METRICS = [
    ("linalg.solve.calls", "count", "lower", True),
    ("linalg.solve.self_s", "s", "lower", False),
    ("linalg.solve.inconsistent", "count", "lower", True),
    ("linalg.rank.calls", "count", "lower", True),
    ("linalg.rank.self_s", "s", "lower", False),
    ("linalg.rows_max", "count", "lower", True),
    ("linalg.entries_sum", "count", "lower", True),
    ("linalg.nnz_sum", "count", "lower", True),
    ("linalg.density", "ratio", "higher", True),
    ("linalg.self_share", "ratio", "lower", False),
    ("chaincore.solve_coboundary.calls", "count", "lower", True),
    ("chaincore.solve_coboundary.self_s", "s", "lower", False),
    ("chaincore.solve_coboundary.unsolvable", "count", "lower", True),
    ("chaincore.solve_coboundary.layers", "count", "lower", True),
    ("chaincore.compose.calls", "count", "lower", True),
    ("chaincore.compose.self_s", "s", "lower", False),
    ("chaincore.hom_bracket.calls", "count", "lower", True),
    ("chaincore.hom_bracket.self_s", "s", "lower", False),
    ("chaincore.component_matrix.calls", "count", "lower", True),
    ("chaincore.component_matrix.self_s", "s", "lower", False),
    ("polyforms.wedge.calls", "count", "lower", True),
    ("polyforms.wedge.self_s", "s", "lower", False),
    ("polyforms.Poly.mul.calls", "count", "lower", True),
    ("polyforms.Poly.mul.self_s", "s", "lower", False),
    ("polyforms.Poly.add.calls", "count", "lower", True),
    ("polyforms.Form.add.calls", "count", "lower", True),
    ("polyforms.Poly.new", "count", "lower", True),
    ("polyforms.Form.new", "count", "lower", True),
    ("koszul.build_koszul.calls", "count", "lower", True),
    ("koszul.build_koszul.self_s", "s", "lower", False),
    ("koszul.verify_regular.calls", "count", "lower", True),
    ("koszul.verify_regular.self_s", "s", "lower", False),
    ("atiyah.atiyah_power.calls", "count", "lower", True),
    ("atiyah.atiyah_power.self_s", "s", "lower", False),
    ("cousin.local_trace.calls", "count", "lower", True),
    ("cousin.local_trace.self_s", "s", "lower", False),
    ("cousin.cousin_coboundary_solve.calls", "count", "lower", True),
    ("cousin.cousin_coboundary_solve.self_s", "s", "lower", False),
    ("cousin.search.attempts", "count", "lower", True),
    ("cousin.search.hit_share", "ratio", "higher", True),
    ("semireg.compare_semireg.calls", "count", "lower", True),
    ("semireg.tau_atiyah.self_s", "s", "lower", False),
    ("semireg.bloch_mu.self_s", "s", "lower", False),
    ("semireg.fallback_share", "ratio", "lower", True),
    ("integraldep.closure_member.calls", "count", "lower", True),
    ("integraldep.closure_member.self_s", "s", "lower", False),
    ("cli.interp_start_s", "s", "lower", False),
    ("cli.import_s", "s", "lower", False),
    ("session.parse_session.self_s", "s", "lower", False),
    ("cli.command.self_s", "s", "lower", False),
    ("trace.overhead", "ratio", "lower", False),
]


def merge(in_process: dict, cli_stats: list[dict]) -> dict:
    """One pass's spans: the benchmark process's plus those of every `atk`
    process the pass started."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "counts": defaultdict(int), "import_s": []}
    for part in [in_process, *cli_stats]:
        for key in ("calls", "self_s"):
            for name, value in part[key].items():
                out[key][name] += value
        for name, value in part["counts"].items():
            if name == "linalg.rows_max":
                out["counts"][name] = max(out["counts"][name], value)
            else:
                out["counts"][name] += value
        if "import_s" in part:
            out["import_s"].append(part["import_s"])
    return out


def exact_counts(snapshot: dict) -> tuple[dict, dict]:
    return dict(snapshot["calls"]), dict(snapshot["counts"])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(snapshots: list[dict], interp_start_s: float, overhead: float) -> dict:
    first = snapshots[0]
    calls, counts = first["calls"], first["counts"]

    def self_s(name):
        return statistics.fmean(s["self_s"].get(name, 0.0) for s in snapshots)

    total_self = statistics.fmean(sum(s["self_s"].values()) for s in snapshots)
    linalg_self = statistics.fmean(
        sum(v for k, v in s["self_s"].items() if k.startswith("linalg.")) for s in snapshots)
    imports = [t for s in snapshots for t in s["import_s"]]
    searches = calls.get("cousin.cousin_coboundary_solve", 0)
    derived = {
        "linalg.density": _ratio(counts.get("linalg.nnz_sum", 0),
                                 counts.get("linalg.entries_sum", 0)),
        "linalg.self_share": _ratio(linalg_self, total_self),
        "cousin.search.attempts": _ratio(counts.get("cousin.search.solves", 0), searches),
        "cousin.search.hit_share": _ratio(counts.get("cousin.search.hits", 0), searches),
        "semireg.fallback_share": _ratio(counts.get("semireg.fallbacks", 0),
                                         calls.get("semireg.compare_semireg", 0)),
        "cli.interp_start_s": interp_start_s,
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.command.self_s": self_s("cli.main"),
        "trace.overhead": overhead,
    }
    out = {}
    for name, unit, _, _ in METRICS:
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            value = self_s(name[: -len(".self_s")])
        else:
            value = counts.get(name, 0)
        out[name] = (value, unit)
    return out


def count_metrics(result: dict) -> dict:
    exact = {name for name, _, _, is_exact in METRICS if is_exact}
    return {k: v["value"] for k, v in result["metrics"].items() if k in exact}
