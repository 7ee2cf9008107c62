"""Spans and counters recorded around the program's public functions.

The benchmark wraps each traced name in the namespace where its callers look
it up (for example `nonexistence.csp_search`, which `decide` calls by its
global name), runs a pass, and restores the originals.  Nothing inside the
program is edited: a layer's time is the time between entering and leaving
one of its public functions.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from contextlib import contextmanager
from math import comb

# (module, attribute looked up by callers, span name).  A wrapped name that no
# longer exists is an error, so a rename cannot report a layer as zero.
SPANNED = (
    ("feasibility", "enumerate_rows", "feasibility.enumerate_rows"),
    ("constructions", "known_designs", "constructions.known_designs"),
    ("nonexistence", "construction_registry", "nonexistence.construction_registry"),
    ("nonexistence", "decide", "nonexistence.decide"),
    ("nonexistence", "verify_constructed", "nonexistence.verify_constructed"),
    ("nonexistence", "point_lambdas", "nonexistence.point_lambdas"),
    ("nonexistence", "pair_lambda_solutions", "nonexistence.pair_lambda_solutions"),
    ("nonexistence", "counting_filters", "nonexistence.counting_filters"),
    ("nonexistence", "csp_search", "nonexistence.csp_search"),
    ("verify", "moments_check", "verify.moments_check"),
    ("verify", "balanced_check", "verify.balanced_check"),
    ("verify", "tightness_check", "verify.tightness_check"),
    ("verify", "frame_check", "verify.frame_check"),
    ("verify", "weight_constancy_check", "verify.weight_constancy_check"),
    ("nonexistence", "relation_profile", "designs.relation_profile"),
    ("nonexistence", "save", "designs.save"),
)
# candidate_row runs about 1.6 million times on `enumerate`: it is counted,
# not spanned, so the trace stays small and cheap.
COUNTED = (("feasibility", "candidate_row", "feasibility.candidate_row"),)

CAUSES = (
    "nonintegral_point_lambda",
    "empty_lambda_system",
    "zero_pair_degree",
    "pair_degree_sum",
    "csp_exhausted",
)
VERDICTS = ("found.design", "found.shell_config", *(f"refuted.{c}" for c in CAUSES),
            "undecided")

_DETAIL = re.compile(r"(?:exhausted after|witness after) (\d+) nodes|node budget (\d+) exhausted")


class MissingLayer(RuntimeError):
    """A traced name is missing from the program."""


def search_detail(detail: str) -> tuple[int, bool]:
    """Nodes visited and whether the budget ran out, read from a csp_search detail."""
    match = _DETAIL.search(detail)
    if match is None:
        raise MissingLayer(f"csp_search detail has no node count: {detail!r}")
    if match.group(1) is not None:
        return int(match.group(1)), False
    return int(match.group(2)), True


def shell_problem(n, blocks, size, meet, degree, domain) -> tuple:
    """Canonical form of one shell's search problem under block complement.

    Complementing every block maps size to n - size, meet to
    n - 2 size + meet, degree to blocks - degree and a pair count t to
    blocks - 2 degree + t; the smaller of the two forms is the canonical one.
    """
    def form(size, meet, degree, domain):
        return (n, blocks, size, meet, degree,
                tuple(sorted(t for t in set(domain) if 0 <= t <= degree)))

    return min(form(size, meet, degree, domain),
               form(n - size, n - 2 * size + meet, blocks - degree,
                    [blocks - 2 * degree + t for t in domain]))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, run in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, run) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans (name, start, end, parent index, run id) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._problems: set = set()
        self.searches: list[dict] = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                           self.run_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def install(self, modules: dict) -> None:
        """Wrap every traced name in `modules` (name -> module object)."""
        hooks = {"constructions.known_designs": self._designs,
                 "nonexistence.decide": self._verdict,
                 "nonexistence.csp_search": self._search}
        # the search hook reads point lambdas without adding to their count
        self._point_lambdas = modules["nonexistence"].point_lambdas
        for module, attr, name in SPANNED:
            self._patch(modules[module], attr, self._spanned(
                getattr(modules[module], attr), name, hooks.get(name)))
        for module, attr, name in COUNTED:
            self._patch(modules[module], attr, self._counted(getattr(modules[module], attr), name))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, wrapper):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            self.counts[f"{name}.rows"] += result is not None
            return result
        return wrapper

    def _designs(self, args, result):
        self.counts["constructions.known_designs.designs"] += len(result)

    def _verdict(self, args, verdict):
        if verdict.status == "found":
            key = f"found.{verdict.witness['kind']}"
        elif verdict.status == "refuted":
            key = f"refuted.{verdict.cause}"
        else:
            key = verdict.status
        self.counts[f"nonexistence.verdict.{key}"] += 1

    def _search(self, args, verdict):
        """Search counts from public data: the verdict detail and the point lambdas."""
        row, shell, solutions = args[:3]
        stats, problem = search_stats(row, shell, solutions, verdict, self._point_lambdas(row))
        self.searches.append(stats)
        self.counts["nonexistence.csp_search.nodes"] += stats["nodes"]
        self.counts["nonexistence.csp_search.budget_exhausted"] += stats["cause"] == "node_budget"
        self.counts["nonexistence.csp_search.repeats"] += problem in self._problems
        self._problems.add(problem)
        space = self.counts["nonexistence.csp_search.pattern_space_max"]
        self.counts["nonexistence.csp_search.pattern_space_max"] = max(space, stats["pattern_space"])


def search_stats(row, shell, solutions, verdict, lam) -> tuple[dict, tuple]:
    """One csp_search call's stats, under the field names of the planned
    Verdict.stats, and its canonical shell problem."""
    nodes, exhausted = search_detail(verdict.detail)
    blocks, size, alpha, degree = ((row.n1, row.r1, row.alpha1, lam.first) if shell == 1
                                   else (row.n2, row.r2, row.alpha2, lam.second))
    domain = {s.contain1 if shell == 1 else s.contain2 for s in solutions}
    stats = {
        "stage": "csp_search",
        "cause": "node_budget" if exhausted else verdict.cause,
        "nodes": nodes,
        "pattern_space": comb(blocks, degree),
    }
    return stats, shell_problem(row.n, blocks, size, size - alpha // 2, degree, domain)


def check_layers(modules: dict) -> None:
    """Raise MissingLayer unless every traced name and verdict cause still exists."""
    for module, attr, name in SPANNED + COUNTED:
        if not callable(getattr(modules[module], attr, None)):
            raise MissingLayer(f"{module}.{attr} (traced as {name}) is missing")
    causes = {v for k, v in vars(modules["nonexistence"]).items() if k.startswith("CAUSE_")}
    if causes != set(CAUSES):
        raise MissingLayer(f"verdict causes changed: {sorted(causes ^ set(CAUSES))}")


def layer_metrics(tracer: Tracer, wall_s: float, factors=None) -> dict[str, float]:
    """Per-layer figures of one traced pass that took wall_s seconds.

    A span's seconds are multiplied by factors[its run id] (default 1), so
    they are on the same scale as wall_s.
    """
    counts = tracer.counts
    factors = factors or {}
    busy: Counter = Counter()
    for name, start, end, parent, run in tracer.spans:
        busy[name] += (end - start) * factors.get(run, 1.0)
    selfs = [s * factors.get(span[4], 1.0)
             for s, span in zip(self_times(tracer.spans), tracer.spans)]
    out = {}
    for _, _, name in SPANNED:
        out[f"{name}.s"] = busy[name]
        out[f"{name}.calls"] = counts[f"{name}.calls"]
    out["feasibility.candidate_row.calls"] = counts["feasibility.candidate_row.calls"]
    out["feasibility.yield"] = _ratio(counts["feasibility.candidate_row.rows"],
                                      counts["feasibility.candidate_row.calls"])
    out["constructions.known_designs.designs"] = counts["constructions.known_designs.designs"]
    search = "nonexistence.csp_search"
    for key in ("nodes", "pattern_space_max", "budget_exhausted"):
        out[f"{search}.{key}"] = counts[f"{search}.{key}"]
    out[f"{search}.nodes_per_s"] = _ratio(counts[f"{search}.nodes"], busy[search])
    out[f"{search}.repeat_share"] = _ratio(counts[f"{search}.repeats"], counts[f"{search}.calls"])
    for verdict in VERDICTS:
        out[f"nonexistence.verdict.{verdict}"] = counts[f"nonexistence.verdict.{verdict}"]
    out["cli.run.self_s"] = sum(s for s, span in zip(selfs, tracer.spans) if span[0] == "cli.run")
    # the share of wall_s spent in the layer spans directly under cli.run;
    # the rest is cli.run's self time
    roots = {i for i, span in enumerate(tracer.spans) if span[0] == "cli.run"}
    covered = sum((end - start) * factors.get(run, 1.0)
                  for name, start, end, parent, run in tracer.spans if parent in roots)
    out["trace.coverage"] = _ratio(covered, wall_s)
    return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
