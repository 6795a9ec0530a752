"""Spans around treeterm's public functions, recorded from outside the program.

Each wrapper replaces a function in the module namespace its caller looks it
up in (for example `report.sccs` for `build_report`), records one span per
call and restores the original on removal.  Spans live in flat arrays until
the run ends; self times and counts are derived from them afterwards.
"""
from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _edges(graph) -> int:
    return len(graph.edges)


def _forms(outcome) -> int:
    return len(getattr(outcome, "forms", ()))


def _hit(binding) -> int:
    return binding is not None


def targets(syntax, typecheck, analysis, report, rewrite) -> list[tuple]:
    """(module, attribute, span name, counter name, counter) for every wrapped
    function.  The span name is the defining module's; the attribute is the
    binding the caller reads."""
    return [
        (syntax, "parse_system", "syntax.parse_system", None, None),
        (typecheck, "validate_system", "typecheck.validate_system", None, None),
        (analysis, "check_criterion", "analysis.check_criterion", None, None),
        (analysis, "extract_dps", "analysis.extract_dps", "pairs", len),
        (analysis, "build_graph", "analysis.build_graph", "edges", _edges),
        (analysis, "pattern_unifiable", "analysis.pattern_unifiable", None, None),
        (analysis, "sccs", "analysis.sccs", None, None),
        (report, "sccs", "analysis.sccs", None, None),
        (analysis, "find_indices", "analysis.find_indices", None, None),
        (analysis, "check_scc", "analysis.check_scc", None, None),
        (report, "build_report", "report.build_report", None, None),
        (report, "report_to_json", "report.report_to_json", None, None),
        (syntax, "parse_erased_term", "syntax.parse_erased_term", None, None),
        (rewrite, "normalize", "rewrite.normalize", "forms", _forms),
        (rewrite, "match_lhs", "rewrite.match_lhs", "hits", _hit),
        (rewrite, "alpha_canonical", "syntax.alpha_canonical", None, None),
        (rewrite, "print_erased", "syntax.print_erased", None, None),
    ]


class Tracer:
    def __init__(self, wrapped: list[tuple]):
        self.wrapped = wrapped
        self.names = sorted({name for _, _, name, _, _ in wrapped})
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.op = -1
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def __len__(self) -> int:
        return len(self.span_start)

    def _wrap(self, fn, name: str, counter_name: str | None, counter):
        nid = self.name_id[name]
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, open_spans = self.span_start, self.span_end, self._open
        counts = self.counts
        key = (name, counter_name)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ops.append(self.op)
            ends.append(0.0)
            open_spans.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_spans.pop()
            if counter is not None:
                counts[key] += counter(result)
            return result

        return traced

    @contextmanager
    def active(self, op: int):
        """Trace op number `op`; the originals are back when this exits."""
        self.op = op
        try:
            for module, attr, name, counter_name, counter in self.wrapped:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter_name, counter))
            yield self
        finally:
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)
            self._open.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: total self seconds (duration minus the time its
        child spans cover) and number of calls."""
        n = len(self)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = {name: [0.0, 0] for name in self.names}
        for i in range(n):
            entry = totals[self.names[self.span_name[i]]]
            entry[0] += ends[i] - starts[i] - child[i]
            entry[1] += 1
        return {name: (t, c) for name, (t, c) in totals.items()}

    def write(self, path: Path) -> None:
        """All spans as gzip'd tab-separated text, one line per span, with
        times in microseconds from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\top\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self)):
                out.write(f"{i}\t{self.span_op[i]}\t{self.span_parent[i]}\t"
                          f"{self.names[self.span_name[i]]}\t"
                          f"{(self.span_start[i] - origin) * 1e6:.3f}\t"
                          f"{(self.span_end[i] - origin) * 1e6:.3f}\n")
