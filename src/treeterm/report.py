"""Structured result documents for the command-line front end.

A report is a plain JSON-serializable dict; the layout is versioned so
downstream consumers can detect changes.  Everything except the timing
block is a deterministic function of the input file and flags.
"""
from __future__ import annotations

import json
from typing import Any

from .analysis import Verdict, dp_label, is_nontrivial, sccs
from .syntax import ParseError, print_pattern, print_rule, print_type
from .terms import RewriteSystem
from .typecheck import Diagnostic, ValidatedSystem

SCHEMA_VERSION = 1


def diagnostic_to_dict(d: Diagnostic) -> dict[str, Any]:
    return {
        "code": d.code,
        "message": d.message,
        "line": d.loc.line if d.loc else None,
        "col": d.loc.col if d.loc else None,
        "ruleIndex": d.rule_index,
        "symbol": d.symbol,
    }


def parse_error_to_dict(e: ParseError) -> dict[str, Any]:
    return {
        "code": "E-PARSE",
        "message": e.message,
        "line": e.line,
        "col": e.col,
        "ruleIndex": None,
        "symbol": None,
        "expected": list(e.expected),
    }


def build_report(
    path: str,
    outcome: str,
    *,
    system: RewriteSystem | None = None,
    validated: ValidatedSystem | None = None,
    verdict: Verdict | None = None,
    diagnostics: tuple[dict[str, Any], ...] = (),
    elapsed: float = 0.0,
) -> dict[str, Any]:
    report: dict[str, Any] = {
        "schemaVersion": SCHEMA_VERSION,
        "file": path,
        "outcome": outcome,
        "symbols": [],
        "rules": [],
        "dependencyPairs": [],
        "edges": [],
        "sccs": [],
        "certificates": [],
        "failure": None,
        "diagnostics": list(diagnostics),
        "timing": {"seconds": elapsed},
    }
    if system is not None:
        report["symbols"] = [
            {
                "name": name,
                "type": print_type(info.type),
                "recursive": info.recursive_count,
            }
            for name, info in system.signature
        ]
    if validated is not None:
        report["rules"] = [
            {
                "index": vr.index,
                "rule": print_rule(vr.rule),
                "context": str(vr.min.context),
                "lhsType": print_type(vr.min.lhs_type),
                "rhsChecked": True,
            }
            for vr in validated.rules
        ]
    if verdict is not None:
        graph = verdict.graph
        report["dependencyPairs"] = [
            {
                "index": i,
                "lhsSymbol": dp.lhs_symbol,
                "lhsArgs": [print_pattern(p) for p in dp.lhs_args],
                "rhsSymbol": dp.rhs_symbol,
                "rhsArgs": [print_pattern(p) for p in dp.rhs_args],
                "ruleIndex": dp.rule_index,
                "label": dp_label(dp),
            }
            for i, dp in enumerate(graph.nodes)
        ]
        report["edges"] = [list(e) for e in sorted(graph.edges)]
        report["sccs"] = [
            {"nodes": list(scc), "nontrivial": is_nontrivial(scc, graph)}
            for scc in sccs(graph)
        ]
        report["certificates"] = [
            {
                "nodes": list(cert.nodes),
                "indices": dict(cert.indices),
                "strict": list(cert.strict),
                "weak": list(cert.weak),
            }
            for cert in verdict.certificates
        ]
        if verdict.failure is not None:
            f = verdict.failure
            report["failure"] = {
                "scc": list(f.scc),
                "searchSpace": f.search_space,
                "message": f.message,
                "bestIndices": dict(f.best_indices) if f.best_indices else None,
                "failingNode": f.failing_node,
                "cycle": list(f.cycle) if f.cycle else None,
            }
    return report


def report_to_json(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"
