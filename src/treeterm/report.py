"""Everything that shows a verdict: pair labels, the failure message, node
styles, the DOT graph, the `check` text and the structured JSON report.

A report is a plain JSON-serializable dict; the layout is versioned so
downstream consumers can detect changes.  Everything except the timing
block is a deterministic function of the input file and flags.
`report_to_json` writes one top-level key per line, each value on that line
in `json.dumps` form, ASCII-escaped, and a final newline.
"""
from __future__ import annotations

import json
from typing import Any

from .analysis import DependencyPair, Verdict, is_nontrivial, sccs
from .syntax import ParseError, print_pattern, print_rule, print_type
from .terms import RewriteSystem
from .typecheck import Diagnostic, ValidatedSystem

SCHEMA_VERSION = 1
_PALETTE = ("lightblue", "lightsalmon", "palegreen", "khaki", "plum", "lightgrey")


def dp_label(dp: DependencyPair) -> str:
    return _label(dp, list(map(print_pattern, dp.lhs_args)), list(map(print_pattern, dp.rhs_args)))


def _label(dp: DependencyPair, lhs_args: list[str], rhs_args: list[str]) -> str:
    """The label of `dp`, from its patterns as printed."""
    lhs = f"{dp.lhs_symbol}♯({','.join(lhs_args)})" if lhs_args else f"{dp.lhs_symbol}♯"
    rhs = f"{dp.rhs_symbol}♯({','.join(rhs_args)})" if rhs_args else f"{dp.rhs_symbol}♯"
    return f"{lhs} -> {rhs}"


def failure_message(verdict: Verdict) -> str:
    """Why the criterion gave up on `verdict.failure`, in one sentence."""
    f = verdict.failure
    if f.search_space == 0:
        return "a symbol in the component has no recursive argument positions"
    if f.failing_node is not None:
        return (
            f"no index assignment works; closest candidate fails at node {f.failing_node} "
            f"({dp_label(verdict.graph.nodes[f.failing_node])}), which does not weakly decrease"
        )
    return (
        "no index assignment works; closest candidate leaves the cycle "
        f"{' -> '.join(map(str, f.cycle))} without a strict decrease"
    )


def node_styles(verdict: Verdict) -> tuple[dict[int, str], set[int]]:
    """The fill colour of every node in a nontrivial component, one palette
    colour per component in order, and the nodes a certificate decreases
    strictly on."""
    graph = verdict.graph
    nontrivial = (scc for scc in verdict.components if is_nontrivial(scc, graph))
    fill = {i: _PALETTE[rank % len(_PALETTE)] for rank, scc in enumerate(nontrivial) for i in scc}
    return fill, {i for cert in verdict.certificates for i in cert.strict}


def to_dot(verdict: Verdict) -> str:
    """Render the graph deterministically; byte-identical across runs."""
    fill, strict = node_styles(verdict)
    lines = ["digraph dependency_pairs {"]
    for i, dp in enumerate(verdict.graph.nodes):
        attrs = [f'label="{dp_label(dp)}"']
        if i in fill:
            attrs.append(f'style=filled fillcolor="{fill[i]}"')
        if i in strict:
            attrs.append("penwidth=2")
        lines.append(f"  n{i} [{' '.join(attrs)}];")
    lines.extend(f"  n{a} -> n{b};" for a, succ in enumerate(verdict.graph.adjacency) for b in succ)
    lines.append("}")
    return "\n".join(lines) + "\n"


def verdict_lines(path: str, system: RewriteSystem, verdict: Verdict) -> list[str]:
    """The text `check` prints for a verdict."""
    graph = verdict.graph
    lines = [
        ("TERMINATING: " if verdict.terminating else "UNKNOWN: ") + path,
        f"  rules: {len(system.rules)}, symbols: {len(system.signature.entries)}",
        f"  dependency pairs: {len(graph.nodes)}, edges: {sum(map(len, graph.adjacency))}",
        f"  nontrivial SCCs: {sum(is_nontrivial(c, graph) for c in verdict.components)}",
    ]
    for cert in verdict.certificates:
        nodes = "{" + ", ".join(map(str, cert.nodes)) + "}"
        indices = ", ".join(f"ι[{sym}]={i}" for sym, i in cert.indices)
        line = f"  SCC {nodes}: {indices}; strict: {list(cert.strict)}"
        if cert.weak:
            line += f"; weak: {list(cert.weak)}"
        lines.append(line)
    if verdict.failure is not None:
        f = verdict.failure
        nodes = "{" + ", ".join(map(str, f.nodes)) + "}"
        lines.append(f"  failing SCC {nodes} ({f.search_space} assignments tried)")
        lines.append(f"  reason: {failure_message(verdict)}")
        if f.cycle:
            lines.append("  residual cycle: " + " -> ".join(map(str, f.cycle)))
        lines.extend(f"    node {i}: {dp_label(graph.nodes[i])}" for i in f.nodes)
    return lines


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
                "context": str(vr.context),
                "lhsType": print_type(vr.lhs_type),
                "rhsChecked": True,
            }
            for vr in validated.rules
        ]
    if verdict is not None:
        graph = verdict.graph
        pairs = report["dependencyPairs"]
        for i, dp in enumerate(graph.nodes):
            lhs_args = [print_pattern(p) for p in dp.lhs_args]
            rhs_args = [print_pattern(p) for p in dp.rhs_args]
            pairs.append({
                "index": i,
                "lhsSymbol": dp.lhs_symbol,
                "lhsArgs": lhs_args,
                "rhsSymbol": dp.rhs_symbol,
                "rhsArgs": rhs_args,
                "ruleIndex": dp.rule_index,
                "label": _label(dp, lhs_args, rhs_args),
            })
        report["edges"] = [[a, b] for a, succ in enumerate(graph.adjacency) for b in succ]
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
                "scc": list(f.nodes),
                "searchSpace": f.search_space,
                "message": failure_message(verdict),
                "bestIndices": dict(f.indices) if f.indices else None,
                "failingNode": f.failing_node,
                "cycle": list(f.cycle) if f.cycle else None,
            }
    return report


def report_to_json(report: dict[str, Any]) -> str:
    """The report as a JSON object with one top-level key per line, in the
    report's key order.  `json.dumps` with no keyword arguments runs the C
    encoder; with `indent` it would run the pure-Python one."""
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in report.items()) + "\n}\n"
