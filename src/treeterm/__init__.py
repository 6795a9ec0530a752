"""Termination checking for tree rewrite systems with pattern-refinement types.

The pipeline: parse a system (`syntax`) into the abstract syntax (`terms`),
validate signatures and rules (`typecheck`), extract type-level dependency
pairs and decide the cycle decrease criterion (`analysis`), and optionally
execute terms (`rewrite`).
"""
# `import treeterm` keeps loading the library modules, but not the command line
# or the renderer, so the benchmark's `setup_s` goes on timing the same work.
# No name is re-exported: import each one from its submodule.
from . import analysis, rewrite, syntax, terms, typecheck

__version__ = "0.1.0"
