"""MAN001 — manifest entries must name functions that exist.

The hot-function lists (``obl_hot_functions``, ``alloc_hot_functions``,
``fused_drivers``) and the declassification allowlist select functions by
qualname pattern.  A pattern that matches nothing in its module is
silently ignored by the rules that read it, so renaming or deleting a hot
function quietly drops it from coverage, and a stale declassification
waits to sanction whatever reuses the name.  This rule reports every
entry that matches no function or class of the scanned module it names,
anchored at line 1 of that module.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterator

from repro.analysis.core import (
    Finding,
    Rule,
    SourceModule,
    build_qualnames,
    register_rule,
)


def _manifest_entries(module: SourceModule, config) -> Iterator[tuple[str, str]]:
    """``(manifest table, qualname pattern)`` pairs that apply to ``module``."""
    for pattern in config.obl_hot_for(module.path):
        yield "obl_hot_functions", pattern
    for scope in config.alloc_scopes_for(module.path):
        yield "alloc_hot_functions", scope.qualname
    for pattern in config.fused_drivers_for(module.path):
        yield "fused_drivers", pattern
    norm = module.path.replace("\\", "/")
    for entry in config.declassifications:
        if norm.endswith(entry.module_suffix):
            yield "declassifications", entry.qualname


@register_rule
class StaleManifestEntryRule(Rule):
    rule_id = "MAN001"
    title = "manifest entry matches no function in its module"

    def check(self, module: SourceModule, config) -> Iterator[Finding]:
        qualnames = set(build_qualnames(module.tree).values())
        for table, pattern in _manifest_entries(module, config):
            if any(fnmatchcase(qual, pattern) for qual in qualnames):
                continue
            yield Finding(
                rule=self.rule_id,
                path=module.path,
                line=1,
                col=0,
                message=(
                    f"{table} entry {pattern!r} matches no function in this "
                    "module; update or remove the stale manifest entry"
                ),
            )
