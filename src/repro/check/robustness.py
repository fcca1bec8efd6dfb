"""Robustness rules (RPR501).

- RPR501: pool-break recovery is centralized. ``BrokenExecutor`` (and
  its ``BrokenProcessPool`` / ``BrokenThreadPool`` subclasses) may be
  caught *only* in :mod:`repro.runner.supervise`, whose one
  ``SupervisedPool`` owns respawn, backoff, and resubmission for every
  pool user (sweeps and the serving daemon alike). A ``BrokenExecutor``
  handler anywhere else either adds a second retry layer multiplying
  the first one's budget or silently swallows a dead pool.
  Other modules classify with
  :func:`repro.runner.supervise.is_pool_break` on an already-caught
  exception instead of naming the type in a handler.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.framework import (
    FileRule,
    Finding,
    ProjectIndex,
    SourceFile,
    dotted_name,
)

#: The one module allowed to spell the except clause.
_SUPERVISION_MODULE = "src/repro/runner/supervise.py"

_BROKEN_POOL_NAMES = (
    "BrokenExecutor",
    "BrokenProcessPool",
    "BrokenThreadPool",
)


class BrokenExecutorHandlerRule(FileRule):
    rule_id = "RPR501"
    title = "pool-break handler outside the supervision module"
    rationale = (
        "Worker-pool recovery (respawn, backoff, resubmission) lives in "
        "repro.runner.supervise.SupervisedPool; a second BrokenExecutor "
        "handler either duplicates the retry policy or hides a dead pool. Use "
        "repro.runner.supervise.is_pool_break() to classify instead."
    )

    def applies_to(self, f: SourceFile) -> bool:
        return f.rel != _SUPERVISION_MODULE

    def check_file(
        self, f: SourceFile, project: ProjectIndex
    ) -> Iterator[Finding]:
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            types = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for t in types:
                name = (dotted_name(t) or "").split(".")[-1]
                if name in _BROKEN_POOL_NAMES:
                    yield self.finding(
                        f,
                        node,
                        f"'except {name}' outside repro.runner.supervise; "
                        "pool-break recovery is centralized there — catch "
                        "Exception and classify with supervise."
                        "is_pool_break(exc) instead",
                    )


RULES = (BrokenExecutorHandlerRule(),)
