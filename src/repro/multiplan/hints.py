"""Plan-forcing knobs for multi-plan differential execution.

A :class:`PlannerHints` value describes *which* plan the target should
use for one query, in engine-neutral terms.  MiniDB honors the hints
directly in its planner (``choose_path``/``rewrite`` take a ``hints``
argument); the sqlite3 adapter maps them onto the engine's native
knobs — ``INDEXED BY`` / ``NOT INDEXED`` clause injection and a
transient ``ANALYZE`` — so the same hint value forces the analogous
plan on both targets.

Hints are deliberately tiny, immutable, and picklable: they cross the
subprocess adapter's pipe next to the SQL text, and they are serialized
into :class:`~repro.core.reports.BugReport.plan_results` so a reduced
repro still knows which plans diverged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import DBError


@dataclass(frozen=True, slots=True)
class PlannerHints:
    """One forced-plan configuration for a single query execution.

    All knobs default to "leave the planner alone", so
    ``PlannerHints()`` is the unforced baseline plan.
    """

    #: Force a sequential scan of every table (sqlite: ``NOT INDEXED``).
    force_full_scan: bool = False
    #: Force the named index on its owning table (sqlite:
    #: ``INDEXED BY``).  Tables the index does not belong to are
    #: planned normally.
    force_index: Optional[str] = None
    #: Suppress the LIKE optimization family of rewrites.
    no_like_opt: bool = False
    #: ``True`` runs the query as if ANALYZE statistics exist (MiniDB:
    #: the planner reads every table as analyzed; sqlite3: a transient
    #: ``ANALYZE`` rolled back afterwards).  ``False`` forces the
    #: pre-ANALYZE planner.  ``None`` leaves statistics as they are.
    analyze: Optional[bool] = None

    def validate(self) -> None:
        """Reject self-contradictory hint combinations."""
        if self.force_full_scan and self.force_index:
            raise DBError(
                "contradictory planner hints: force_full_scan and "
                f"force_index={self.force_index!r} cannot both be set")

    @property
    def is_baseline(self) -> bool:
        return self == PlannerHints()

    def describe(self) -> str:
        """Short human label, e.g. ``index:i0+analyze``."""
        parts = []
        if self.force_full_scan:
            parts.append("full-scan")
        if self.force_index:
            parts.append(f"index:{self.force_index}")
        if self.no_like_opt:
            parts.append("no-like-opt")
        if self.analyze is not None:
            parts.append("analyze" if self.analyze else "no-analyze")
        return "+".join(parts) or "baseline"

    # -- serialization (BugReport.plan_results / journal rounds) -------------
    def as_dict(self) -> dict:
        """Compact JSON form: only non-default knobs appear."""
        out: dict = {}
        if self.force_full_scan:
            out["force_full_scan"] = True
        if self.force_index is not None:
            out["force_index"] = self.force_index
        if self.no_like_opt:
            out["no_like_opt"] = True
        if self.analyze is not None:
            out["analyze"] = self.analyze
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PlannerHints":
        return cls(
            force_full_scan=bool(data.get("force_full_scan", False)),
            force_index=data.get("force_index"),
            no_like_opt=bool(data.get("no_like_opt", False)),
            analyze=data.get("analyze"))


#: The unforced plan, shared (hints are immutable).
BASELINE = PlannerHints()
