"""Global attach switch used by the ``--agile-checks`` pytest flag.

This module deliberately imports nothing from :mod:`repro.core` at import
time: :class:`~repro.core.host.AgileHost` calls :func:`maybe_attach` at the
end of its constructor, and the real attach machinery is imported lazily
only when checks are enabled, so the hook adds one boolean test to hosts
built with analysis off.
"""

from __future__ import annotations

from typing import Any, Optional

_enabled = False


def enable() -> None:
    """Turn on automatic checker attachment for every new AgileHost."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def maybe_attach(host: Any) -> Optional[Any]:
    """Attach the full analysis session to ``host`` iff checks are enabled.

    Returns the :class:`~repro.analysis.AnalysisSession` or ``None``.
    """
    if not _enabled:
        return None
    from repro.analysis import attach

    return attach(host)
