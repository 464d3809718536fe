"""Subject patterns.

Subject patterns are dotted, with two wildcards:

* ``*`` matches exactly one segment (``probe.*.C3``);
* ``>`` matches one or more trailing segments (``probe.>``).
"""

from __future__ import annotations

__all__ = ["subject_matches", "validate_pattern"]


def validate_pattern(pattern: str) -> str:
    """Check that ``pattern`` is a well-formed subject pattern.

    A valid pattern is a non-empty dotted sequence of non-empty segments
    where ``>`` (if present) is the final segment.  Returns the pattern so
    callers can validate inline; raises :class:`ValueError` otherwise.
    """
    if not isinstance(pattern, str):
        raise ValueError(f"subject pattern must be a string, got {pattern!r}")
    if not pattern:
        raise ValueError("subject pattern must not be empty")
    parts = pattern.split(".")
    for i, segment in enumerate(parts):
        if not segment:
            raise ValueError(f"empty segment in subject pattern {pattern!r}")
        if segment == ">" and i != len(parts) - 1:
            raise ValueError(f"'>' must be the final segment: {pattern!r}")
    return pattern


def subject_matches(pattern: str, subject: str) -> bool:
    """Test ``subject`` against a wildcard ``pattern``."""
    p_parts = pattern.split(".")
    s_parts = subject.split(".")
    for i, p in enumerate(p_parts):
        if p == ">":
            if i != len(p_parts) - 1:
                raise ValueError(f"'>' must be the final segment: {pattern!r}")
            return len(s_parts) >= i + 1
        if i >= len(s_parts):
            return False
        if p == "*":
            continue
        if p != s_parts[i]:
            return False
    return len(s_parts) == len(p_parts)
