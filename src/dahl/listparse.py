"""Parsing of model-produced lists.

Accepts numbered lists ("1." or "1)"), dash/asterisk/bullet items, or
bare one-per-line output. When any marker is present, unmarked lines
are treated as continuations of the previous item; when none is, every
non-blank line is its own item.
"""

from __future__ import annotations

import re

_MARKER = re.compile(r"^\s*(?:\d+[.)]\s+|[-*•]\s+)")


def parse_list_output(raw: str) -> list:
    marked_items = []
    bare_lines = []
    saw_marker = False
    for line in raw.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        match = _MARKER.match(line)
        if match:
            saw_marker = True
            marked_items.append(line[match.end() :].strip())
        elif saw_marker and marked_items:
            marked_items[-1] = f"{marked_items[-1]} {stripped}"
        else:
            bare_lines.append(stripped)

    items = marked_items if saw_marker else bare_lines
    return [item for item in items if item]
