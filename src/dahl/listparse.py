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
    marked_items = []  # the parts of each marked item, joined once at the end
    bare_lines = []
    for line in raw.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        match = _MARKER.match(line)
        if match:
            marked_items.append([line[match.end() :].strip()])
        elif marked_items:
            marked_items[-1].append(stripped)
        else:
            bare_lines.append(stripped)

    if not marked_items:
        return bare_lines
    items = (" ".join(parts) for parts in marked_items)
    return [item for item in items if item]
