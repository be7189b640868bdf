"""The prose read before every change stays within its budget.

The documents named in ``docs/prose_budget.json`` and the change log are
read in full each time the repo is worked on, so their size is a cost
paid every time.  A failure names the document, or the CHANGES.md entry,
that outgrew its limit.  A document's limit only moves down: DESIGN.md's
is its size when the budget was set.
"""

import json
import re
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2]
BUDGET = json.loads((REPO / "docs" / "prose_budget.json").read_text())


def entry_sizes(text):
    """``{entry number: bytes}`` for each ``PR N:`` line of a change log."""
    sizes = {}
    for line in text.splitlines():
        m = re.match(r"(?:- )?PR (\d+):", line)
        if m:
            sizes[int(m.group(1))] = len(line.encode())
    return sizes


@pytest.mark.parametrize("name", sorted(BUDGET["documents"]))
def test_document_is_within_budget(name):
    size = len((REPO / name).read_bytes())
    limit = BUDGET["documents"][name]
    assert size <= limit, f"{name} is {size} bytes, over its {limit}"


def test_changes_entries_are_within_budget():
    first, limit = (BUDGET["changes_entries"][k] for k in ("first", "limit"))
    sizes = entry_sizes((REPO / "CHANGES.md").read_text())
    assert first in sizes
    over = [f"entry {n}: {size} bytes" for n, size in sorted(sizes.items())
            if n >= first and size > limit]
    assert not over, f"over the {limit}-byte entry budget: {over}"


def test_entries_are_found_with_or_without_a_bullet():
    text = "PR 1: one\n- PR 3: " + "x" * 10 + "\nnot an entry\n"
    assert entry_sizes(text) == {1: 9, 3: 18}
