#!/usr/bin/env python
"""Fail CI when a committed ``BENCH_*.json`` wall-clock figure regresses.

Every committed benchmark artifact carries the last accepted performance
envelope in its quarantined ``wall_clock`` section.  CI regenerates the
artifact on the runner and this script compares the *fresh* numbers
against the *committed* ones (``git show <ref>:<artifact>``), failing on
any drop beyond the threshold.

The comparison is generic over the artifact shape: the ``wall_clock``
tree is flattened to dotted keys (``runs.8/incremental.events_per_second``,
``sharded.4.makespan_s``, ``speedup``), and ``--select`` fnmatch patterns
choose which leaves are guarded.  ``--section`` retargets the comparison
at any other dotted top-level subtree (e.g. ``--section fleet`` guards
the deterministic payload figures of the fleet observability tiers —
useful with a tight ``--threshold``, since those numbers carry no host
noise).  ``--direction`` says which way is good:

* ``higher`` (default) — throughput-style figures (events/s, speedup);
  a fresh value below ``(1 - threshold) x committed`` fails;
* ``lower`` — latency/duration figures (wall_s, compress_s); a fresh
  value above ``(1 + threshold) x committed`` fails.

``--min-wall`` skips figures whose run was too short for a stable
number: a leaf is exempt when the nearest sibling duration key
(``wall_s`` / ``makespan_s``, or the leaf itself when it *is* one) is
under the floor on either side.  Keys present on only one side (e.g.
fleet sizes that differ between ``REPRO_SCALE=small`` runs and
full-scale committed baselines) are reported but never compared.

The threshold is deliberately loose: this is a guard against
order-of-magnitude mistakes (an accidentally quadratic path, a dead
fast path), not a microbenchmark.  Tune per-invocation with
``--threshold`` or the ``REPRO_BENCH_TOLERANCE`` environment variable.
"""

import argparse
import fnmatch
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

#: sibling keys treated as the "how long did this run" guard figure
WALL_GUARD_KEYS = ("wall_s", "makespan_s")


def committed_baseline(ref: str, artifact: str) -> Optional[dict]:
    """The artifact as committed at ``ref`` (None when absent)."""
    try:
        blob = subprocess.run(
            ["git", "show", f"{ref}:{artifact}"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    return json.loads(blob)


def flatten_wall(node: object, prefix: str = "") -> Dict[str, float]:
    """Every numeric leaf of a wall_clock tree, keyed by dotted path."""
    out: Dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_wall(value, path))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = float(node)
    return out


def section_subtree(doc: dict, section: str) -> object:
    """The subtree at a dotted path (empty dict when absent)."""
    node: object = doc
    for part in section.split("."):
        if not isinstance(node, dict) or part not in node:
            return {}
        node = node[part]
    return node


def select_keys(
    leaves: Dict[str, float], patterns: Optional[List[str]]
) -> List[str]:
    if not patterns:
        return sorted(leaves)
    return sorted(
        k for k in leaves
        if any(fnmatch.fnmatchcase(k, p) for p in patterns)
    )


def guard_wall(leaves: Dict[str, float], key: str) -> Optional[float]:
    """The duration figure guarding ``key`` (itself, or a sibling)."""
    leaf = key.rsplit(".", 1)[-1]
    if leaf in WALL_GUARD_KEYS:
        return leaves[key]
    parent = key.rsplit(".", 1)[0] if "." in key else ""
    for wall_name in WALL_GUARD_KEYS:
        sibling = f"{parent}.{wall_name}" if parent else wall_name
        if sibling in leaves:
            return leaves[sibling]
    return None


def compare(
    fresh_doc: dict,
    base_doc: dict,
    patterns: Optional[List[str]],
    direction: str,
    threshold: float,
    min_wall: float,
    section: str = "wall_clock",
) -> int:
    fresh = flatten_wall(section_subtree(fresh_doc, section))
    base = flatten_wall(section_subtree(base_doc, section))
    selected_fresh = select_keys(fresh, patterns)
    selected_base = select_keys(base, patterns)
    common = sorted(set(selected_fresh) & set(selected_base))
    skipped = sorted(set(selected_fresh) ^ set(selected_base))
    if not common:
        print(f"no common selected {section} keys between fresh and "
              "committed artifacts; nothing to compare")
        return 0

    width = max(24, max(len(k) for k in common))
    regressions = []
    compared = 0
    print(f"{'key':<{width}} {'committed':>12} {'fresh':>12} {'ratio':>8}")
    for key in common:
        base_v, fresh_v = base[key], fresh[key]
        guards = (guard_wall(base, key), guard_wall(fresh, key))
        if min_wall and any(g is not None and g < min_wall for g in guards):
            print(f"{key:<{width}} {base_v:>12.4g} {fresh_v:>12.4g} "
                  f"{'—':>8}  (sub-{min_wall}s run, not compared)")
            continue
        compared += 1
        # equal values, zeros included, are no change
        ratio = (1.0 if fresh_v == base_v
                 else fresh_v / base_v if base_v else float("inf"))
        bad = (ratio < 1.0 - threshold if direction == "higher"
               else ratio > 1.0 + threshold)
        flag = ""
        if bad:
            regressions.append(key)
            flag = "  << REGRESSION"
        print(f"{key:<{width}} {base_v:>12.4g} {fresh_v:>12.4g} "
              f"{ratio:>7.2f}x{flag}")
    if skipped:
        print(f"(skipped {len(skipped)} keys present on one side only: "
              f"{', '.join(skipped)})")

    if regressions:
        worse = "dropped" if direction == "higher" else "grew"
        print(f"\nFAIL: {len(regressions)} {section} figure(s) {worse} "
              f"beyond {threshold:.0%}: {', '.join(regressions)}",
              file=sys.stderr)
        return 1
    print(f"\nOK: no {direction}-is-better regression beyond "
          f"{threshold:.0%} across {compared} compared figures")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare a fresh BENCH artifact's wall_clock figures "
                    "against the committed baseline")
    parser.add_argument("artifact",
                        help="repo-relative BENCH_*.json path (fresh copy "
                             "on disk, baseline from git)")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref holding the baseline (default: HEAD)")
    parser.add_argument("--baseline",
                        help="compare against this file instead of a git "
                             "ref (for testing the checker itself)")
    parser.add_argument("--select", action="append", metavar="PATTERN",
                        help="fnmatch pattern over dotted wall_clock keys; "
                             "repeatable (default: every numeric leaf)")
    parser.add_argument("--section", default="wall_clock",
                        help="dotted top-level subtree to compare "
                             "(default: wall_clock; e.g. fleet for the "
                             "deterministic fleet-health payload figures)")
    parser.add_argument("--direction", choices=("higher", "lower"),
                        default="higher",
                        help="which way is good for the selected figures "
                             "(default: higher)")
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.25")),
        help="max tolerated fractional regression (default 0.25)")
    parser.add_argument(
        "--min-wall", type=float, default=0.0,
        help="skip figures whose guarding wall_s/makespan_s (or the "
             "figure itself, when it is one) is under this many seconds "
             "on either side (default: compare everything)")
    args = parser.parse_args(argv)

    try:
        with open(args.artifact) as f:
            fresh_doc = json.load(f)
    except FileNotFoundError:
        print(f"error: {args.artifact} not found — run the benchmark "
              "first", file=sys.stderr)
        return 2
    if args.baseline:
        with open(args.baseline) as f:
            base_doc = json.load(f)
    else:
        base_doc = committed_baseline(args.ref, args.artifact)
        if base_doc is None:
            print(f"no committed {args.artifact} at {args.ref}; "
                  "nothing to compare")
            return 0
    return compare(fresh_doc, base_doc, args.select, args.direction,
                   args.threshold, args.min_wall, section=args.section)


if __name__ == "__main__":
    raise SystemExit(main())
