#!/usr/bin/env python3
"""Counts the workspace's non-test lines of Rust.

Counts every line of the `.rs` files under `crates/` and `shims/`, leaving
out files in a `tests/` directory and files named `tests.rs`, and cutting
each file at its first `#[cfg(test)]` that starts in column 0 (the inline
unit-test module). Prints the total, then one line per crate, largest
first.

Usage: python3 scripts/nontest_loc.py [REPO_ROOT]
"""

import sys
from pathlib import Path

ROOTS = ("crates", "shims")


def nontest_lines(path):
    count = 0
    with open(path, encoding="utf-8") as source:
        for line in source:
            if line.startswith("#[cfg(test)]"):
                break
            count += 1
    return count


def main():
    repo = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    per_crate = {}
    for root in ROOTS:
        for path in sorted((repo / root).rglob("*.rs")):
            relative = path.relative_to(repo)
            if "tests" in relative.parts[:-1] or path.name == "tests.rs":
                continue
            crate = "/".join(relative.parts[:2])
            per_crate[crate] = per_crate.get(crate, 0) + nontest_lines(path)
    print(f"non-test lines: {sum(per_crate.values())}")
    for crate, lines in sorted(per_crate.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{lines:>8}  {crate}")


if __name__ == "__main__":
    main()
