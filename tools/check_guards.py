#!/usr/bin/env python3
"""Check a source tree against the grep guards in tools/guards.txt.

    python3 tools/check_guards.py [--root=DIR]

Each row of the table forbids, requires or counts a regular expression
in a set of files or in one function body (the table's header gives the
format). Every violation prints as `guard: file:line: what: message`,
and any violation exits 1. A path or glob that matches no file, and a
function body that is not found, are violations too, so a guard cannot
pass because its file was renamed. The table read is the one in the
checkout this script sits in; the tree scanned is that checkout, or
--root. The scanned tree's own table is never scanned.
"""

import argparse
import functools
import re
import sys
from pathlib import Path

TABLE = "tools/guards.txt"  # in every checkout it guards


@functools.lru_cache(maxsize=None)
def read_lines(path):
    return path.read_text(errors="replace").splitlines()


def scope_lines(root, scope):
    """[(file:line, text)] for every line SCOPE covers, and a
    (where, what) violation when part of SCOPE matched nothing."""
    if ":" in scope:
        # FILE:Class::func: each definition, from the line that starts
        # `Class::func(` to the next line that is exactly `}`.
        path, func = scope.split(":", 1)
        file = root / path
        lines, inside = [], False
        for n, text in enumerate(read_lines(file) if file.is_file() else [],
                                 1):
            inside = inside or text.startswith(func + "(")
            if inside:
                lines.append((f"{path}:{n}", text))
                inside = text != "}"
        return lines, None if lines else (path, f"no body of {func}")
    keep, drop = set(), set()
    for entry in scope.split(","):
        hits = set()
        for p in root.glob(entry.lstrip("!")):
            hits.update([p] if p.is_file() else
                        (f for f in p.rglob("*") if f.is_file()))
        if not hits:
            return [], (entry, "matches no file")
        (drop if entry.startswith("!") else keep).update(hits)
    files = sorted(str(f.relative_to(root)) for f in keep - drop)
    return [(f"{f}:{n}", text) for f in files if f != TABLE
            for n, text in enumerate(read_lines(root / f), 1)], None


def check_row(root, check, scope, pattern):
    """The (where, what) violations of one row."""
    lines, missing = scope_lines(root, scope)
    if missing:
        return [missing]
    hits = [(where, text) for where, text in lines if pattern.search(text)]
    if check == "forbid":
        return [(where, f"`{text.strip()}`") for where, text in hits]
    count = sum(len(pattern.findall(text)) for _, text in hits)
    if check == "require":
        ok, want = count > 0, "at least 1"
    else:
        ok, want = count == int(check[6:]), check[6:]
    if ok:
        return []
    where = lines[0][0] if ":" in scope else scope
    return [(where, f"{count} matches of {pattern.pattern}, want {want}")]


def main():
    checkout = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(checkout),
                        help="source tree to scan (default: this checkout)")
    args = parser.parse_args()
    root, table = Path(args.root).resolve(), checkout / TABLE

    guard = message = None
    rows = violations = 0
    for n, raw in enumerate(read_lines(table), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            guard, _, message = line[1:].partition("]")
            message = message.strip()
            continue
        fields = line.split(None, 2)
        if (guard is None or len(fields) != 3 or
                not re.fullmatch(r"forbid|require|count=\d+", fields[0])):
            sys.exit(f"{table}:{n}: want `[guard] message` lines, each "
                     f"followed by `forbid|require|count=N SCOPE PATTERN` "
                     f"rows")
        rows += 1
        check, scope, pattern = fields
        for where, what in check_row(root, check, scope, re.compile(pattern)):
            print(f"{guard}: {where}: {what}: {message}")
            violations += 1
    print(f"guards: {rows} rows, {violations} violations under {root}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
