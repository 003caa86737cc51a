"""Compare two run directories artifact by artifact.

    python tests/artifact_diff.py OLD_DIR NEW_DIR

For every file name in either directory it prints one report:
- "identical" when the bytes are equal;
- for .ndjson and .json files, each (record kind, field path) whose values
  differ, with how many records differ there, then the first differing line;
- for timings.csv, each column whose values differ, with counts, then the
  first differing line.

A record's kind is its "kind" field (events) or else the file's name up to
its first "_" ("chain", "registry", "metrics"). List items share one path
("pairs[].response"), so that a field that moved in every record is counted
once. A line whose bytes differ while its parsed values are equal counts at
the path "(formatting)"; a line present on one side only at "(missing line)".
The last line sums up; the exit status is 0 when every file is identical
and 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import sys
from collections import Counter
from pathlib import Path

MISSING = object()  # a key, list item or line one side lacks


def differing_paths(old, new, path: str = ""):
    """Yield the path of every value where old and new differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in {**old, **new}:
            yield from differing_paths(old.get(key, MISSING), new.get(key, MISSING),
                                       f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from differing_paths(old[i] if i < len(old) else MISSING,
                                       new[i] if i < len(new) else MISSING, path + "[]")
    elif type(old) is not type(new) or old != new:  # 1, 1.0 and True differ on disk
        yield path or "(value)"


def record_kind(record, stem: str) -> str:
    if isinstance(record, dict) and isinstance(record.get("kind"), str):
        return record["kind"]
    return stem.split("_")[0]


def first_difference(old_lines: list[str], new_lines: list[str]) -> list[str]:
    for number, (old, new) in enumerate(zip(old_lines + [""], new_lines + [""]), 1):
        if old != new:
            return [f"  first differing line {number}:", f"    - {old[:200]}",
                    f"    + {new[:200]}"]
    return []


def json_differences(old_lines: list[str], new_lines: list[str], stem: str) -> Counter:
    """(kind, path) counts over the lines of an .ndjson file, or over one
    .json document passed as a single line each."""
    counts: Counter = Counter()
    for i in range(max(len(old_lines), len(new_lines))):
        old = old_lines[i] if i < len(old_lines) else None
        new = new_lines[i] if i < len(new_lines) else None
        if old == new:
            continue
        if old is None or new is None:
            counts[record_kind(json.loads(old or new), stem), "(missing line)"] += 1
            continue
        old_record, new_record = json.loads(old), json.loads(new)
        paths = set(differing_paths(old_record, new_record)) or {"(formatting)"}
        for path in paths:
            counts[record_kind(new_record, stem), path] += 1
    return counts


def csv_differences(old_lines: list[str], new_lines: list[str]) -> Counter:
    old_rows, new_rows = list(csv.reader(old_lines)), list(csv.reader(new_lines))
    header = new_rows[0] if new_rows else []
    counts: Counter = Counter()
    for i in range(1, max(len(old_rows), len(new_rows))):
        if i >= len(old_rows) or i >= len(new_rows):
            counts["(missing line)"] += 1
            continue
        for j in range(max(len(old_rows[i]), len(new_rows[i]))):
            old = old_rows[i][j] if j < len(old_rows[i]) else MISSING
            new = new_rows[i][j] if j < len(new_rows[i]) else MISSING
            if old != new:
                counts[header[j] if j < len(header) else f"column {j}"] += 1
    if old_rows[:1] != new_rows[:1]:
        counts["(header)"] += 1
    return counts


def compare_file(old_path: Path, new_path: Path) -> list[str]:
    """The report lines for one artifact; the first names it and its verdict."""
    name = old_path.name
    if not old_path.exists() or not new_path.exists():
        return [f"{name}: only in {'old' if old_path.exists() else 'new'}"]
    old_bytes, new_bytes = old_path.read_bytes(), new_path.read_bytes()
    if old_bytes == new_bytes:
        return [f"{name}: identical"]
    old_lines = old_bytes.decode("utf-8", "replace").splitlines()
    new_lines = new_bytes.decode("utf-8", "replace").splitlines()
    report = [f"{name}: differs"]
    if name.endswith(".ndjson") or name.endswith(".json"):
        whole = name.endswith(".json")
        counts = json_differences(["\n".join(old_lines)] if whole else old_lines,
                                  ["\n".join(new_lines)] if whole else new_lines,
                                  old_path.stem)
        report += [f"  {kind} {path}: {n}" for (kind, path), n in sorted(counts.items())]
    elif name.endswith(".csv"):
        counts = csv_differences(old_lines, new_lines)
        report += [f"  column {column}: {n}" for column, n in sorted(counts.items())]
    return report + first_difference(old_lines, new_lines)


def compare_dirs(old_dir: Path, new_dir: Path) -> tuple[list[str], bool]:
    """The whole report and whether every file is identical."""
    names = sorted({p.name for p in old_dir.iterdir() if p.is_file()}
                   | {p.name for p in new_dir.iterdir() if p.is_file()})
    report, n_identical = [], 0
    for name in names:
        lines = compare_file(old_dir / name, new_dir / name)
        n_identical += lines[0].endswith(": identical")
        report += lines
    report.append(f"summary: {len(names)} files, {n_identical} identical, "
                  f"{len(names) - n_identical} differ")
    return report, n_identical == len(names)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/artifact_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    report, same = compare_dirs(Path(argv[0]), Path(argv[1]))
    print("\n".join(report))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
