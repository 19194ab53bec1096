"""Every JSON leaf that differs between two artifact directories.

Usage, from the repository root::

    python tools/leafdiff.py OLD NEW

It reads every ``*.json`` file of the two directories and prints one
line per leaf whose value differs, ``file  dotted.path  old  new``
(tab-separated; values as JSON, ``(absent)`` on the side that lacks the
leaf), and nothing else.  A list element's path component is its
index; an empty object or list is a leaf.  Exit status 0 when every
leaf is equal, 1 when a line was printed, 2 on a bad invocation.
``benchmarks/ci_smoke.sh`` runs it when its final ``diff -ru`` fails,
and a re-baseline lists its moved leaves with it.
"""

from __future__ import annotations

import json
import pathlib
import sys

#: What a side that lacks a leaf prints (no JSON value reads like it).
ABSENT = "(absent)"


def leaves(value, path: str = "") -> dict:
    """``{dotted path: value}`` of every leaf of one JSON document."""
    out = {}
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        out.update(leaves(child, f"{path}.{key}" if path else str(key)))
    if not out:
        out[path or "."] = value
    return out


def moved(old_dir: pathlib.Path, new_dir: pathlib.Path) -> list:
    """``[(file, path, old, new)]`` of every differing leaf, values as JSON."""
    lines = []
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.json")})
    for name in names:
        old, new = ({} if not (d / name).exists() else
                    leaves(json.loads((d / name).read_text()))
                    for d in (old_dir, new_dir))
        for path in [*old, *(p for p in new if p not in old)]:
            a, b = (json.dumps(side[path]) if path in side else ABSENT
                    for side in (old, new))
            if a != b:
                lines.append((name, path, a, b))
    return lines


def main(argv: list) -> int:
    if len(argv) != 2 or not all(pathlib.Path(d).is_dir() for d in argv):
        print("usage: python tools/leafdiff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lines = moved(*map(pathlib.Path, argv))
    for line in lines:
        print("\t".join(line))
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
