#!/usr/bin/env python3
"""Checks docs/OBSERVABILITY.md's metric inventory against src/, both ways.

Collects the metric names registered in src/ through `counter("...")`,
`gauge("...")` or `histogram("...")` calls and requires each to appear
spelled in full in the metric inventory — `core_search.rounds`, not a
shorthand such as `.rounds` next to another name. Conversely, every
backquoted dotted metric name in the inventory section ("## Metric
inventory" up to the next "## " heading) must still be registered, so the
inventory cannot keep metrics the code no longer emits. Exits 1 listing
every undocumented and every stale name.

Usage: scripts/check_metric_docs.py [--src DIR] [--doc FILE]
"""

import argparse
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The call may break the line between the parenthesis and the literal.
REGISTRATION_RE = re.compile(r"\b(?:counter|gauge|histogram)\(\s*\"([^\"]+)\"\s*\)")


def registered_names(src_dir):
    names = {}
    for dirpath, _, filenames in os.walk(src_dir):
        for filename in sorted(filenames):
            if not filename.endswith((".cc", ".h")):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as f:
                for match in REGISTRATION_RE.finditer(f.read()):
                    names.setdefault(match.group(1), os.path.relpath(path, ROOT))
    return names


# A metric name as the inventory spells it: `area.name`, lower case.
INVENTORY_NAME_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")


def inventory_names(doc_text):
    match = re.search(r"^## Metric inventory$(.*?)(?=^## )", doc_text, re.M | re.S)
    if match is None:
        return None
    return set(INVENTORY_NAME_RE.findall(match.group(1)))


def documented(name, doc_text):
    # Whole-name match: not part of a longer dotted or underscored name.
    pattern = r"(?<![\w.])" + re.escape(name) + r"(?![\w])"
    return re.search(pattern, doc_text) is not None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--doc", default=os.path.join(ROOT, "docs", "OBSERVABILITY.md"))
    args = parser.parse_args()

    names = registered_names(args.src)
    if not names:
        print(f"no metric registrations found under {args.src}")
        return 1
    with open(args.doc, encoding="utf-8") as f:
        doc_text = f.read()
    doc_path = os.path.relpath(args.doc, ROOT)
    missing = sorted(name for name in names if not documented(name, doc_text))
    for name in missing:
        print(f"{doc_path}: metric `{name}` "
              f"(registered in {names[name]}) is not spelled out")
    listed = inventory_names(doc_text)
    if listed is None:
        print(f"{doc_path}: no \"## Metric inventory\" section")
        return 1
    stale = sorted(listed - names.keys())
    for name in stale:
        print(f"{doc_path}: metric `{name}` is listed but not registered in "
              f"{os.path.relpath(args.src, ROOT)}")
    print(f"{len(names)} registered metrics, {len(missing)} undocumented, "
          f"{len(stale)} listed but not registered")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
