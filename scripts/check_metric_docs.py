#!/usr/bin/env python3
"""Checks that every registered metric is documented in docs/OBSERVABILITY.md.

Collects the metric names registered in src/ through `counter("...")`,
`gauge("...")` or `histogram("...")` calls and requires each to appear
spelled in full in the metric inventory — `core_search.rounds`, not a
shorthand such as `.rounds` next to another name. Exits 1 listing every
undocumented name.

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
    missing = sorted(name for name in names if not documented(name, doc_text))
    for name in missing:
        print(f"{os.path.relpath(args.doc, ROOT)}: metric `{name}` "
              f"(registered in {names[name]}) is not spelled out")
    print(f"{len(names)} registered metrics, {len(missing)} undocumented")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
