#!/usr/bin/env python3
"""Fail when a tracked source includes a header that git does not track.

A header that exists only in one developer's checkout (untracked, or
swallowed by a .gitignore rule) builds there and nowhere else. This guard
reads every git-tracked C++ source under src/, tools/, tests/, bench/ and
examples/, resolves each quoted #include the way the build does (next to
the including file, then under src/), and fails when an include points
into the tree but no candidate is a tracked file. An include whose
candidate directories hold no tracked file at all names a third-party
header (e.g. "clang/AST/ASTContext.h") and is not checked.

Usage: tools/check_tracked_includes.py [repo-root]
Exit 0 clean, 1 on an untracked include, 77 (ctest SKIP_RETURN_CODE) when
the root is not a git work tree or git is missing.
"""

import os
import re
import subprocess
import sys

SCOPES = ("src", "tools", "tests", "bench", "examples")
SOURCE_EXTS = (".h", ".hpp", ".cpp", ".cc", ".cxx", ".inl")
INCLUDE_ROOTS = ("src",)
SKIP = 77
_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def tracked_files(root):
    """Tracked paths under SCOPES, or None when root is not a git tree."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "ls-files", "-z", "--", *SCOPES],
            check=True, capture_output=True).stdout
        inside = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-prefix"],
            check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    if inside:  # root is a subdirectory of some other work tree
        return None
    return {p.decode() for p in out.split(b"\0") if p}


def untracked_includes(root, tracked):
    """(source, line number, include) for every include left unresolved."""
    tracked_dirs = {os.path.dirname(p) for p in tracked}
    problems = []
    for src in sorted(p for p in tracked if p.endswith(SOURCE_EXTS)):
        with open(os.path.join(root, src), encoding="utf-8",
                  errors="replace") as f:
            lines = f.read().splitlines()
        for n, line in enumerate(lines, 1):
            m = _INCLUDE.match(line)
            if not m:
                continue
            bases = (os.path.dirname(src),) + INCLUDE_ROOTS
            cands = [os.path.normpath(os.path.join(b, m.group(1)))
                     for b in bases]
            if any(c in tracked for c in cands):
                continue
            if any(os.path.dirname(c) in tracked_dirs for c in cands):
                problems.append((src, n, m.group(1)))
    return problems


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(argv[1] if len(argv) > 1
                           else os.path.join(here, ".."))
    tracked = tracked_files(root)
    if tracked is None:
        print(f"skip: {root} is not the top of a git work tree")
        return SKIP
    problems = untracked_includes(root, tracked)
    for src, n, inc in problems:
        print(f'{src}:{n}: includes "{inc}", which git does not track')
    if problems:
        print(f"{len(problems)} include(s) of untracked headers: a fresh "
              "clone will not build; git add the header (check .gitignore)")
        return 1
    print("ok: every quoted include of a tracked source resolves to a "
          "tracked header")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
