#!/usr/bin/env python3
"""Check that relative links in markdown files point at real files.

Usage: check_markdown_links.py FILE_OR_DIR [FILE_OR_DIR ...]

Directories are scanned recursively for *.md. Both inline links
[text](target) and reference-style links [text][ref] (resolved through
their `[ref]: target` definitions) are checked:

  - http(s)/mailto links are skipped (no network access in CI),
  - pure-anchor links (#section) are checked against the anchors of the
    same file,
  - relative paths are resolved against the file's directory and must
    exist; a trailing #anchor is checked against the target's anchors
    when the target is itself markdown.

Anchors are computed the way GitHub renders them: headings are stripped
of markdown (backticks, emphasis, link syntax), slugified (lowercase,
punctuation dropped, spaces to dashes), and duplicate headings get -1,
-2, ... suffixes. Explicit HTML anchors (<a name="..."> / id="...")
count too.

Exits non-zero listing every broken link.
"""

import re
import sys
from pathlib import Path

INLINE_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
# [text][ref] — and bare collapsed [ref][] — but not [text](inline) or a
# definition line.
REF_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\[([^\]]*)\]")
REF_DEF_RE = re.compile(r"^\s{0,3}\[([^\]]+)\]:\s*(\S+)", re.MULTILINE)
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
HTML_ANCHOR_RE = re.compile(r"""<a\s+(?:name|id)=["']([^"']+)["']""")
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)


def strip_heading_markup(heading: str) -> str:
    """Reduce a heading to the text GitHub slugifies: drop code/emphasis
    markers, replace link syntax with the link text."""
    text = re.sub(r"!?\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    text = re.sub(r"!?\[([^\]]*)\]\[[^\]]*\]", r"\1", text)
    # Backticks and asterisks fall to slugify's punctuation pass anyway;
    # underscores must survive — they are word characters in a slug
    # (fig08_budget_sweep), not emphasis, in every heading we render.
    return text


def slugify(heading: str) -> str:
    """GitHub-style anchor slug: lowercase, spaces to dashes, drop punctuation."""
    slug = strip_heading_markup(heading).strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(path: Path) -> set:
    text = path.read_text(encoding="utf-8")
    anchors = set(HTML_ANCHOR_RE.findall(text))
    # Headings inside fenced code blocks don't render as headings.
    text = CODE_FENCE_RE.sub("", text)
    seen = {}
    for heading in HEADING_RE.findall(text):
        slug = slugify(heading)
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        # GitHub disambiguates repeated headings with -1, -2, ...
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def link_targets(text: str) -> list:
    """All link targets in the (fence-stripped) text: inline plus
    reference-style resolved through their definitions."""
    targets = list(INLINE_LINK_RE.findall(text))
    defs = {ref.lower(): target for ref, target in REF_DEF_RE.findall(text)}
    for match in REF_LINK_RE.finditer(text):
        ref = match.group(1)
        if not ref:  # collapsed [ref][] uses the link text as the ref
            ref = re.match(r"\[([^\]]+)\]", match.group(0)).group(1)
        target = defs.get(ref.lower())
        if target is None:
            targets.append(f"#__undefined_reference__{ref}")
        else:
            targets.append(target)
    return targets


def check_file(path: Path) -> list:
    errors = []
    text = path.read_text(encoding="utf-8")
    # Links inside fenced code blocks are examples, not navigation.
    text = CODE_FENCE_RE.sub("", text)
    for target in link_targets(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#__undefined_reference__"):
            ref = target[len("#__undefined_reference__"):]
            errors.append(f"{path}: undefined link reference -> [{ref}]")
            continue
        base, _, anchor = target.partition("#")
        resolved = path if not base else (path.parent / base).resolve()
        if base and not resolved.exists():
            errors.append(f"{path}: broken link -> {target}")
            continue
        if anchor and resolved.suffix == ".md" and resolved.exists():
            if anchor not in anchors_of(resolved):
                errors.append(f"{path}: missing anchor -> {target}")
    return errors


def main(argv: list) -> int:
    files = []
    for arg in argv:
        p = Path(arg)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.md")))
        elif p.exists():
            files.append(p)
        else:
            print(f"warning: {arg} does not exist, skipping", file=sys.stderr)
    errors = []
    for f in files:
        errors.extend(check_file(f))
    for e in errors:
        print(e, file=sys.stderr)
    print(f"checked {len(files)} file(s), {len(errors)} broken link(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
