#!/usr/bin/env python3
"""Knob lint: every defaulted field of a `struct *Options` must be turned.

A settable value that no caller ever assigns is a constant in disguise: it
widens the API, keeps code alive that only a non-default value could reach,
and documents a choice nobody makes. This lists each field with a default
initializer in every `struct <Name>Options` under src/, and fails, naming
the field, when no file under src/ bench/ examples/ perfbench/ tests/
assigns it (`.field =`, `->field =`) or reaches into it (`.field.`).

Usage: tools/knob_audit.py [repo-root]   (exit 1 when a field is unturned)
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                    pathlib.Path(__file__).resolve().parent.parent)
SCAN_DIRS = ("src", "bench", "examples", "perfbench", "tests")
SOURCE_SUFFIXES = {".cpp", ".hpp"}

STRUCT_RE = re.compile(r"\bstruct\s+(\w+Options)\s*\{")
# `type name = value;` or `type name{value};` at the struct's top level.
FIELD_RE = re.compile(r"^\s*(?!static\b|using\b)[\w:<>,*&\s]+?"
                      r"[\s*&](\w+)\s*(?:=[^=;][^;]*|\{[^;]*\})\s*;")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def sources():
    for d in SCAN_DIRS:
        for p in sorted((ROOT / d).rglob("*")):
            if p.suffix in SOURCE_SUFFIXES and p.is_file():
                yield p


def defaulted_fields(text):
    """(struct, field) for each defaulted top-level field of *Options."""
    for m in STRUCT_RE.finditer(text):
        depth, i, start = 1, m.end(), m.end()
        while depth and i < len(text):
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        body, level, line = text[start:i - 1], 0, ""
        for ch in body:
            if level == 0:
                line += ch
            level += {"{": 1, "}": -1}.get(ch, 0)
            if ch == ";" and level == 0:
                field = FIELD_RE.match(line.replace("\n", " "))
                if field:
                    yield m.group(1), field.group(1)
                line = ""
            elif ch == "}" and level == 0:
                line = ""


def main():
    texts = {p: strip_comments(p.read_text()) for p in sources()}
    corpus = "\n".join(texts.values())
    knobs = [(p, s, f) for p, t in texts.items()
             if p.is_relative_to(ROOT / "src") for s, f in defaulted_fields(t)]
    unturned = [(p, s, f) for p, s, f in knobs
                if not re.search(r"(?:\.|->)%s\s*(?:=(?!=)|\.)" % f, corpus)]
    for p, s, f in unturned:
        print("%s: %s::%s has a default no caller ever changes; make it a "
              "constant" % (p.relative_to(ROOT), s, f))
    print("knob audit: %d defaulted option fields, %d unturned" %
          (len(knobs), len(unturned)))
    return 1 if unturned else 0


if __name__ == "__main__":
    sys.exit(main())
