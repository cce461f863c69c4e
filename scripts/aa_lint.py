#!/usr/bin/env python3
"""aa_lint: repo-invariant linter for the acceptable-agreement engine.

The engine's headline claim — reports bit-identical at any thread count and
across resume/chaos/replay — rests on invariants no compiler checks:

  nondeterminism       No wall-clock / ambient-randomness source
                       (std::random_device, rand, srand, time(),
                       *_clock::now) outside bench/ timing loops (bench/
                       is not linted for it) and waived sites such as the
                       campaign's one clock read in core/campaign.cpp.
                       Every random bit must come from a seeded util/rng
                       stream; every timestamp must stay out of reports.
  unordered-container  No unordered_map/unordered_set in report-affecting
                       directories (src/core, src/sim, src/adversary):
                       their iteration order depends on hashing and
                       allocation history, which leaks straight into
                       reports. Ordered containers or the arena's intrusive
                       lists only.
  banned-api           Removed/superseded APIs must not reappear:
                       plan_window( was replaced by plan_window_into(
                       (scratch-reusing planning, PR 3).
  envelope-member      No raw Envelope* stored in a data member: arena
                       envelope views are invalidated by publication and
                       delivery (the buffer.hpp contract), so a held
                       pointer is a use-after-recycle waiting to happen.
                       Members in this codebase end in '_', which is what
                       the check keys on.
  file-write           Every file-writing call site (std::ofstream,
                       std::fstream, fopen) must route through the atomic
                       writers (core::write_file_atomic / bench_json's
                       write) so a SIGKILL never leaves a torn artifact.
                       std::ifstream (read-only) is always fine.

Waivers: a finding is suppressed when its line (or the line above) carries
    // aa-lint: <rule-waiver>(<reason>)
with the rule's waiver token — ordered-ok, clock-ok, banned-ok,
envelope-ok, write-ok — and a non-empty reason. A waiver without
a reason is itself an error. Waive sparingly; the reason is reviewed, not
parsed.

"AST-aware where cheap": before matching, each file is lexed enough to
drop comments and string/char literals (including raw strings), so a
mention of rand() in prose or a log message never trips a rule. Everything
else is line-based on the lexed text.

Usage:
    aa_lint.py [--root DIR]          lint the repo (exit 1 on findings)
    aa_lint.py --self-test [--root]  run the tests/lint fixture suite:
                                     each trip_<rule>.* fixture must trip
                                     EXACTLY its rule; clean_* none.

stdlib-only by design — runs anywhere python3 does, no pip.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass

# --------------------------------------------------------------------- rules


@dataclass(frozen=True)
class Rule:
    name: str           # rule id, also the fixture suffix (trip_<name>.*)
    waiver: str         # token accepted in an aa-lint waiver comment
    pattern: re.Pattern # matched against lexed (comment/string-free) lines
    dirs: tuple         # repo-relative dir prefixes the rule applies to
    allow: tuple        # path substrings exempt without a waiver
    why: str            # one-line rationale shown with each finding


RULES = [
    Rule(
        name="nondeterminism",
        waiver="clock-ok",
        pattern=re.compile(
            r"std\s*::\s*random_device"
            r"|\bsrand\s*\("
            r"|(?<![_\w])rand\s*\("
            r"|(?<![_\w:])time\s*\("
            r"|_clock\s*::\s*now"
        ),
        dirs=("src/", "tools/", "examples/"),
        allow=(),
        why="ambient randomness/clock — draw from util/rng or keep it out "
            "of reports",
    ),
    Rule(
        name="unordered-container",
        waiver="ordered-ok",
        pattern=re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
        dirs=("src/core/", "src/sim/", "src/adversary/", "src/lens/"),
        allow=(),
        why="hash-order iteration can leak into reports — use an ordered "
            "container or the arena lists",
    ),
    Rule(
        name="banned-api",
        waiver="banned-ok",
        pattern=re.compile(r"\bplan_window\s*\("),
        dirs=("src/", "tools/", "examples/", "bench/"),
        allow=(),
        why="plan_window( was removed in PR 3 — use plan_window_into(",
    ),
    Rule(
        name="envelope-member",
        waiver="envelope-ok",
        # An Envelope pointer (possibly inside a container template) in a
        # declaration whose declarator is a member name (trailing '_').
        pattern=re.compile(
            r"\bEnvelope\s*\*[^;(]*\b\w+_\s*(?:=[^;]*)?;"
            r"|\bEnvelope\s*\*\s*>\s*\w+_\s*(?:=[^;]*)?;"
        ),
        dirs=("src/",),
        allow=(),
        why="arena envelope views die at the next publication or "
            "delivery (buffer.hpp) — store MsgId instead",
    ),
    Rule(
        name="file-write",
        waiver="write-ok",
        pattern=re.compile(
            r"std\s*::\s*ofstream"
            r"|\bofstream\s+\w"
            r"|std\s*::\s*fstream\b"
            r"|\bfopen\s*\("
        ),
        dirs=("src/", "tools/", "bench/", "examples/"),
        allow=(),
        why="file writes must go through write_file_atomic / "
            "bench_json::write (crash-safe temp+rename)",
    ),
]

WAIVER_RE = re.compile(r"aa-lint:\s*([\w-]+)\s*\(([^)]*)\)")

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h", ".cxx"}

# Directories scanned in a repo run (tests/ is deliberately out: tests may
# exercise whatever they like, and the lint fixtures live there).
SCAN_DIRS = ("src", "tools", "bench", "examples")


# --------------------------------------------------------- cheap C++ lexing


def lex_lines(text):
    """The file's lines with comments and string/char literals blanked.

    A minimal C++ lexer — tracks //, /* */, "...", '...', and raw string
    literals R"delim(...)delim" — so rules never fire on prose or log
    messages. Blanked characters become spaces, which keeps every finding's
    line/column aligned with the original file.

    Returns (code_lines, comment_lines): the lexed code per line, and the
    comment text per line (waiver comments are read from the latter).
    """
    code = []
    comments = []
    cur_code = []
    cur_comment = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_tag = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code.append("".join(cur_code))
            comments.append("".join(cur_comment))
            cur_code, cur_comment = [], []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^(\s\\"]{0,16})\(', text[i:])
                if m:
                    raw_tag = m.group(1)
                    state = "raw"
                    cur_code.append(" " * len(m.group(0)))
                    i += len(m.group(0))
                    continue
            if c == '"':
                state = "string"
                cur_code.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                cur_code.append(" ")
                i += 1
                continue
            cur_code.append(c)
            i += 1
            continue
        if state == "line_comment":
            cur_comment.append(c)
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            cur_comment.append(c)
            i += 1
            continue
        if state == "string":
            if c == "\\":
                i += 2
                cur_code.append("  ")
                continue
            if c == '"':
                state = "code"
            cur_code.append(" ")
            i += 1
            continue
        if state == "char":
            if c == "\\":
                i += 2
                cur_code.append("  ")
                continue
            if c == "'":
                state = "code"
            cur_code.append(" ")
            i += 1
            continue
        if state == "raw":
            end = ')' + raw_tag + '"'
            if text.startswith(end, i):
                state = "code"
                cur_code.append(" " * len(end))
                i += len(end)
                continue
            cur_code.append(" ")
            i += 1
            continue
    if cur_code or cur_comment or (n and text[-1] != "\n"):
        code.append("".join(cur_code))
        comments.append("".join(cur_comment))
    return code, comments


# ------------------------------------------------------------------ linting


@dataclass(frozen=True)
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    snippet: str
    why: str


def find_waivers(comment_lines):
    """{line_index: {token: reason}} for every aa-lint waiver comment."""
    waivers = {}
    for idx, comment in enumerate(comment_lines):
        for m in WAIVER_RE.finditer(comment):
            waivers.setdefault(idx, {})[m.group(1)] = m.group(2).strip()
    return waivers


def lint_text(rel_path, text, rules, errors):
    """Findings for one file. Waiver problems are appended to `errors`."""
    code_lines, comment_lines = lex_lines(text)
    waivers = find_waivers(comment_lines)
    findings = []
    for rule in rules:
        for idx, line in enumerate(code_lines):
            if not rule.pattern.search(line):
                continue
            # #include <unordered_set> is not the hazard (iterating is),
            # and <ctime>/<fstream> likewise — directives never trip rules.
            if line.lstrip().startswith("#"):
                continue
            # A waiver counts on the finding's line or the line above
            # (standalone waiver comment preceding the statement).
            waiver = None
            for widx in (idx, idx - 1):
                if widx in waivers and rule.waiver in waivers[widx]:
                    waiver = waivers[widx][rule.waiver]
                    break
            if waiver is not None:
                if not waiver:
                    errors.append(
                        f"{rel_path}:{idx + 1}: {rule.waiver} waiver has an "
                        f"empty reason — say why or remove it")
                continue
            findings.append(Finding(
                path=rel_path, line=idx + 1, rule=rule.name,
                snippet=text.splitlines()[idx].strip()[:120],
                why=rule.why))
    return findings


def rules_for(rel_path):
    active = []
    for rule in RULES:
        if not rel_path.startswith(rule.dirs):
            continue
        if any(sub in rel_path for sub in rule.allow):
            continue
        active.append(rule)
    return active


def iter_source_files(root):
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def lint_repo(root):
    findings = []
    errors = []
    for path in iter_source_files(root):
        rel = path.relative_to(root).as_posix()
        active = rules_for(rel)
        if not active:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        findings.extend(lint_text(rel, text, active, errors))
    return findings, errors


# ---------------------------------------------------------------- self-test


def self_test(root):
    """Every tests/lint fixture must behave exactly as its name promises.

    trip_<rule>.<ext>   — at least one finding, ALL of rule <rule>, and no
                          finding from any other rule (a fixture that trips
                          two rules is a bad fixture). A '__<variant>'
                          suffix after the rule name adds extra fixtures
                          for the same rule (trip_unordered_container__lens
                          still tests unordered-container).
    clean_*.<ext>       — zero findings under EVERY rule.
    """
    fixture_dir = root / "tests" / "lint"
    fixtures = sorted(p for p in fixture_dir.iterdir()
                      if p.suffix in SOURCE_SUFFIXES)
    if not fixtures:
        print(f"aa_lint --self-test: no fixtures under {fixture_dir}",
              file=sys.stderr)
        return 1
    known = {rule.name for rule in RULES}
    failures = []
    covered = set()
    for path in fixtures:
        errors = []
        # Fixtures are linted under ALL rules regardless of directory — the
        # fixture file stands in for a file in the rule's scanned dirs.
        findings = lint_text(path.name, path.read_text(encoding="utf-8"),
                             RULES, errors)
        tripped = {f.rule for f in findings}
        if path.stem.startswith("trip_"):
            expected = (
                path.stem[len("trip_"):].split("__")[0].replace("_", "-"))
            if expected not in known:
                failures.append(f"{path.name}: names unknown rule "
                                f"'{expected}'")
            elif tripped != {expected}:
                failures.append(
                    f"{path.name}: expected exactly {{{expected}}}, "
                    f"tripped {sorted(tripped) or '{}'}")
            else:
                covered.add(expected)
            if errors:
                failures.append(f"{path.name}: unexpected waiver errors: "
                                f"{errors}")
        elif path.stem.startswith("clean"):
            if tripped or errors:
                failures.append(
                    f"{path.name}: expected no findings, got "
                    f"{sorted(tripped)} + {len(errors)} waiver error(s)")
        else:
            failures.append(f"{path.name}: fixture name must start with "
                            f"trip_<rule> or clean")
    missing = known - covered
    if missing:
        failures.append(f"rules with no trip_ fixture: {sorted(missing)}")
    for f in failures:
        print(f"aa_lint --self-test FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"aa_lint --self-test: {len(fixtures)} fixtures ok, "
              f"{len(known)} rules covered")
    return 1 if failures else 0


# ------------------------------------------------------------------- driver


def main():
    ap = argparse.ArgumentParser(
        description="repo-invariant linter (see module docstring)")
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent,
                    help="repository root (default: the checkout this "
                         "script lives in)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the tests/lint fixture suite instead of "
                         "linting the repo")
    args = ap.parse_args()
    root = args.root.resolve()

    if args.self_test:
        return self_test(root)

    findings, errors = lint_repo(root)
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.snippet}")
        print(f"    {f.why}; waive with "
              f"// aa-lint: {next(r.waiver for r in RULES if r.name == f.rule)}(<reason>)")
    for e in errors:
        print(e)
    total = len(findings) + len(errors)
    if total:
        print(f"aa_lint: {len(findings)} finding(s), {len(errors)} waiver "
              f"error(s)", file=sys.stderr)
        return 1
    print("aa_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
