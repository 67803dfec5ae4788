#!/usr/bin/env python3
"""Fail when a public item has no caller outside its own crate.

rustc's `dead_code` lint skips `pub` items, and in a workspace of small
crates almost everything is `pub`. This script finds the public items
nothing else uses:

1. Copy the repository to a temporary directory (the checkout is never
   edited) and demote every `pub fn`, `pub const`, `pub static`,
   `pub struct`, `pub enum` and `pub type` under `crates/*/src` to
   `pub(crate)`, on the same line so line numbers hold.
2. Check every target of the workspace (libraries, binaries, examples,
   benches, integration tests) and of the `simbench` package. Each
   privacy error (E0603, E0624, E0364/E0365, a private type in a public
   signature, ...) names the definition it needed; put `pub` back on it.
   Repeat until both builds are clean. `--keep-going` lets every crate
   whose dependencies compiled report in the same round.
3. Check the shipped targets only (no unit tests) and report each
   `dead_code` warning as `file:line item`.

Two cases are exempt:

* `is_empty` next to a `len` that stays public: clippy's
  `len_without_is_empty` (CI runs clippy with `-D warnings`) requires
  the pair.
* the `fbd-bench` library: its benches glob-import it, so a demoted
  item there vanishes from the glob instead of failing with an error
  that names it.

Run from anywhere: `python3 ci/dead_pub.py`. Exit status 0 means no
site was found, 1 means at least one was (each is printed on stdout),
2 means the scan itself failed. The copy builds into its own target
directory, so every run starts cold (about 40 s on two cores).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Items the scan demotes: the leading `pub ` of these declarations.
DEMOTE = re.compile(r"^(\s*)pub (?=(?:const |unsafe )*(?:fn|const|static|struct|enum|type)\b)")
REEXPORT = re.compile(r"^(\s*)pub use ([a-z_][a-z0-9_]*)::.*\n")
NAME = re.compile(r"\b(?:const\s+fn|fn|const|static|struct|enum|type)\s+([A-Za-z_][A-Za-z0-9_]*)")
EXEMPT_CRATES = {"crates/bench"}
# Warnings in the defining crate that a demoted type appears in a public
# signature. A caller elsewhere then fails with "type `X` is private",
# which names no definition, so these warnings restore the type.
INTERFACE_LINTS = {"private_interfaces", "private_bounds"}
SKIP_DIRS = {".git", "target", ".bench_build"}


def copy_tree(dst):
    def ignore(directory, names):
        return [n for n in names if n in SKIP_DIRS]

    shutil.copytree(ROOT, dst, ignore=ignore, symlinks=True)


def demote(tree):
    """Demote items in `tree`.

    Returns {(relpath, line): name} for the demoted items and
    {(relpath, line): module relpath} for the glob re-exports.
    """
    demoted, globs = {}, {}
    crates = os.path.join(tree, "crates")
    for crate in sorted(os.listdir(crates)):
        if f"crates/{crate}" in EXEMPT_CRATES:
            continue
        src = os.path.join(crates, crate, "src")
        for dirpath, _, files in os.walk(src):
            for name in sorted(files):
                if not name.endswith(".rs"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, tree)
                with open(path) as f:
                    lines = f.readlines()
                for i, line in enumerate(lines):
                    if DEMOTE.match(line):
                        lines[i] = DEMOTE.sub(r"\1pub(crate) ", line, count=1)
                        demoted[(rel, i + 1)] = NAME.search(line).group(1)
                    elif (m := REEXPORT.match(line)) and os.path.exists(os.path.join(dirpath, m[2] + ".rs")):
                        # A named re-export of a demoted item from a
                        # module of this crate fails to compile; a glob
                        # re-export skips it, so a caller that goes
                        # through the re-export names the item.
                        end = i
                        while not lines[end].rstrip().endswith(";"):
                            end += 1
                        globs[(rel, i + 1)] = os.path.join(os.path.dirname(rel), m[2] + ".rs")
                        lines[i] = REEXPORT.sub(r"\1pub use \2::*;\n", line)
                        for j in range(i + 1, end + 1):
                            lines[j] = "\n"
                with open(path, "w") as f:
                    f.writelines(lines)
    return demoted, globs


def restore(tree, rel, line):
    path = os.path.join(tree, rel)
    with open(path) as f:
        lines = f.readlines()
    lines[line - 1] = lines[line - 1].replace("pub(crate) ", "pub ", 1)
    with open(path, "w") as f:
        f.writelines(lines)


def fail(reason, detail):
    sys.stderr.write(detail)
    sys.stderr.write(f"dead_pub: {reason}\n")
    sys.exit(2)


def cargo_check(tree, args, manifest_dir):
    """Run `cargo check`; return (compiler messages, exit code, stderr)."""
    cmd = ["cargo", "check", "--offline", "--keep-going", "--message-format=json"] + args
    proc = subprocess.run(cmd, cwd=os.path.join(tree, manifest_dir), capture_output=True, text=True)
    messages = []
    for raw in proc.stdout.splitlines():
        try:
            msg = json.loads(raw)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-message":
            messages.append((msg["message"], manifest_dir))
    return messages, proc.returncode, proc.stderr


def spans(message):
    """Every span of a diagnostic and of its notes."""
    out = list(message["spans"])
    for child in message["children"]:
        out.extend(child["spans"])
    return out


def span_file(tree, manifest_dir, span):
    name = span["file_name"]
    if not os.path.isabs(name):
        name = os.path.join(tree, manifest_dir, name)
    return os.path.relpath(os.path.normpath(name), tree)


def needed(tree, messages, demoted, globs):
    """Demoted definitions that the messages show are used elsewhere."""
    keep, unattributed = set(), []
    for message, manifest_dir in messages:
        code = (message["code"] or {}).get("code")
        if message["level"] != "error" and code not in INTERFACE_LINTS:
            continue
        hits = set()
        for span in spans(message):
            rel = span_file(tree, manifest_dir, span)
            line = span["line_start"]
            if (rel, line) in demoted:
                hits.add((rel, line))
            elif (rel, line) in globs:
                # Reached through a glob re-export: the diagnostic names
                # the item, the glob names its module.
                name = re.search(r"`([A-Za-z0-9_]+)`", message["message"]).group(1)
                hits |= {key for key, item in demoted.items() if key[0] == globs[(rel, line)] and item == name}
        if not hits and message["level"] == "error":
            unattributed.append(message)
        keep |= hits
    return keep, unattributed


def is_exempt(tree, rel, line, name, demoted):
    """`is_empty` whose impl block also has a `len` that stays public."""
    if name != "is_empty":
        return False
    with open(os.path.join(tree, rel)) as f:
        lines = f.readlines()
    start = line - 1
    while start > 0 and not lines[start].startswith("impl"):
        start -= 1
    end = line - 1
    while end < len(lines) and not lines[end].startswith("}"):
        end += 1
    for i in range(start, end):
        if re.match(r"\s*pub (const )?fn len\(", lines[i]) and (rel, i + 1) not in demoted:
            return True
    return False


def scan(tree):
    demoted, globs = demote(tree)
    rounds = 0
    while True:
        rounds += 1
        messages, code_ws, err_ws = cargo_check(tree, ["--workspace", "--all-targets", "--all-features"], ".")
        more, code_sb, err_sb = cargo_check(tree, ["--all-targets"], "simbench")
        messages += more
        keep, unattributed = needed(tree, messages, demoted, globs)
        sys.stderr.write(f"dead_pub: round {rounds}: {len(keep)} item(s) needed outside their crate\n")
        for rel, line in sorted(keep):
            restore(tree, rel, line)
            del demoted[(rel, line)]
        if keep:
            continue
        if unattributed or code_ws or code_sb:
            rendered = "".join(m.get("rendered") or m["message"] for m in unattributed)
            fail("a build error names no demoted item", rendered or err_ws + err_sb)
        break
    messages, code, err = cargo_check(
        tree, ["--workspace", "--lib", "--bins", "--examples", "--benches", "--all-features"], "."
    )
    if code:
        fail("the shipped targets do not build with the surviving demotions", err)
    sites = set()
    for message, manifest_dir in messages:
        if (message["code"] or {}).get("code") != "dead_code":
            continue
        for span in message["spans"]:
            if not span["is_primary"]:
                continue
            rel = span_file(tree, manifest_dir, span)
            line = span["line_start"]
            text = span["text"][0]["text"] if span["text"] else ""
            m = NAME.search(text)
            name = m.group(1) if m else text[span["text"][0]["highlight_start"] - 1 :].split(":")[0].strip()
            if is_exempt(tree, rel, line, name, demoted):
                continue
            sites.add((rel, line, name))
    return sorted(sites), rounds


def main():
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="dead_pub.") as tmp:
        tree = os.path.join(tmp, "repo")
        copy_tree(tree)
        sites, rounds = scan(tree)
    for rel, line, name in sites:
        print(f"{rel}:{line} {name}")
    wall = time.monotonic() - started
    sys.stderr.write(f"dead_pub: {len(sites)} site(s), {rounds} build round(s), {wall:.0f} s\n")
    if sites:
        sys.stderr.write(
            "dead_pub: each site above is public but has no caller outside its crate; "
            "delete it, or move a test-only helper under #[cfg(test)]\n"
        )
    return 1 if sites else 0


if __name__ == "__main__":
    sys.exit(main())
