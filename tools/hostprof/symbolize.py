#!/usr/bin/env python3
"""Turns a pcsample profile into per-function sample tables.

    python3 tools/hostprof/symbolize.py PROFILE [--top N]

PROFILE is what pcsample.so writes (see README.md). Each sampled PC is
mapped to its module and module-relative address, then resolved with
`addr2line -f -C -i`, which reports the chain of functions inlined at that
address. After the samples per module, two tables are printed:

  self      the innermost function at the PC (after inlining), i.e. the
            source-level function whose code was running;
  symbol    the outermost function of the chain, i.e. the symbol that
            holds the machine code (what a non-inlining profiler shows).

In a module without a symbol table (.symtab), addr2line can only name the
nearest preceding exported (dynamic) symbol; such names are marked
"(nearest export)" and can be wrong, since the running function may be a
static one.
"""
import argparse
import collections
import subprocess
import sys

HEX = set("0123456789abcdef")


def parse(path):
    maps, pcs = [], []
    header = ""
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header = line.strip()
            elif line.startswith("M "):
                _, start, end, offset, module = line.rstrip("\n").split(" ", 4)
                maps.append((int(start, 16), int(end, 16), int(offset, 16), module))
            elif line.startswith("P "):
                _, pc, count = line.split()
                pcs.append((int(pc, 16), int(count)))
    return header, maps, pcs


def module_of(maps, pc):
    """(module, address addr2line understands): the file offset, which is
    the link-time address of the text segment for the position-independent
    executables and shared objects GNU ld produces here."""
    for start, end, offset, module in maps:
        if start <= pc < end:
            return module, pc - start + offset
    return "[unknown]", pc


def has_symtab(module):
    """True when the module carries a full symbol table (.symtab)."""
    out = subprocess.run(["readelf", "-S", "-W", module], capture_output=True, text=True,
                         check=False).stdout
    return ".symtab" in out


def resolve(module, addrs):
    """addr -> list of function names, innermost first."""
    chains = {}
    if not module.startswith("/"):
        return {a: [module] for a in addrs}
    out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", module],
                         input="\n".join(hex(a) for a in addrs), capture_output=True,
                         text=True, check=False).stdout.splitlines()
    cur, expect_fn = None, True
    for line in out:
        # -a prints each address on its own line, then (function, file:line)
        # pairs for the inline chain, innermost first.
        if line.startswith("0x") and all(c in HEX for c in line[2:]):
            cur, expect_fn = int(line, 16), True
            chains[cur] = []
        elif cur is not None:
            if expect_fn:
                chains[cur].append(line)
            expect_fn = not expect_fn
    # Without .symtab, addr2line falls back to the dynamic symbols and names
    # the nearest preceding export, which may not be the running function.
    suffix = "" if has_symtab(module) else " (nearest export)"
    for a in addrs:
        chain = [f + suffix for f in chains.get(a, []) if f != "??"]
        chains[a] = chain or ["??"]
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=40)
    args = ap.parse_args()

    header, maps, pcs = parse(args.profile)
    total = sum(c for _, c in pcs)
    if total == 0:
        print(f"{header}\nno samples")
        return 1
    by_module = collections.defaultdict(list)
    for pc, count in pcs:
        module, addr = module_of(maps, pc)
        by_module[module].append((addr, count))

    self_t = collections.Counter()
    symbol_t = collections.Counter()
    module_t = collections.Counter()
    for module, entries in by_module.items():
        chains = resolve(module, sorted({a for a, _ in entries}))
        short = module.rsplit("/", 1)[-1]
        for addr, count in entries:
            chain = chains[addr]
            self_t[f"{chain[0]}  [{short}]"] += count
            symbol_t[f"{chain[-1]}  [{short}]"] += count
            module_t[short] += count

    print(header)
    for title, table in (("modules", module_t), ("self (innermost inlined function)", self_t),
                         ("symbol (outermost function)", symbol_t)):
        print(f"\n== {title}: {total} samples")
        for name, count in table.most_common(args.top):
            print(f"{100.0 * count / total:6.2f}%  {count:8d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
