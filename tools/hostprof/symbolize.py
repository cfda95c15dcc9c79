#!/usr/bin/env python3
"""Turns a pcsample or mallocsites profile into per-function sample tables.

    python3 tools/hostprof/symbolize.py PROFILE [--top N]

PROFILE is what pcsample.so or mallocsites.so writes (see README.md); the
header line says which. Each sampled PC is mapped to its module and
module-relative address, then resolved with `addr2line -f -C -i`, which
reports the chain of functions inlined at that address.

For a pcsample profile, after the samples per module, two tables are
printed:

  self      the innermost function at the PC (after inlining), i.e. the
            source-level function whose code was running;
  symbol    the outermost function of the chain, i.e. the symbol that
            holds the machine code (what a non-inlining profiler shows).

For a mallocsites profile, each sample is one call stack of a malloc; two
tables are printed:

  site      the first frame with code of the program's own (not the
            allocator, this sampler or inlined std:: code), as its inline
            chain innermost first, with the outermost library call it
            allocates through (a string copy, a vector growth);
  inclusive every own function anywhere on the sampled stacks, counted
            once per stack: the share of mallocs made under it.

Names are shown without parameter lists or template arguments.

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
    """(header, mappings, [(pc, count)], [(count, [pc, ...])])."""
    maps, pcs, stacks = [], [], []
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
            elif line.startswith("S "):
                _, count, *frames = line.split()
                stacks.append((int(count), [int(pc, 16) for pc in frames]))
    return header, maps, pcs, stacks


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


ALLOCATOR_MODULES = ("mallocsites.so", "libc.so", "libstdc++.so")
LIBRARY_PREFIXES = ("std::", "__gnu_cxx::", "operator new", "operator delete", "malloc",
                    "_M_", "__")
# addr2line names inlined frames by their unqualified DWARF name, so the
# standard containers' internals also show up bare.
LIBRARY_NAMES = {"allocate", "deallocate", "construct", "push_back", "emplace_back", "insert",
                 "emplace", "reserve", "resize", "basic_string", "operator[]", "_Construct",
                 "_Auto_node", "_Scoped_node", "any"}


def print_table(title, table, total, top):
    print(f"\n== {title}: {total} samples")
    for name, count in table.most_common(top):
        print(f"{100.0 * count / total:6.2f}%  {count:8d}  {name}")


def short_name(fn):
    """Drops parameter lists and template arguments from a demangled name:
    "void std::vector<int>::push_back(int const&)" -> "std::vector::push_back"."""
    fn = fn.replace("(anonymous namespace)", "{anon}").replace("operator()", "operator@")
    out, depth = [], 0
    for c in fn:
        if c in "(<":
            depth += 1
        elif c in ")>":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(c)
    words = "".join(out).replace("operator@", "operator()").split()
    # A leading return type ("void std::...", "tio::DataView& std::...") is
    # not part of the name.
    if len(words) > 1 and "::" in words[1] and ("::" not in words[0] or
                                                 words[0].endswith(("&", "*"))):
        words = words[1:]
    return " ".join(words)


def is_library(name):
    return name.startswith(LIBRARY_PREFIXES) or name in LIBRARY_NAMES


def report_sites(header, maps, stacks, top):
    """Tables for a mallocsites profile: allocating site and inclusive."""
    total = sum(c for c, _ in stacks)
    if total == 0:
        print(f"{header}\nno samples")
        return 1
    # Frames past the first are return addresses: step back into the call
    # instruction so the inline chain is the caller's, not the next line's.
    framed = []
    by_module = collections.defaultdict(set)
    for count, frames in stacks:
        resolved = []
        for i, pc in enumerate(frames):
            module, addr = module_of(maps, pc if i == 0 else pc - 1)
            by_module[module].add(addr)
            resolved.append((module, addr))
        framed.append((count, resolved))
    chains = {m: resolve(m, sorted(addrs)) for m, addrs in by_module.items()}

    site_t = collections.Counter()
    inclusive_t = collections.Counter()
    for count, resolved in framed:
        site, via = None, None
        seen = set()
        for module, addr in resolved:
            if module.rsplit("/", 1)[-1].startswith(ALLOCATOR_MODULES):
                continue
            names = [short_name(fn) for fn in chains[module][addr]]
            own = [n for n in names if not is_library(n)]
            if site is None:
                lib = [n for n in names if is_library(n)]
                if lib:
                    via = lib[-1]  # the outermost library call below the site
                if own:
                    site = " < ".join(own) + (f"  via {via}" if via else "")
            for name in own:
                if name not in seen:
                    seen.add(name)
                    inclusive_t[name] += count
        site_t[site or "(library code only)"] += count

    print(header)
    if " dropped=0" not in header:
        print("(samples were dropped: raise MALLOCSITES_EVERY for a whole-run table)")
    print_table("site (first own frame: its inline chain innermost first, and the library "
                "call it allocates through)", site_t, total, top)
    print_table("inclusive (every own function on the stack, once per stack)", inclusive_t,
                total, top)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=40)
    args = ap.parse_args()

    header, maps, pcs, stacks = parse(args.profile)
    if header.startswith("# mallocsites"):
        return report_sites(header, maps, stacks, args.top)
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
        print_table(title, table, total, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
