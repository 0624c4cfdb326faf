"""Seeded PIR program generator with a known answer.

The program is made of pirgen-style modules (the shape of the Table-9
generator in `crates/apps/src/pirgen.rs`: persisted field updates,
optional transactions, calls to earlier functions, data-dependent
diamonds, one annotated wrapper per module), plus cross-module call
chains. Chain links may carry a planted persistency bug at a recorded
site. The pirgen-style part is clean by construction, so the expected
`deepmc check -strict` report is exactly the planted set.

Every module's text is a pure function of (seed, module index, module
version), so an edit that bumps one module's version has a known answer
too. The generator is plain Python on purpose: the inputs do not change
when the product's own generators do.
"""

import math
import random

APP = "bench"

# Planted bug kinds: the statement pattern written into a chain link and
# the warning it must produce (the class label as the report prints it).
BUG_CLASSES = {
    "unflushed": "Unflushed write",
    "unmodified": "Flush an unmodified object",
    "redundant": "Multiple flushes to a persistent object",
}
BUG_KINDS = sorted(BUG_CLASSES)
# Share of chain links (below the root) that carry a planted bug.
BUG_RATE = 0.15
# Calls per chain: the trace collector inlines calls up to depth 5, so
# the deepest link is still analysed from the chain's root.
DEPTH = 5


class Shape:
    """Program size: modules x pirgen functions, plus call chains."""

    def __init__(self, modules, funcs, chains):
        self.modules = modules
        self.funcs = funcs
        self.chains = chains

    def functions(self):
        return self.modules * (self.funcs + 1) + self.chains * (DEPTH + 1)


def rng(*parts):
    """A generator seeded by a tuple of ints, the same in every process."""
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = (acc * 0x100000001B3 ^ (p & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
    return random.Random(acc)


def module_file(i):
    return f"{APP}_m{i}.pir"


def _link_module(shape, seed, chain, k):
    """Module holding link `k` (0 = the chain's root) of `chain`."""
    r = rng(seed, 0xC4A1, chain)
    start = r.randrange(shape.modules)
    # A stride coprime with the module count visits `modules` distinct
    # modules before repeating, so every hop crosses a module boundary.
    stride = r.choice([s for s in range(1, shape.modules) if math.gcd(s, shape.modules) == 1])
    return (start + k * stride) % shape.modules


def _link_name(chain, k):
    return f"{APP}_chain{chain}_r" if k == 0 else f"{APP}_chain{chain}_l{k}"


class _Text:
    def __init__(self):
        self.lines = []

    def add(self, s):
        self.lines.append(s)
        return len(self.lines)  # 1-based line number of `s`


def _pirgen_fn(t, r, mod, fi):
    name = f"{APP}_m{mod}_f{fi}"
    t.add(f"fn {name}(%arg: i64) -> i64 {{")
    t.add("entry:")
    t.add("  %p = palloc rec")
    fields = ("a", "b", "c")
    for u in range(r.randrange(1, 4)):
        t.add(f"  store %p.{fields[u % 3]}, {u}")
        t.add(f"  persist %p.{fields[u % 3]}")
    if r.random() < 0.5:
        t.add("  tx_begin")
        t.add("  tx_add %p")
        t.add("  store %p.a, %arg")
        t.add("  store %p.b, 1")
        t.add("  tx_commit")
    if fi > 0 and r.random() < 0.6:
        t.add(f"  %c = call {APP}_m{mod}_f{r.randrange(fi)}({fi}) : i64")
    if r.random() < 0.6:
        t.add("  %g = gt %arg, 0")
        t.add("  br %g, then, else")
        t.add("then:")
        t.add("  store %p.c, 7")
        t.add("  persist %p.c")
        t.add("  jmp join")
        t.add("else:")
        t.add("  %v = load %p.c")
        t.add("  jmp join")
        t.add("join:")
    t.add("  %o = load %p.a")
    t.add("  ret %o")
    t.add("}")
    t.add("")


def _chain_link(t, r, shape, mod, chain, k, bug):
    """One chain link; returns the planted warning site or None."""
    name = _link_name(chain, k)
    t.add(f"fn {name}(%arg: i64) -> i64 {{")
    t.add("entry:")
    t.add("  %p = palloc rec")
    t.add(f"  store %p.a, {k}")
    t.add("  persist %p.a")
    site = None
    if bug == "unflushed":
        site = t.add("  store %p.b, 3")
    elif bug == "unmodified":
        site = t.add("  flush %p.c")
        t.add("  fence")
    elif bug == "redundant":
        t.add("  store %p.b, 3")
        t.add("  persist %p.b")
        site = t.add("  persist %p.b")
    # Each link also calls into its own module's pirgen code, so the
    # chain's traces carry real work from every module they cross.
    t.add(f"  %w = call {APP}_m{mod}_f{r.randrange(shape.funcs)}(%arg) : i64")
    if k < DEPTH:
        t.add(f"  %c = call {_link_name(chain, k + 1)}(%arg) : i64")
        t.add("  ret %c")
    else:
        t.add("  ret %w")
    t.add("}")
    t.add("")
    return site


def module(shape, seed, mod, version=0):
    """Render module `mod` at `version`. Returns (text, planted sites),
    a site being (file, line, class label, function, root)."""
    t = _Text()
    t.add(f"module {APP}_m{mod}")
    t.add(f'file "{APP}_m{mod}.c"')
    t.add("")
    t.add("struct rec {")
    for f in ("a", "b", "c"):
        t.add(f"  {f}: i64,")
    t.add("  arr: [i64; 8],")
    t.add("}")
    t.add("")
    r = rng(seed, mod, version)
    for fi in range(shape.funcs):
        _pirgen_fn(t, r, mod, fi)
    planted = []
    for chain in range(shape.chains):
        for k in range(DEPTH + 1):
            if _link_module(shape, seed, chain, k) != mod:
                continue
            b = rng(seed, 0xB06, chain, k, version)
            bug = b.choice(BUG_KINDS) if k > 0 and b.random() < BUG_RATE else None
            site = _chain_link(t, r, shape, mod, chain, k, bug)
            if site is not None:
                planted.append(
                    (f"{APP}_m{mod}.c", site, BUG_CLASSES[bug], _link_name(chain, k), _link_name(chain, 0))
                )
    t.add(f"extern fn {APP}_m{mod}_flush_hook(%p: i64) attrs(persist_wrapper)")
    return "\n".join(t.lines) + "\n", planted
