#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the release `deepmc` binary and
the probe binaries of this directory, generates the workload's inputs from
`--seed`, measures for `--seconds`, checks every verdict against the known
answer and prints, as the last line of stdout, one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` a
separate traced run times each layer's public entry points and reports the
per-layer ones (null when a probe's product API is gone). README.md in this
directory documents every workload and metric.
"""

import argparse
import array
import fcntl
import json
import os
import re
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

# check-cold / check-edit program: ~11.8k functions, ~7k analysis roots.
CHECK_SHAPE = gen.Shape(modules=32, funcs=360, chains=48)
# Program the static layers are traced on for the sweep/dynamic workloads.
REF_SHAPE = gen.Shape(modules=8, funcs=100, chains=8)
SWEEP_STEPS = 32
SWEEP_POLICIES = 3 + 2  # three fixed crash policies + the default two random ones
SETUP_REPS = 3
JOBS = "2"

WARNING = re.compile(
    r"^  WARNING \[[^\]]*\] (\S+):(\d+) in `([^`]+)` \((.*) under strict persistency, root `([^`]+)`\)"
)
CACHE_LINE = re.compile(r"cache: (\d+) hit\(s\), (\d+) miss\(es\)")
SWEEP_ROW = re.compile(
    r"^(\w+)\s+(\d+) images\s+(\d+) explored\s+(\d+) pruned.*?(\d+) bug-attr.*?(\d+) violations"
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
    SPEC = json.load(spec)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot run (build or set-up broke): exit non-zero."""


# --- build -----------------------------------------------------------------


def cargo_build(args, cwd):
    """Run `cargo build` and return {target name: executable} for every
    binary it produced; build diagnostics go to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--message-format=json-render-diagnostics"]
    p = subprocess.run(cmd + args, cwd=cwd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    bins = {}
    for line in p.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            bins[msg["target"]["name"]] = msg["executable"]
    return p.returncode, bins


def build():
    os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = os.path.abspath(os.environ["CARGO_TARGET_DIR"])
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        raise Failure("no Cargo.toml at the checkout root: nothing to build")
    rc, bins = cargo_build(["-p", "deepmc", "--bin", "deepmc"], ROOT)
    if rc != 0 or "deepmc" not in bins:
        raise Failure("cannot build the deepmc binary")
    # Each probe binary uses one layer's API; --keep-going builds the rest
    # when one of them no longer compiles.
    _, probes = cargo_build(
        ["--keep-going", "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")], ROOT
    )
    return bins["deepmc"], probes


# --- processes and files ---------------------------------------------------


def spread_dir(path):
    """Create `path` and mark it as a top of hierarchy for inode
    allocation (ext4 `chattr +T`), so each directory made inside it is
    placed in a block group of its own choosing rather than next to its
    parent, away from groups where builds or other tools recently freed
    inodes (see `release`). A no-op on filesystems without the flag."""
    os.makedirs(path, exist_ok=True)
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
        try:
            flags = array.array("l", [0])
            fcntl.ioctl(fd, 0x80086601, flags)  # FS_IOC_GETFLAGS
            flags[0] |= 0x00020000  # FS_TOPDIR_FL
            fcntl.ioctl(fd, 0x40086602, flags)  # FS_IOC_SETFLAGS
        finally:
            os.close(fd)
    except OSError:
        pass
    return path


def release(path):
    """Free the data of every file under `path` but keep the files.
    Deleting them would make later file creation slow and unsteady: ext4
    without a journal skips inodes freed in the last minutes when it
    allocates new ones, and a cold check creates thousands of files. An
    empty file costs one inode and one directory entry."""
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                os.truncate(os.path.join(dirpath, name), 0)
            except OSError:
                pass


class Proc:
    """One finished child process: exit code, wall time, peak RSS and
    captured output."""

    def __init__(self, cmd, cwd, env=None):
        out_path = os.path.join(cwd, ".stdout")
        err_path = os.path.join(cwd, ".stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            p = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=env)
            _, status, usage = os.wait4(p.pid, 0)
            self.wall = time.perf_counter() - start
        # The child is reaped; tell Popen so it never waits for it again.
        p.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.peak_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        with open(out_path) as f:
            self.stdout = f.read()
        with open(err_path) as f:
            self.stderr = f.read()

    def json_line(self):
        lines = self.stdout.strip().splitlines()
        if self.rc != 0 or not lines:
            log(f"probe failed (exit {self.rc}): {self.stderr.strip()[-500:]}")
            return None
        return json.loads(lines[-1])


def filesystem_of(path):
    """Filesystem type of the mount holding `path`, from mountinfo."""
    best, fstype = "", "unknown"
    path = os.path.realpath(path)
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, right = line.split(" - ", 1)
                mnt = left.split()[4]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                    best, fstype = mnt, right.split()[0]
    except OSError:
        pass
    return fstype


# --- the generated program -------------------------------------------------


class Program:
    """A generated program on disk with its known answer."""

    def __init__(self, shape, seed, directory):
        self.shape, self.seed, self.dir = shape, seed, directory
        self.versions = [0] * shape.modules
        self.planted = {}
        os.makedirs(directory, exist_ok=True)
        for m in range(shape.modules):
            self.write(m, 0)

    def write(self, mod, version):
        text, planted = gen.module(self.shape, self.seed, mod, version)
        with open(self.path(mod), "w") as f:
            f.write(text)
        self.versions[mod] = version
        self.planted[mod] = planted

    def path(self, mod):
        return os.path.join(self.dir, gen.module_file(mod))

    def files(self):
        return [self.path(m) for m in range(self.shape.modules)]

    def expected(self):
        return {site for sites in self.planted.values() for site in sites}


def report_verdict(proc, program):
    """A `deepmc check` run is correct when its warnings are exactly the
    planted set and it exits 1 (warnings) or 0 (none planted)."""
    got = set()
    for line in proc.stdout.splitlines():
        m = WARNING.match(line)
        if m:
            got.add((m[1], int(m[2]), m[4], m[3], m[5]))
    want = program.expected()
    ok = got == want and proc.rc == (1 if want else 0)
    if not ok:
        log(f"wrong check verdict: exit {proc.rc}, {len(want - got)} missing, {len(got - want)} unexpected")
    return ok


def check_cmd(deepmc, program, jobs=JOBS, verbose=False):
    return [deepmc, "check", "-strict", "--jobs", jobs] + (["--verbose"] if verbose else []) + program.files()


# --- results ---------------------------------------------------------------


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}

    def verdict(self, ok):
        self.attempted += 1
        self.failed += not ok

    def emit(self, units):
        metrics = {}
        for name, unit in units.items():
            v = self.metrics.get(name)
            metrics[name] = {"value": v if v is None else float(v), "unit": unit}
        print(json.dumps({
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))


def timed_setup(res, make, reps=SETUP_REPS):
    """Run set-up `make` `reps` times; setup_s is the median time."""
    times, out = [], None
    for i in range(reps):
        start = time.perf_counter()
        out = make(i)
        times.append(time.perf_counter() - start)
    res.metrics["setup_s"] = statistics.median(times)
    log(f"setup times: {[round(t, 3) for t in times]}")
    return out


def until(seconds, at_least=3):
    """Yield unit indices until `seconds` have passed (and at least
    `at_least` units ran)."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k < at_least or time.perf_counter() < deadline:
        yield k
        k += 1


# --- workloads (end to end) ------------------------------------------------


def cold_program(res, run_dir, seed):
    return timed_setup(res, lambda i: Program(CHECK_SHAPE, seed, os.path.join(run_dir, f"inputs{i}")))


def warm_program(res, deepmc, run_dir, seed, reps=SETUP_REPS):
    """Generate the program and warm the default cache with one cold
    check, `reps` times; the last warm directory is measured."""
    units = spread_dir(os.path.join(run_dir, "warm"))

    def make(i):
        program = Program(CHECK_SHAPE, seed, os.path.join(run_dir, f"inputs{i}"))
        cwd = spread_dir(os.path.join(units, str(i)))
        res.verdict(report_verdict(Proc(check_cmd(deepmc, program), cwd), program))
        return program, cwd

    return timed_setup(res, make, reps)


def edit(program, seed, k):
    """Replace one module by a freshly seeded version (known answer);
    returns the module's index."""
    mod = gen.rng(seed, 0xED17, k).randrange(program.shape.modules)
    program.write(mod, program.versions[mod] + 1)
    return mod


def e2e_check_cold(deepmc, probes, run_dir, args, res):
    program = cold_program(res, run_dir, args.seed)
    units = spread_dir(os.path.join(run_dir, "units"))
    walls, peaks = [], []
    for k in until(args.seconds):
        proc = Proc(check_cmd(deepmc, program), spread_dir(os.path.join(units, str(k))))
        res.verdict(report_verdict(proc, program))
        walls.append(proc.wall)
        peaks.append(proc.peak_mb)
    finish_check(res, program, walls, peaks)


def e2e_check_edit(deepmc, probes, run_dir, args, res):
    program, cwd = warm_program(res, deepmc, run_dir, args.seed)
    walls, peaks = [], []
    for k in until(args.seconds):
        edit(program, args.seed, k)
        proc = Proc(check_cmd(deepmc, program), cwd)
        res.verdict(report_verdict(proc, program))
        walls.append(proc.wall)
        peaks.append(proc.peak_mb)
    finish_check(res, program, walls, peaks)


def finish_check(res, program, walls, peaks):
    log(f"unit walls: {[round(w, 3) for w in walls]}")
    res.metrics["wall_s"] = statistics.median(walls)
    res.metrics["items_per_s"] = program.shape.functions() / statistics.median(walls)
    res.metrics["peak_rss_mb"] = statistics.median(peaks)


def crashsweep(deepmc, seed, steps, jobs, cwd):
    return Proc([deepmc, "crashsweep", "--app", "all", "--steps", str(steps), "--seed", str(seed),
                 "--prune", "--oracle", "--inject-bug", "--jobs", jobs], cwd)


def sweep_rows(proc, steps):
    """Parse crashsweep's per-app rows and check its verdict: exit 0,
    every app caught its injected bug with no violation, and checked the
    expected number of crash states. Returns (ok, states, explored)."""
    rows = [SWEEP_ROW.match(line) for line in proc.stdout.splitlines()]
    rows = [m for m in rows if m]
    script_len = steps + (steps - 1) // 6  # a barrier after every six ops
    ok = proc.rc == 0 and len(rows) == 3
    for m in rows:
        ok &= int(m[2]) == script_len * SWEEP_POLICIES and int(m[5]) > 0 and int(m[6]) == 0
    if not ok:
        log(f"wrong crashsweep verdict (exit {proc.rc}):\n{proc.stdout[-800:]}")
    return ok, sum(int(m[2]) for m in rows), sum(int(m[3]) for m in rows)


def ds_ok(proc):
    ok = proc.rc == 0 and "ds corpus verdict: 17 cell(s), 0 mismatch(es)" in proc.stdout
    if not ok:
        log(f"wrong check --ds verdict (exit {proc.rc}):\n{proc.stdout[-800:]}")
    return ok


def e2e_sweep(deepmc, probes, run_dir, args, res):
    cwd = spread_dir(os.path.join(run_dir, "sweep"))
    # Set-up: a small sweep that loads the binary and its pages.
    timed_setup(res, lambda i: crashsweep(deepmc, args.seed, 4, JOBS, cwd))
    walls, peaks, rates = [], [], []
    for _ in until(args.seconds):
        sweep = crashsweep(deepmc, args.seed, SWEEP_STEPS, JOBS, cwd)
        ok, states, _ = sweep_rows(sweep, SWEEP_STEPS)
        ds = Proc([deepmc, "check", "--ds", "all", "--jobs", JOBS], cwd)
        res.verdict(ok and ds_ok(ds))
        walls.append(sweep.wall + ds.wall)
        peaks.append(max(sweep.peak_mb, ds.peak_mb))
        rates.append(states / sweep.wall)
        log(f"unit: crashsweep {sweep.wall:.3f} s, check --ds {ds.wall:.3f} s")
    res.metrics["wall_s"] = statistics.median(walls)
    res.metrics["items_per_s"] = statistics.median(rates)
    res.metrics["peak_rss_mb"] = statistics.median(peaks)


def e2e_dynamic(deepmc, probes, run_dir, args, res):
    if "dynamic" not in probes:
        raise Failure("the dynamic client binary did not build")
    proc = Proc([probes["dynamic"], "--seed", str(args.seed), "--seconds", str(args.seconds)], run_dir)
    out = proc.json_line()
    if out is None:
        raise Failure("the dynamic client failed")
    res.attempted += int(out["attempted"])
    res.failed += int(out["failed"])
    res.metrics.update(
        wall_s=out["wall_s"], items_per_s=out["ops_per_s"], setup_s=out["setup_s"], peak_rss_mb=proc.peak_mb
    )


# --- traced run (per layer) ------------------------------------------------


def probe(res, probes, name, args, cwd, env=None):
    """Run one probe binary. A probe that did not build (its product API
    is gone) returns None and its metrics report null; one that ran and
    failed is a wrong verdict."""
    if name not in probes:
        log(f"probe `{name}` did not build: its metrics are null")
        return None
    out = Proc([probes[name]] + args, cwd, env).json_line()
    res.verdict(out is not None and out.pop("failed", 0) == 0)
    return out


def same_report(cli_stdout, composed, incomplete):
    """The composed report must equal the CLI's. Coverage notes are
    rendered by the CLI only; they must appear exactly when the
    composition saw pruned paths or truncated traces (`incomplete`)."""
    cli = [line for line in cli_stdout.splitlines() if not line.startswith("  NOTE:")]
    notes = len(cli) != len(cli_stdout.splitlines())
    return cli == composed.splitlines() and notes == (incomplete > 0)


def trace_static(deepmc, probes, run_dir, args, res):
    """Static-checker layers, CLI remainder and pool speedup on the
    workload's own program (check-*) or the reference program."""
    m = res.metrics
    if args.workload == "check-edit":
        program, cwd = warm_program(res, deepmc, run_dir, args.seed, reps=1)
        edited = edit(program, args.seed, 0)
        cli_dirs = [cwd, cwd]
    else:
        shape = CHECK_SHAPE if args.workload == "check-cold" else REF_SHAPE
        program = Program(shape, args.seed, os.path.join(run_dir, "inputs"))
        cli_dirs = [spread_dir(os.path.join(run_dir, f"cold{j}")) for j in (1, 2)]
    composed_path = os.path.join(run_dir, "composed.txt")
    env = dict(os.environ, DEEPMC_JOBS="1")
    layers = probe(res, probes, "static_layers", ["--report", composed_path] + program.files(),
                   run_dir, env)
    j1 = Proc(check_cmd(deepmc, program, jobs="1", verbose=True), cli_dirs[0])
    res.verdict(report_verdict(j1, program))
    if args.workload == "check-edit":
        # The same module edited again, so both runs recompute alike.
        program.write(edited, program.versions[edited] + 1)
    j2 = Proc(check_cmd(deepmc, program, jobs=JOBS), cli_dirs[1])
    res.verdict(report_verdict(j2, program))
    if layers is not None:
        m.update({k: v for k, v in layers.items() if k in PER_LAYER})
        with open(composed_path) as f:
            res.verdict(same_report(j1.stdout, f.read(), layers["analysis.paths_pruned"] +
                                    layers["analysis.events_truncated"]))
        m["deepmc.cli_residual_s"] = j1.wall - layers["library_check_s"]
    cache = CACHE_LINE.search(j1.stderr)
    m["deepmc.cache_hits"] = int(cache[1]) if cache else None
    m["deepmc.cache_misses"] = int(cache[2]) if cache else None
    if args.workload.startswith("check"):
        m["pool.speedup_2"] = j1.wall / j2.wall


def trace_crash(deepmc, probes, run_dir, args, res):
    """Crash explorers: the CLI's own counts, and the pool speedup of
    crashsweep for the workloads whose program is not a check."""
    m = res.metrics
    cwd = spread_dir(os.path.join(run_dir, "sweep"))
    j2 = crashsweep(deepmc, args.seed, SWEEP_STEPS, JOBS, cwd)
    ok, states, explored = sweep_rows(j2, SWEEP_STEPS)
    res.verdict(ok)
    m["sweep.states"], m["sweep.explored"] = states, explored
    m["sweep.explored_share"] = explored / states if states else None
    if not args.workload.startswith("check"):
        j1 = crashsweep(deepmc, args.seed, SWEEP_STEPS, "1", cwd)
        res.verdict(sweep_rows(j1, SWEEP_STEPS)[0])
        m["pool.speedup_2"] = j1.wall / j2.wall
    out = probe(res, probes, "crash_layers", ["--seed", str(args.seed), "--steps", str(SWEEP_STEPS)], run_dir)
    m.update(out or {})


def trace_dynamic(deepmc, probes, run_dir, args, res):
    out = probe(res, probes, "dynamic", ["--seed", str(args.seed), "--trace"], run_dir)
    if out is not None:
        res.verdict(out["dyn.races"] == 0)
        res.metrics.update(out)


def traced(deepmc, probes, run_dir, args, res):
    res.metrics["host.nproc"] = os.cpu_count()
    for part in (trace_static, trace_crash, trace_dynamic):
        part(deepmc, probes, run_dir, args, res)


WORKLOADS = {
    "check-cold": e2e_check_cold,
    "check-edit": e2e_check_edit,
    "sweep": e2e_sweep,
    "dynamic": e2e_dynamic,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        deepmc, probes = build()
    except Failure as e:
        log(f"benchmark cannot run: {e}")
        return 1
    run_dir = spread_dir(os.path.join(spread_dir(WORK), f"{args.workload}-{time.time_ns()}"))
    print(f"# host: nproc={os.cpu_count()} fs={filesystem_of(run_dir)} profile=release jobs={JOBS}")
    res = Result()
    try:
        if args.trace:
            traced(deepmc, probes, run_dir, args, res)
        else:
            WORKLOADS[args.workload](deepmc, probes, run_dir, args, res)
    except Failure as e:
        log(f"benchmark cannot run: {e}")
        return 1
    finally:
        release(run_dir)
    res.emit(PER_LAYER if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
