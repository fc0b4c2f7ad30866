#!/usr/bin/env python3
"""The galssim benchmark: host time of galsbench sweeps, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a galssim checkout. It builds the simulator and
the galsperf driver from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then:

  1. runs the workload's galsbench command once, untimed, as the
     reference for the records, and checks it against the digest pinned
     in perfbench/reference_digests.json for the default and held-out
     seeds;
  2. --trace 0: repeats passes of the same command for S seconds,
     galsbench passes (whole-process wall time and memory) alternating
     with galsperf sweep passes (set-up time and per-run times), checks
     every pass's records byte for byte against the reference, and
     reports the end-to-end metrics over the passes;
     --trace 1: runs untraced galsperf passes for about S seconds
     (tracing overhead), one pass at two jobs (runner scheduling), then
     one traced pass, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Workloads, metrics and how to read them
are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every workload is one galsbench sweep command; --seed N is appended.
WORKLOADS = {
    "paper_grid": ["--scenario", "fig05", "--insts", "25000",
                   "--jobs", "1", "--format", "json"],
    "warm_sweep": ["--scenario", "dvfs-explorer", "--bench", "gcc",
                   "--insts", "220000", "--warmup-insts", "200000",
                   "--jobs", "1", "--format", "json"],
    "fabric_mesh": ["--scenario", "fabric_topo", "--insts", "10000",
                    "--jobs", "1", "--format", "json"],
}

# Every run of the benchmark must end within this many seconds of its
# start, or of the end of a build that took longer than a few seconds.
RUN_LIMIT_S = 170.0
# Pooled per-run samples needed so the p90 has ten beyond it.
MIN_SAMPLES = 100
# Whole-process galsbench passes needed for their median.
MIN_BENCH_PASSES = 8
MIN_ROUNDS = 3
# Job count of the runner-scheduling pass of a traced run.
RUNNER_JOBS = 2


class BenchError(Exception):
    """A failure that voids the run: no result line is printed."""


def log(msg):
    print(msg, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def child_env():
    # GALSSIM_* knobs would change the sweep under both binaries alike,
    # but the workload is defined by its command line alone.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("GALSSIM_")}


def build(bdir):
    """Configure once, then build galsbench and galsperf incrementally."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no galssim sources at %s (CMakeLists.txt, src/)"
                         % ROOT)
    cdir = os.path.join(bdir, "perfbench-cmake")
    os.makedirs(cdir, exist_ok=True)
    logpath = os.path.join(bdir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", cdir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", cdir, "--target", "galsbench",
              "galsperf", "-j", jobs]]
    with open(logpath, "w") as lf:
        for cmd in steps:
            if subprocess.call(cmd, stdout=lf, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                lf.flush()
                with open(logpath) as rf:
                    sys.stderr.write(rf.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(cdir, "galssim", "galsbench"),
            os.path.join(cdir, "galsperf"))


def git_commit():
    """HEAD of the checkout when it is a git work tree, else unknown.
    Reads .git directly so nothing outside the checkout is consulted."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        refpath = os.path.join(git, ref)
        if os.path.isfile(refpath):
            with open(refpath) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Child:
    """One subprocess with stdout in a file, optionally pinned to `cpus`.
    wait_all() reaps it and sets wall_ns and maxrss_kb."""

    def __init__(self, cmd, stdout_path, cpus=None):
        self.cmd = cmd
        # The child inherits the affinity; setting it on ourselves keeps
        # the fast spawn path (no preexec_fn), which set-up time includes.
        own = os.sched_getaffinity(0)
        with open(stdout_path, "wb") as out:
            if cpus:
                os.sched_setaffinity(0, cpus)
            try:
                self.spawn_ns = time.monotonic_ns()
                self.proc = subprocess.Popen(cmd, stdout=out,
                                             env=child_env(), cwd=ROOT)
            finally:
                os.sched_setaffinity(0, own)
        self.pidfd = os.pidfd_open(self.proc.pid)


def wait_all(children, deadline):
    """Reap every child the moment it exits. On a non-zero exit or when
    the run's time limit passes, kill and reap the rest and raise."""
    pending = {c.pidfd: c for c in children}
    try:
        while pending:
            ready, _, _ = select.select(
                list(pending), [], [], max(0.0, deadline - time.monotonic()))
            end = time.monotonic_ns()
            if not ready:
                raise BenchError("timed out: " + " ".join(
                    next(iter(pending.values())).cmd))
            for fd in ready:
                c = pending.pop(fd)
                os.close(fd)
                _, status, ru = os.wait4(c.proc.pid, 0)
                c.proc.returncode = os.waitstatus_to_exitcode(status)
                c.wall_ns = end - c.spawn_ns
                c.maxrss_kb = ru.ru_maxrss
                if c.proc.returncode != 0:
                    raise BenchError("exit %d: %s" % (c.proc.returncode,
                                                      " ".join(c.cmd)))
    finally:
        for fd, c in pending.items():
            c.proc.kill()
            os.wait4(c.proc.pid, 0)
            os.close(fd)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def pinned_digest(name, seed):
    """SHA-256 of the reference records pinned for (workload, seed), or
    None when the seed has none pinned."""
    with open(os.path.join(HERE, "reference_digests.json")) as f:
        return json.load(f).get(name, {}).get(str(seed))


class Workload:
    def __init__(self, name, seed, work, galsbench, galsperf):
        self.name = name
        self.seed = seed
        self.args = WORKLOADS[name] + ["--seed", str(seed)]
        self.work = work
        self.galsbench = galsbench
        self.galsperf = galsperf
        self.jobs = int(self.args[self.args.index("--jobs") + 1])

    def reference(self, deadline):
        stdout = os.path.join(self.work, "ref.out")
        wait_all([Child([self.galsbench] + self.args, stdout)], deadline)
        self.ref = read(stdout)
        records = [json.loads(line) for line in self.ref.splitlines()]
        self.runs = len(records)
        self.committed = sum(r["committed"] for r in records)
        digest = hashlib.sha256(self.ref).hexdigest()
        pinned = pinned_digest(self.name, self.seed)
        # A model change that alters the records changes galsbench and
        # galsperf alike; only the pinned digest notices it.
        self.pinned_ok = pinned in (None, digest)
        log("reference: galsbench %s (%d runs, sha256 %s, %s)"
            % (" ".join(self.args), self.runs, digest,
               "no digest pinned for this seed" if pinned is None else
               "matches the pinned digest" if self.pinned_ok else
               "DIFFERS from the pinned digest " + pinned))

    def lanes(self, r, jobs=None):
        """CPU sets of round r: as many disjoint sets of `jobs` CPUs
        (the workload's job count) as the CPUs allow, rotated from round
        to round."""
        jobs = jobs or self.jobs
        avail = sorted(os.sched_getaffinity(0))
        return [{avail[(r + lane * jobs + j) % len(avail)]
                 for j in range(jobs)}
                for lane in range(max(1, len(avail) // jobs))]

    def start(self, kind, tag, cpus):
        """Start one pass (one process) on `cpus`: `bench` is galsbench
        itself, `sweep` and `trace` are galsperf passes, `runner` a
        galsperf sweep pass at RUNNER_JOBS jobs."""
        out = os.path.join(self.work, tag + ".out")
        if kind == "bench":
            c = Child([self.galsbench] + self.args, out, cpus)
        else:
            args = list(self.args)
            if kind == "runner":
                args[args.index("--jobs") + 1] = str(RUNNER_JOBS)
            c = Child([self.galsperf, "trace" if kind == "trace" else "sweep"]
                      + args + ["--timing", os.path.join(
                          self.work, tag + ".timing.json")], out, cpus)
        c.kind = kind
        c.tag = tag
        return c

    def finish(self, c):
        """Measurements of a reaped pass, its records checked against
        the reference. `usable` passes (records equal to the reference,
        every run at its budget) are the only ones whose times count;
        `failed` also counts every run when the reference itself differs
        from its pinned digest."""
        out = read(os.path.join(self.work, c.tag + ".out"))
        p = {"kind": c.kind, "wall_s": c.wall_ns / 1e9,
             "maxrss_mb": c.maxrss_kb / 1024.0, "bytes": len(out),
             "attempted": self.runs}
        bad = 0 if out == self.ref else self.runs
        if c.kind != "bench":
            with open(os.path.join(self.work, c.tag + ".timing.json")) as f:
                t = p["timing"] = json.load(f)
            if "runs" in t:
                runs = t["runs"]
                # committed != budget
                bad = max(bad, sum(1 for r in runs if r[3] != r[4]))
                p["cycles"] = sum(r[5] for r in runs)
                p["setup_s"] = (t["setup_end_ns"] - c.spawn_ns) / 1e9
        p["usable"] = bad == 0
        p["failed"] = bad if self.pinned_ok else self.runs
        return p

    def run_round(self, kinds, first, lanes, deadline, rnd=0):
        """Round rnd: a pass of kinds[i] on lane i at once, numbered
        from first."""
        children = [self.start(kind, "%s%d" % (kind, first + i), cpus)
                    for i, (kind, cpus) in enumerate(zip(kinds, lanes))]
        wait_all(children, deadline)
        passes = [self.finish(c) for c in children]
        for p, cpus in zip(passes, lanes):
            p["round"], p["cpus"] = rnd, sorted(cpus)
        return passes


def percentile(values, q):
    """Linear-interpolated q-quantile (0..1) of values."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def timed_passes(wl, seconds, deadline, kinds=("bench", "sweep"),
                 min_rounds=None, reserve=0.0):
    """Rounds of untraced passes, one per lane, for about `seconds`,
    leaving `reserve` round times for later work. Lanes rotate over the
    CPUs one step a round and the kinds alternate over the lanes (and
    over the rounds when the lane count is odd), so every CPU runs each
    kind in turn. By default enough rounds run to pool MIN_SAMPLES
    per-run samples and MIN_BENCH_PASSES galsbench passes; the run limit
    always wins."""
    passes = []
    begin = time.monotonic()
    r = 0
    while True:
        lanes = wl.lanes(r)
        odd = len(lanes) % 2
        round_kinds = [kinds[(i + r * odd) % len(kinds)]
                       for i in range(len(lanes))]
        round_begin = time.monotonic()
        passes += wl.run_round(round_kinds, len(passes), lanes, deadline, r)
        r += 1
        est = time.monotonic() - round_begin
        if min_rounds:
            enough = r >= min_rounds
        else:
            sweeps = sum(1 for p in passes if p["kind"] == "sweep")
            benches = sum(1 for p in passes if p["kind"] == "bench")
            enough = (r >= MIN_ROUNDS and sweeps * wl.runs >= MIN_SAMPLES
                      and benches >= MIN_BENCH_PASSES)
        now = time.monotonic()
        if now + est * (1 + reserve) > deadline - 10:
            break
        if enough and now - begin + est * (1 + reserve) > seconds:
            break
    return passes


def slowdown_scale(sweeps):
    """Scale each galsperf pass by its slowdown.

    On a shared host, interference only ever slows a run down, and it
    comes and goes per CPU over seconds. A pass's slowdown is the sum of
    its run times over the sum of each run's fastest time in any pass
    (passes rotate over the CPUs)."""
    durations = [[r[1] - r[0] for r in p["timing"]["runs"]] for p in sweeps]
    fastest = [min(col) for col in zip(*durations)]
    for p, d in zip(sweeps, durations):
        p["slowdown"] = sum(d) / sum(fastest)


def end_to_end(wl, passes):
    """End-to-end metrics over the usable passes.

    Whole-process figures (wall, memory) come from the galsbench passes,
    set-up time and the per-run samples from the galsperf passes. Each
    per-run sample is divided by its pass's slowdown. galsbench reports
    no per-run times, so a galsbench pass is divided by the mean
    slowdown of the galsperf passes nearest to it in time on the same
    CPUs (the rounds just before and after it): a CPU's state lasts
    seconds, about the length of a pass."""
    sweeps = [p for p in passes if p["kind"] == "sweep" and p["usable"]]
    benches = [p for p in passes if p["kind"] == "bench" and p["usable"]]
    if not sweeps or not benches:
        raise BenchError("no galsbench or galsperf pass produced the "
                         "reference records")
    slowdown_scale(sweeps)
    samples = [(r[1] - r[0]) / p["slowdown"] / r[3]
               for p in sweeps for r in p["timing"]["runs"]]
    if len(samples) < MIN_SAMPLES or len(benches) < MIN_BENCH_PASSES:
        raise BenchError("only %d per-run samples and %d galsbench passes "
                         "(%d and %d needed)" % (len(samples), len(benches),
                                                 MIN_SAMPLES,
                                                 MIN_BENCH_PASSES))
    for b in benches:
        near = [p for p in sweeps if p["cpus"] == b["cpus"]] or sweeps
        gap = min(abs(p["round"] - b["round"]) for p in near)
        b["slowdown"] = statistics.mean(
            p["slowdown"] for p in near if abs(p["round"] - b["round"]) == gap)
    walls = [p["wall_s"] for p in benches]
    wall = statistics.median(p["wall_s"] / p["slowdown"] for p in benches)
    cycles = sweeps[0]["cycles"]
    m = {
        "sim_inst_per_s": wl.committed / wall / 1e6,
        "sweep_wall_s": wall,
        "setup_s": statistics.median(p["setup_s"] for p in sweeps),
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in benches),
        "run_ns_per_inst.p50": statistics.median(samples),
        "run_ns_per_inst.p90": percentile(samples, 0.90),
        "host_ns_per_sim_cycle": wall * 1e9 / cycles,
    }
    log("passes: %d galsbench + %d galsperf (%d + %d usable), "
        "per-run samples: %d"
        % (sum(p["kind"] == "bench" for p in passes),
           sum(p["kind"] == "sweep" for p in passes),
           len(benches), len(sweeps), len(samples)))
    log("galsbench walls (s): " + " ".join("%.3f" % w for w in walls))
    log("galsperf walls (s): " + " ".join("%.3f" % p["wall_s"]
                                           for p in sweeps))
    log("galsperf slowdowns: " + " ".join("%.3f" % p["slowdown"]
                                          for p in sweeps))
    log("galsbench slowdowns (nearest galsperf): " + " ".join(
        "%.3f" % p["slowdown"] for p in benches))
    log("raw medians: galsbench wall %.4f, galsperf wall %.4f; scaled "
        "galsperf wall %.4f"
        % (statistics.median(walls),
           statistics.median(p["wall_s"] for p in sweeps),
           statistics.median(p["wall_s"] / p["slowdown"] for p in sweeps)))
    return m


def runner_metrics(p):
    """Parallel efficiency and tail wait of a pass at several jobs."""
    t = p["timing"]
    runs = t["runs"]
    span = (max(r[1] for r in runs) - min(r[0] for r in runs)) / 1e9
    busy = sum(r[1] - r[0] for r in runs) / 1e9
    last = {}
    for r in runs:
        last[r[2]] = max(last.get(r[2], 0), r[1])
    return {"runner.parallel_efficiency": busy / (span * t["jobs"]),
            "runner.tail_wait_s":
                (max(last.values()) - min(last.values())) / 1e9}


def contract_metrics(kind):
    """The metric list of BENCHMARK.json (`end_to_end` or `per_layer`):
    names and units are defined there once."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def host_record(galsperf, load_at_start):
    out = subprocess.run([galsperf, "--version"], capture_output=True,
                         text=True, check=True, env=child_env()).stdout
    rec = json.loads(out)
    rec.update({"nproc": os.cpu_count(), "loadavg_1m": load_at_start,
                "git_commit": git_commit()})
    return rec


def traced_metrics(wl, seconds, deadline):
    """Untraced galsperf passes (tracing-overhead baseline), one pass at
    RUNNER_JOBS jobs (runner scheduling), then one traced pass."""
    passes = timed_passes(wl, seconds, deadline, kinds=("sweep",),
                          min_rounds=1, reserve=4.0)
    runner = wl.run_round(["runner"], 0, wl.lanes(0, RUNNER_JOBS)[:1],
                          deadline)[0]
    traced = wl.run_round(["trace"], 0, wl.lanes(0)[:1], deadline)[0]
    passes += [runner, traced]
    good = [p for p in passes[:-2] if p["usable"]]
    if not good or not runner["usable"] or not traced["usable"]:
        raise BenchError("traced, runner or untraced records differ from "
                         "the reference")
    metrics = dict(traced["timing"]["metrics"])
    metrics.update(runner_metrics(runner))
    metrics["runner.bytes_per_record"] = good[0]["bytes"] / wl.runs
    untraced_runs_s = statistics.median(
        (p["timing"]["runs_end_ns"] - p["timing"]["setup_end_ns"]) / 1e9
        for p in good)
    metrics["trace.overhead_s"] = (
        traced["timing"]["traced_runs_s"] - untraced_runs_s)
    log("traced runs: %.3f s, untraced runs: %.3f s"
        % (traced["timing"]["traced_runs_s"], untraced_runs_s))
    log("runner pass at %d jobs: efficiency %.4f, tail wait %.4f s"
        % (RUNNER_JOBS, metrics["runner.parallel_efficiency"],
           metrics["runner.tail_wait_s"]))
    log("replayed operations: "
        + json.dumps(traced["timing"]["replay_ops"], sort_keys=True))
    shares = {k: v for k, v in metrics.items() if k.endswith("share")}
    log("loop-time shares: " + " ".join(
        "%s=%.3f" % (k, shares[k]) for k in sorted(shares)))
    return passes, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    t0 = time.monotonic()
    load_at_start = os.getloadavg()[0]
    bdir = build_dir()
    galsbench, galsperf = build(bdir)
    # A cold build may take most of the first run's allowance; the
    # measurement still gets its full time after it.
    deadline = max(t0, time.monotonic() - 30.0) + RUN_LIMIT_S
    work = os.path.join(bdir, "perfbench-work", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    host = host_record(galsperf, load_at_start)
    log("host: " + json.dumps(host, sort_keys=True))
    log("workload: %s seed %d, %s" % (a.workload, a.seed,
                                      "traced" if a.trace else "untraced"))
    log("model: unvalidated (no reference figures); timings are host time")

    wl = Workload(a.workload, a.seed, work, galsbench, galsperf)
    wl.reference(deadline)

    if a.trace == 0:
        passes = timed_passes(wl, a.seconds, deadline)
        metrics = end_to_end(wl, passes)
    else:
        passes, metrics = traced_metrics(wl, a.seconds, deadline)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    log("failed_runs_frac: %.6f (%d of %d runs)"
        % (failed / attempted, failed, attempted))
    if a.trace:
        metrics["failed_runs_frac"] = failed / attempted

    contract = contract_metrics("per_layer" if a.trace else "end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in contract},
    }
    with open(os.path.join(bdir, "perfbench-results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": a.workload, "seed": a.seed,
                            "trace": a.trace, "host": host,
                            "result": result}, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
