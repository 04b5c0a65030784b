#!/usr/bin/env python3
"""Cluster benchmark of the CSM node runtime.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record FILE --seed N --seconds S

Run from the repository root.  Builds perfbench/trial.exe with dune,
then runs fresh trials of the workload (each a fixed number of rounds
on a new cluster, see bench_cluster.ml) until S seconds have passed.
Trial i uses cluster seed N*1000+i, so a seed fixes every input.

--trace 0 prints the end-to-end metrics, pooled over the trials:
  throughput_cmds_per_s  K x accepted timed rounds / their wall time
  commit_latency_p50_ms  Command broadcast -> (b+1)-th matching Output
  commit_latency_p90_ms  same distribution; a failed round is a miss
  cpu_us_per_cmd         user+sys of the trial and its node processes
  peak_rss_mb            VmHWM: the trial process (loopback) or the
                         largest node process (socket); median of trials
  setup_s                first endpoint/fork -> round 0 accepted;
                         interquartile mean over the full trials and the
                         one-round set-up samples run after each
Wall times are net of host steal (the kernel's steal counter for the
trial's CPUs, read around each trial; see available()), and the uncorrected
figures are printed alongside.  round_failure_ratio (rounds not accepted in time, or not byte-equal to
Cluster.reference_ledger, over rounds attempted) is printed and carried
by the result's "attempted"/"failed" counts.

--trace 1 alternates untraced and traced trials and prints the
per-layer split (medians over the traced trials) plus
bench.trace_overhead_ratio, the traced over the untraced throughput.

The last stdout line is one JSON object with "correct", "attempted",
"failed" and "metrics".  Exit status 0 only when every round of every
trial was accepted and byte-equal to the reference (and, traced, every
node's recv + send + self time identity held).

--record FILE runs every workload both ways and writes the metrics with
their units and sample counts, the workloads' parameters and reasons
(from BENCHMARK.json), the seed and host metadata to FILE.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "trial.exe")
TRIAL_TIMEOUT_S = 60
SETUP_SAMPLES = 3


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/trial.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=850,
            # the shared build cache lives outside the checkout
            env=dict(os.environ, DUNE_CACHE="disabled"))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def describe(workload):
    try:
        r = subprocess.run([EXE, "--workload", workload, "--describe"],
                           capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        fail("trial.exe --describe timed out")
    if r.returncode != 0:
        fail("unknown workload %r" % workload)
    return json.loads(r.stdout)


def steal_ticks(cpus):
    """The kernel's cumulative steal count (USER_HZ ticks) over `cpus`."""
    with open("/proc/stat") as f:
        rows = [l.split() for l in f if l[:3] == "cpu" and l[3].isdigit()]
    return sum(int(r[8]) for r in rows if int(r[0][3:]) in cpus)


def trial(workload, seed, traced, rounds=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    cpus = {min(os.sched_getaffinity(0))}
    steal0, start = steal_ticks(cpus), time.monotonic()
    # its own session, so a hung trial goes down with its node processes
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True,
                         preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        out, err = p.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("trial timed out: " + " ".join(cmd))
    wall = time.monotonic() - start
    steal = (steal_ticks(cpus) - steal0) / os.sysconf("SC_CLK_TCK")
    lines = out.strip().splitlines()
    if p.returncode == 2 or not lines:
        fail("trial produced no result: %s\n%s" % (" ".join(cmd), err))
    d = json.loads(lines[-1])
    d["ok"] = p.returncode == 0
    d["steal_share"] = min(0.9, max(0.0, steal / wall))
    return d


def run_trials(workload, seed, seconds, traced_too):
    """Trials until `seconds` pass: (untraced, traced, set-up samples).

    With traced_too every other trial is traced.  Otherwise each full
    trial is followed by SETUP_SAMPLES one-round trials, which give
    setup_s enough samples to be steady (a single cold set-up swings by
    several times on a shared host).

    Every trial is pinned to one core.  Loopback nodes are threads of
    one OCaml domain, so only one runs at a time anyway; pinning keeps
    the host from bouncing that domain's lock and wakeups between cores.
    Socket nodes are processes that pinning serializes, but a lock-step
    round spread over two vCPUs stalls whenever either is stolen: on a
    shared 2-vCPU VM their unpinned figures swung by 25-60% with host
    steal, where on one core steal adds up and available() corrects it.
    """
    untraced, traced, setups = [], [], []
    start = time.monotonic()
    i = 0
    while i < 2 or time.monotonic() - start < seconds:
        seed_i = seed * 1000 + i
        if traced_too and i % 2 == 1:
            traced.append(trial(workload, seed_i, True))
        else:
            untraced.append(trial(workload, seed_i, False))
            if not traced_too:
                setups += [trial(workload, seed_i * 10 + j, False, rounds=1)
                           for j in range(SETUP_SAMPLES)]
        i += 1
    return untraced, traced, setups


def rank_quantile(xs, q):
    """Nearest-rank quantile (the trial runner uses the same rule)."""
    s = sorted(xs)
    i = max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))
    return s[i]


def available(t):
    """Share of the trial's wall time its CPUs were not stolen."""
    return 1.0 - t["steal_share"]


def interquartile_mean(xs):
    """Mean of the middle half.  Set-up samples have two near-equal modes
    (on loop-n4 ~0.45 ms apart, by where round 0 meets the nodes' poll
    timers) and a long tail; a median flips between the modes from run
    to run, a mean follows the tail, the middle half's mean does neither.
    A trial whose round 0 was never accepted (None) counts as infinite."""
    s = sorted(math.inf if x is None else x for x in xs)
    mid = s[len(s) // 4: len(s) - len(s) // 4]
    return statistics.fmean(mid) if all(map(math.isfinite, mid)) else math.inf


def throughput(trials, steal=True):
    """Commands per second of the timed rounds.  With `steal`, the
    seconds the hypervisor gave the trial's CPUs to other guests are
    taken out of the denominator: on a shared host that steal swings by
    tens of percent within minutes, and it is not the program's time."""
    wall = sum(t["timed_s"] * (available(t) if steal else 1.0) for t in trials)
    return sum(t["k"] * t["timed_accepted"] for t in trials) / wall


def latencies(trials, steal=True):
    """Pooled commit latencies; a failed round is a miss (infinite).  With
    `steal`, each is scaled by its trial's unstolen share, which treats
    steal as spread evenly over the trial's wall time."""
    lat = []
    for t in trials:
        scale = available(t) if steal else 1.0
        lat += [x * scale for x in t["latency_ms"]]
        lat += [math.inf] * (t["rounds"] - 1 - len(t["latency_ms"]))
    return lat


def end_to_end(trials, setups):
    """{name: (value, samples)} pooled over the trials."""
    lat = latencies(trials)
    cmds = sum(t["k"] * (t["rounds"] - t["failed"]) for t in trials)
    return {
        "throughput_cmds_per_s": (throughput(trials), len(lat)),
        "commit_latency_p50_ms": (rank_quantile(lat, 0.5), len(lat)),
        "commit_latency_p90_ms": (rank_quantile(lat, 0.9), len(lat)),
        "cpu_us_per_cmd": (1e6 * sum(t["cpu_s"] for t in trials) / max(1, cmds),
                           len(trials)),
        "peak_rss_mb": (statistics.median(t["peak_rss_mb"] for t in trials),
                        len(trials)),
        "setup_s": (interquartile_mean(
            [t["setup_s"] for t in trials + setups]), len(trials) + len(setups)),
    }


def per_layer(untraced, traced):
    names = list(traced[0]["layers"])
    out = {n: (statistics.median(t["layers"][n] for t in traced), len(traced))
           for n in names}
    out["bench.trace_overhead_ratio"] = (
        throughput(traced) / throughput(untraced), len(traced))
    return out


def verdict(trials):
    attempted = sum(t["rounds"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    correct = all(t["ok"] and t["mismatched"] == 0
                  and not t["identity_violations"] for t in trials)
    return correct and failed == 0, attempted, failed


def spec():
    """BENCHMARK.json: the metric names and units this benchmark reports."""
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def rows_of(untraced, traced_trials, setups, traced):
    """(name, value, unit, samples) in BENCHMARK.json's order."""
    if traced:
        values, listed = per_layer(untraced, traced_trials), "per_layer"
    else:
        values, listed = end_to_end(untraced, setups), "end_to_end"
    metrics = spec()[listed]
    if sorted(m["name"] for m in metrics) != sorted(values):
        fail("measured metrics differ from BENCHMARK.json's %s" % listed)
    return [(m["name"], values[m["name"]][0], m["unit"], values[m["name"]][1])
            for m in metrics]


def measure(workload, seed, seconds, traced):
    untraced, traced_trials, setups = run_trials(workload, seed, seconds,
                                                 traced)
    trials = untraced + traced_trials + setups
    ok, attempted, failed = verdict(trials)
    rows = rows_of(untraced, traced_trials, setups, traced)
    return ok, attempted, failed, rows, trials


def finite(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record")
    a = ap.parse_args()
    if (a.workload is None) == (a.record is None):
        ap.error("give exactly one of --workload and --record")
    build()
    if a.record:
        record(a.record, a.seed, a.seconds)
        return
    ok, attempted, failed, rows, trials = measure(
        a.workload, a.seed, a.seconds, a.trace == 1)
    print("workload %s: %d trials, %d rounds, round_failure_ratio %.6g"
          % (a.workload, len(trials), attempted, failed / attempted))
    full = [t for t in trials if t["rounds"] > 1 and t["layers"] is None]
    raw = latencies(full, steal=False)
    print("  host steal %.3g of trial wall; uncorrected: throughput %.6g 1/s,"
          " latency p50 %.6g ms, p90 %.6g ms"
          % (1.0 - sum(t["timed_s"] * available(t) for t in full)
             / sum(t["timed_s"] for t in full),
             throughput(full, steal=False), rank_quantile(raw, 0.5),
             rank_quantile(raw, 0.9)))
    for name, v, unit, count in rows:
        print("  %-40s %14.6g %-6s (n=%d)" % (name, v, unit, count))
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": finite(v), "unit": u} for n, v, u, _ in rows},
    }))
    sys.exit(0 if ok else 1)


def record(path, seed, seconds):
    doc = {"schema": "csm-perfbench-record/1", "seed": seed,
           "seconds_per_run": seconds,
           "host": {"nproc": os.cpu_count()}, "workloads": []}
    all_ok = True
    for w in spec()["workloads"]:
        params = describe(w["name"])
        doc["host"]["ocaml"] = params.pop("ocaml")
        doc["host"]["word_size"] = params.pop("word_size")
        entry = {"name": w["name"], "why": w["why"], "params": params,
                 "trials": {}}
        attempted = failed = 0
        for traced in (False, True):
            untraced, traced_trials, setups = run_trials(
                w["name"], seed, seconds, traced)
            ok, a, f = verdict(untraced + traced_trials + setups)
            all_ok &= ok
            attempted += a
            failed += f
            entry["traced" if traced else "end_to_end"] = {
                n: {"value": finite(v), "unit": u, "samples": c}
                for n, v, u, c in rows_of(untraced, traced_trials, setups,
                                          traced)}
            if traced:
                entry["trials"]["traced"] = len(traced_trials)
                entry["trials"]["untraced_alongside"] = len(untraced)
            else:
                entry["trials"]["untraced"] = len(untraced)
                entry["trials"]["setup_samples"] = len(setups)
        entry["round_failure_ratio"] = failed / attempted
        doc["workloads"].append(entry)
        print("recorded %s" % w["name"], file=sys.stderr)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
