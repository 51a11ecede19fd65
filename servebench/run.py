#!/usr/bin/env python3
"""servebench: the repository benchmark.

Drives CollectiveRuntime::serve() from outside on three serving workloads
and prints every metric by name with its unit; the last line of stdout is
one JSON object (correct / attempted / failed / metrics).

  python3 servebench/run.py --workload optical_default --seed 1 \
      --seconds 30 --trace 0
  python3 servebench/run.py --selftest

--trace 0 reports the end-to-end metrics from untraced runs with the
default checks on (oracle, electrical replay audit).  --trace 1 reports the
per-layer metrics from a traced pass plus oracle-off and audit-off ablation
passes and replays of layer entry points.

Every run is a fixed list of episodes whose seeds derive from --seed, so the
modelled metrics repeat exactly per seed.  Each episode runs in its own
child process, one at a time: an abort inside the runtime fails that
episode's jobs (counted as failed and listed with the episode seed) and the
run goes on.  After the first pass the episodes are served again until
--seconds have passed; the repeats add host-time samples and must reproduce
each episode's digest bit for bit.

The episode program is built from the repository sources into
.bench_build/servebench on first use.

Which end-to-end metric each per-layer group should move, on which workload,
and the workload where it should not move (its no-change control):

  workload  host_s barely moves jobs_per_s anywhere: the negative control.
  runtime   turnaround_p999_s, deadline_hit_rate on optical_default and
            chaos_renegotiate; routing moves turnaround_p50_s on
            hybrid_shared only.
  faults    goodput, completed_fraction on chaos_renegotiate; zero on the
            other two.  No workload injects ToR faults, so
            faults.migrations stays 0: the migration path is unmeasured.
  wrht, coll, topo, optical
            jobs_per_s, mostly on optical_default (the oracle is ~60% of its
            serve time); smaller shares on chaos_renegotiate and
            hybrid_shared.
  elec      jobs_per_s and peak_rss_mb on hybrid_shared only;
            optical_default is the control.
  sim, obs  host cost per step and tracing overhead; all workloads.

completed_fraction is 1 - failed_fraction, where failed counts rejected,
killed, and aborted-episode jobs.  It stands in the JSON result for
failed_fraction, which is printed too but is 0 on the fault-free workloads.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
EPISODE = os.path.join(BUILD_DIR, "servebench_episode")

# Episode sizes.  Percentiles pool the samples of all episodes of a pass;
# p999 needs at least 10 samples beyond it, i.e. 10 000 completions, and the
# counts below leave room for aborted episodes.  `traced` episodes (a prefix
# of the list) carry the --trace 1 pass.
WORKLOADS = {
    "optical_default": {"jobs": 5000, "episodes": 16, "traced": 4},
    "hybrid_shared": {"jobs": 5000, "episodes": 16, "traced": 3},
    "chaos_renegotiate": {"jobs": 2000, "episodes": 160, "traced": 8},
}

CHILD_TIMEOUT_S = 30

# Host speed drifts by up to a third over minutes on a shared machine, and
# every core drifts together, so the medians of 30-second runs taken minutes
# apart disagree by more than any useful bound.  Each run-mode process
# therefore times episode.cpp's fixed calibration kernel, and jobs_per_s and
# setup_s are reported as if that kernel took REFERENCE_KERNEL_S (about what
# it takes on a 2.1 GHz Xeon vCPU): time t is reported as
# t * REFERENCE_KERNEL_S / kernel time.  This cut the spread of 30-second
# medians from about 12% to about 3%.
REFERENCE_KERNEL_S = 1e-3
MASK64 = (1 << 64) - 1


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def episode_seeds(run_seed, count):
    """Episode seeds: a splitmix64 chain from the run seed (32-bit values)."""
    seeds, state = [], run_seed & MASK64
    for _ in range(count):
        state = splitmix64(state)
        seeds.append(state & 0xFFFFFFFF)
    return seeds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the episode program; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--parallel", "4"]
    return (subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            .returncode == 0 and os.path.exists(EPISODE))


class HarnessError(Exception):
    """The benchmark itself broke (not an episode of the program)."""


def first_stderr_line(stderr):
    """The first stderr line, joined with its indented continuation (a
    WRHT_CHECK prints the site on one line and the message on the next)."""
    lines = [l for l in stderr.splitlines() if l.strip()]
    if not lines:
        return "(no stderr)"
    out = lines[0].strip()
    if len(lines) > 1 and lines[1].startswith((" ", "\t")):
        out += " " + lines[1].strip()
    return out


# Children rotate over the CPUs this process may use, one CPU each.  Cores
# of a shared host differ in speed (a busy sibling hyperthread can cost a
# third of the throughput) and the scheduler tends to keep a parent's
# children on one core; rotating gives every run the same mix of cores.
CPUS = sorted(os.sched_getaffinity(0))
children_started = 0


def next_cpu():
    global children_started
    children_started += 1
    return CPUS[children_started % len(CPUS)]


def run_episode(workload, seed, jobs, mode, cpu=None):
    """Serve one episode in a child process pinned to `cpu` (default: the
    next in rotation).  Returns a dict with `pre` (the counts printed before
    serving) and either `result` or `error`."""
    cpu = next_cpu() if cpu is None else cpu
    cmd = [EPISODE, f"--workload={workload}", f"--seed={seed}",
           f"--jobs={jobs}", f"--mode={mode}"]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        stderr, code = f"timed out after {CHILD_TIMEOUT_S} s", None
    lines = stdout.splitlines()
    try:
        pre = json.loads(lines[0]) if lines else None
    except json.JSONDecodeError:
        pre = None
    if not pre or not pre.get("pre"):
        raise HarnessError(f"episode {seed} ({mode}) printed no job counts: "
                           f"{first_stderr_line(stderr)}")
    out = {"seed": seed, "mode": mode, "pre": pre}
    if code == 0 and len(lines) >= 2:
        out["result"] = json.loads(lines[-1])
    else:
        out["error"] = f"exit {code}: {first_stderr_line(stderr)}"
    return out


def quantile(sorted_values, q):
    """Exact nearest-rank quantile (obs::exact_quantile) and the number of
    samples strictly beyond its rank."""
    n = len(sorted_values)
    if n == 0:
        return 0.0, 0
    rank = max(1, math.ceil(q * n))
    return sorted_values[rank - 1], n - rank


class Report:
    """Collects metrics (name -> value, unit, note) and correctness checks."""

    def __init__(self):
        self.metrics = {}
        self.notes = {}
        self.checks = []

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.notes[name] = note

    def percentile(self, name, values, q):
        ordered = sorted(values)
        value, beyond = quantile(ordered, q)
        self.metric(name, value, "s", f"n={len(ordered)}, {beyond} beyond")
        self.check(f"{name} has >= 10 samples beyond it "
                   f"(n={len(ordered)}, beyond={beyond})", beyond >= 10)

    def check(self, what, ok):
        self.checks.append((what, bool(ok)))

    @property
    def correct(self):
        return all(ok for _, ok in self.checks)

    def print(self, title):
        print(title)
        for name, m in self.metrics.items():
            note = f"  ({self.notes[name]})" if self.notes[name] else ""
            print(f"  {name:<30} {m['value']:>16.6g} {m['unit']:<6}{note}")
        for what, ok in self.checks:
            print(f"  check: {what}: {'ok' if ok else 'FAILED'}")


def summarize_ledger(report, outcomes):
    """Per-episode ledger and oracle checks; returns (attempted, failed)."""
    attempted = failed = 0
    served = open_ledgers = unproven = 0
    for o in outcomes:
        attempted += o["pre"]["submitted"]
        if "error" in o:
            failed += o["pre"]["submitted"]
            print(f"  episode {o['seed']} aborted ({o['pre']['submitted']} "
                  f"jobs failed): {o['error']}")
            continue
        r = o["result"]
        served += 1
        failed += r["rejected"] + r["killed"]
        if not (r["completed"] + r["rejected"] + r["killed"] == r["submitted"]
                == o["pre"]["submitted"]):
            open_ledgers += 1
            print(f"  episode {o['seed']} ledger open: {r['completed']} + "
                  f"{r['rejected']} + {r['killed']} != {r['submitted']}")
        if not r["all_oracle_ok"] or r["oracle_failures"]:
            unproven += 1
            print(f"  episode {o['seed']} has completions without oracle_ok")
    report.check(f"completed + rejected + killed == submitted in every "
                 f"served episode ({open_ledgers} of {served} open)",
                 open_ledgers == 0)
    report.check(f"every completed job has oracle_ok ({unproven} of {served} "
                 f"episodes not)", unproven == 0)
    return attempted, failed


def end_to_end(workload, seeds, jobs, seconds):
    report = Report()
    start = time.monotonic()
    first = [run_episode(workload, s, jobs, "run") for s in seeds]
    ok = [o for o in first if "result" in o]
    print(f"{workload}: {len(seeds)} episodes x {jobs} jobs, "
          f"{len(ok)} served, {len(seeds) - len(ok)} aborted")
    attempted, failed = summarize_ledger(report, first)
    for o in ok:
        print(f"  episode {o['seed']} digest {o['result']['digest']}")

    # Host-time samples: the first pass, then repeats until time is up.
    results = [o["result"] for o in ok]
    digests = {o["seed"]: o["result"]["digest"] for o in ok}
    repeats = drift = 0
    while ok and time.monotonic() - start < seconds:
        o = ok[repeats % len(ok)]
        again = run_episode(workload, o["seed"], jobs, "run")
        repeats += 1
        if "result" not in again or again["result"]["digest"] != digests[o["seed"]]:
            drift += 1
            continue
        results.append(again["result"])
    report.check(f"{repeats} repeated episodes reproduce their digests "
                 f"({drift} drifted)", drift == 0)
    report.check("at least one episode served", bool(ok))

    # Host times are scaled to the reference machine speed (see
    # REFERENCE_KERNEL_S); the raw medians are printed beside them.
    speed = [r["calibration_s"] / REFERENCE_KERNEL_S for r in results]
    jps = [r["completed"] / r["serve_s"] for r in results]
    setup = [statistics.median(r["setup_s"]) for r in results]
    rss = [r["rss_kb"] / 1024 for r in results]
    med = lambda v: statistics.median(v) if v else 0.0
    report.metric("jobs_per_s", med([j * f for j, f in zip(jps, speed)]),
                  "1/s", f"median of {len(jps)} episode serves at reference "
                  f"speed; raw {med(jps):.6g}")
    report.metric("setup_s", med([t / f for t, f in zip(setup, speed)]), "s",
                  f"median of {len(setup)} per-process medians at reference "
                  f"speed; raw {med(setup):.6g}")
    report.metric("peak_rss_mb", med(rss),
                  "MB", f"median VmHWM of {len(rss)} episode processes")

    modelled = [o["result"] for o in ok]
    makespans = [r["makespan_s"] for r in modelled]
    report.metric("sim_makespan_s",
                  statistics.median(makespans) if makespans else 0.0, "s",
                  f"median of {len(makespans)} episodes")
    turnaround = [t for r in modelled for t in r["turnaround_s"]]
    service = [t for r in modelled for t in r["service_s"]]
    report.percentile("turnaround_p50_s", turnaround, 0.5)
    report.percentile("turnaround_p999_s", turnaround, 0.999)
    report.percentile("service_p50_s", service, 0.5)
    deadline_jobs = sum(o["pre"]["deadline_jobs"] for o in first)
    hits = sum(r["deadline_hits"] for r in modelled)
    report.metric("deadline_hit_rate",
                  hits / deadline_jobs if deadline_jobs else 1.0, "ratio",
                  f"{hits} of {deadline_jobs} deadline jobs; failed = miss")
    step_time = sum(r["step_time_s"] for r in modelled)
    wasted = sum(r["wasted_step_s"] for r in modelled)
    report.metric("goodput", 1.0 - wasted / step_time if step_time else 1.0,
                  "ratio", "1 - wasted step time / step time")
    report.metric("completed_fraction",
                  (attempted - failed) / attempted if attempted else 0.0,
                  "ratio", f"{attempted - failed} of {attempted} submitted")
    # failed_fraction is 0 on the fault-free workloads, so it is printed but
    # not an end-to-end metric of the JSON result (completed_fraction is).
    print(f"  failed_fraction = {failed / attempted if attempted else 0.0:.6g} "
          f"ratio ({failed} of {attempted}: rejected + killed + jobs of "
          f"aborted episodes)")
    aborted = [o["seed"] for o in first if "error" in o]
    print(f"  aborted episode seeds: {aborted if aborted else 'none'}")
    return report, attempted, failed


def per_layer(workload, seeds, jobs, seconds):
    """Traced pass, ablations, and replays over the first traced episodes."""
    report = Report()
    modes = ("run", "traced", "no_oracle", "no_audit")
    start = time.monotonic()
    rounds, aborted, mode_errors, first_runs = [], [], [], []
    live = list(seeds)
    while live and (not rounds or time.monotonic() - start < seconds):
        this_round = {}
        for seed in live:
            outs = {}
            # All modes of an episode share a core, so the ablation deltas
            # compare like with like.
            cpu = next_cpu()
            for mode in modes:
                o = run_episode(workload, seed, jobs, mode, cpu)
                if not rounds and mode == "run":
                    first_runs.append(o)
                if "error" in o:
                    break
                outs[mode] = o["result"]
            if len(outs) == len(modes):
                this_round[seed] = outs
            elif not rounds and not outs:
                aborted.append(seed)  # the oracle-on run died: excluded
            else:
                mode_errors.append((seed, o["mode"], o["error"]))
        if not rounds:
            live = list(this_round)
        rounds.append(this_round)
    print(f"{workload}: traced {len(seeds)} episodes x {jobs} jobs, "
          f"{len(rounds)} rounds, {len(aborted)} aborted")
    for seed, mode, error in mode_errors:
        print(f"  episode {seed} failed in mode {mode}: {error}")
    attempted, failed = summarize_ledger(report, first_runs)
    report.check(f"every mode and round serves the episodes that passed "
                 f"with the oracle on ({len(mode_errors)} failed)",
                 not mode_errors)

    drift = [(s, m) for r in rounds for s, outs in r.items() for m in modes
             if outs[m]["digest"] != rounds[0][s]["run"]["digest"]]
    report.check("traced and ablation passes reproduce the untraced digest "
                 f"({len(drift)} drifted)", not drift)
    report.check("at least one episode passed with the oracle on", bool(live))
    for s in live:
        print(f"  episode {s} digest {rounds[0][s]['run']['digest']}")

    t = [rounds[0][s]["traced"] for s in live]
    run = [rounds[0][s]["run"] for s in live]

    def total(key, rows=t):
        return sum(r[key] for r in rows)

    def med(seed, mode, key="serve_s"):
        return statistics.median([r[seed][mode][key] for r in rounds
                                  if seed in r])

    serve = sum(med(s, "run") for s in live)
    oracle_s = sum(med(s, "run") - med(s, "no_oracle") for s in live)
    audit_s = sum(med(s, "run") - med(s, "no_audit") for s in live)
    audit_rss = [(med(s, "run", "rss_kb") - med(s, "no_audit", "rss_kb")) / 1024
                 for s in live]
    traced_s = sum(med(s, "traced") for s in live)
    completed = total("completed", run)
    rate = lambda num, den, scale=1.0: num / den * scale if den else 0.0

    report.metric("workload.specs", total("workload_specs"), "count")
    report.metric("workload.host_s", total("workload_host_s"), "s")
    report.metric("runtime.executions", total("executions"), "count")
    report.metric("runtime.fused_jobs", total("runtime.jobs_fused"), "count")
    report.metric("runtime.preemptions", total("preemptions"), "count")
    report.metric("runtime.resumes", total("resumes"), "count")
    report.metric("runtime.resizes", total("resizes"), "count")
    report.metric("runtime.band_allocations",
                  total("spectrum.band_allocations"), "count")
    report.metric("runtime.band_grows", total("spectrum.band_grows"), "count")
    report.metric("runtime.band_shrinks", total("spectrum.band_shrinks"),
                  "count")
    waits = [w for r in t for w in r["admission_wait_s"]]
    report.percentile("runtime.admission_wait_p50_s", waits, 0.5)
    report.percentile("runtime.admission_wait_p999_s", waits, 0.999)
    report.metric("runtime.routing_decisions", total("routing_decisions"),
                  "count")
    report.metric("runtime.electrical_share",
                  rate(total("electrical_jobs"), completed), "ratio",
                  "electrically placed / completed jobs")
    report.metric("runtime.routing_mean_error",
                  rate(total("routing_error_sum"), total("routing_decisions")),
                  "ratio", "|actual - predicted| / predicted span")

    report.metric("faults.injected", total("faults_injected"), "count")
    report.metric("faults.evictions", total("faults_evictions"), "count")
    report.metric("faults.restarts", total("faults_restarts"), "count")
    report.metric("faults.migrations", total("faults_migrations"), "count",
                  "no workload injects ToR faults")
    report.metric("faults.killed_jobs", total("killed"), "count")
    report.metric("faults.mttr_s",
                  rate(total("faults_recovery_s"), total("faults_recoveries")),
                  "s")
    report.metric("faults.wasted_step_s", total("wasted_step_s"), "s")
    report.metric("faults.host_s", total("faults_host_s"), "s")

    report.metric("wrht.steps", total("optical_steps"), "count",
                  "optical schedule steps executed")
    report.metric("wrht.build_ns_per_call",
                  rate(total("replay_build_s"), total("replay_builds"), 1e9),
                  "ns", f"{total('replay_builds'):.0f} replayed builds")
    report.metric("coll.oracle_host_s", oracle_s, "s",
                  "untraced serve minus oracle-off serve")
    report.metric("coll.oracle_share", rate(oracle_s, serve), "ratio")
    report.metric("coll.proof_ns_per_call",
                  rate(total("replay_proof_s"), total("replay_proofs"), 1e9),
                  "ns", f"{total('replay_proofs'):.0f} replayed proofs")
    report.check("every replayed proof passes",
                 total("replay_proof_failures") == 0)

    report.metric("topo.span_calls", total("replay_span_calls"), "count")
    report.metric("topo.span_host_s", total("replay_span_s"), "s")
    report.metric("optical.cell_reservations",
                  total("optical.cell_reservations"), "count")
    report.metric("optical.retunes", total("optical.retunes"), "count")
    report.metric("optical.spectrum_host_s", total("replay_spectrum_s"), "s",
                  f"{total('replay_spectrum_ops'):.0f} reserve/release calls")

    report.metric("elec.jobs", total("electrical_jobs"), "count")
    report.metric("elec.steps", total("electrical_steps"), "count")
    report.metric("elec.step_retimes", total("step_retimes"), "count")
    report.metric("elec.replay_checked_steps", total("replay_checked_steps"),
                  "count")
    report.metric("elec.contention_slowdown",
                  rate(total("electrical_busy_s"), total("electrical_quiet_s")),
                  "ratio", "shared-fabric step time / quiet step time")
    report.metric("elec.flow_ns_per_step",
                  rate(total("replay_flow_s"), total("replay_flow_steps"), 1e9),
                  "ns", f"{total('replay_flow_steps'):.0f} replayed steps")
    report.metric("elec.replay_audit_host_s", audit_s, "s",
                  "untraced serve minus audit-off serve")
    report.metric("elec.replay_audit_rss_mb",
                  statistics.median(audit_rss) if audit_rss else 0.0, "MB",
                  "median per-episode VmHWM delta")

    report.metric("sim.host_ns_per_step",
                  rate(serve, total("total_steps", run), 1e9), "ns")
    report.metric("sim.trace_events", total("trace_events"), "count")
    report.metric("obs.trace_overhead_s", traced_s - serve, "s",
                  "traced serve minus untraced serve")
    attributed = (total("workload_host_s") + total("faults_host_s") + oracle_s
                  + audit_s + total("replay_build_s")
                  + total("replay_spectrum_s"))
    report.metric("runtime.residual_host_s", serve - attributed, "s",
                  "serve minus workload, faults, oracle, audit, wrht build, "
                  "spectrum")
    return report, attempted, failed


def selftest():
    """A forced abort in one episode is counted, not fatal."""
    seeds = episode_seeds(1, 2)
    outcomes = [run_episode("optical_default", seeds[0], 200, "abort"),
                run_episode("optical_default", seeds[1], 200, "run")]
    report = Report()
    attempted, failed = summarize_ledger(report, outcomes)
    ok = ("error" in outcomes[0] and "result" in outcomes[1]
          and attempted == 400 and failed == 200 and report.correct)
    print(f"selftest: forced abort counted as {failed} failed of {attempted}; "
          f"second episode served: {'result' in outcomes[1]}")
    print("selftest PASS" if ok else "selftest FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that a forced episode abort is counted")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        log("servebench: build failed")
        return 1
    try:
        if args.selftest:
            return selftest()
        spec = WORKLOADS[args.workload]
        if args.trace:
            seeds = episode_seeds(args.seed, spec["episodes"])[:spec["traced"]]
            report, attempted, failed = per_layer(
                args.workload, seeds, spec["jobs"], args.seconds)
        else:
            seeds = episode_seeds(args.seed, spec["episodes"])
            report, attempted, failed = end_to_end(
                args.workload, seeds, spec["jobs"], args.seconds)
    except HarnessError as exc:
        log(f"servebench: {exc}")
        return 1
    report.print(f"{args.workload} seed {args.seed} "
                 f"({'per-layer' if args.trace else 'end-to-end'}):")
    print(json.dumps({"correct": report.correct, "attempted": attempted,
                      "failed": failed, "metrics": report.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
