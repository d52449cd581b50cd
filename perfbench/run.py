#!/usr/bin/env python3
"""The checkfence repo benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload sweep|explore|repair|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkfence checkout. The first run builds the
library and the benchmark binaries from source into .bench_build/
(or $CARGO_TARGET_DIR); later runs rebuild incrementally.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
runs the workload untraced, then traced (spans around every library call
the driver makes), then the layer probe (spans around each layer's entry
point on the same inputs), and reports the per-layer metrics plus the
tracing overhead (traced minus untraced end-to-end numbers).

The driver pins each workload to the CPUs it keeps busy and samples
their speed while it runs; every end-to-end time and rate is corrected
for that speed (HostSpeed below, README.md "Host-speed correction").

Every verdict is checked against known_answers.json and lattice
monotonicity; explore must find no divergence. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md for the workloads and the metric -> layer -> workload map.
"""

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sweep", "explore", "repair", "serve")
# Set-up is timed spawn-to-ready on this many extra set-up-only launches
# plus the measured run's own; setup_s is their median.
SETUP_LAUNCHES = 10
RUN_TIMEOUT_S = 170
# Host-speed normalisation (see HostSpeed below): the kernel time that
# counts as reference speed, the time grid, and the half-width of the
# window of kernel samples each grid cell's speed is the median of.
HOST_REF_MS = 0.9
HOST_CELL_S = 0.1
HOST_PAD_S = 0.25

# End-to-end metrics (BENCHMARK.json "end_to_end").
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}
# The tail percentile per workload: the highest of p99/p90/p75 with at
# least ten samples beyond it at this benchmark's run length.
TAIL_PERCENTILE = {"sweep": 90, "explore": 99, "repair": 75, "serve": 99}
# The same numbers under the names the workload notes use.
NAMED = {
    "sweep": [("sweep.cells_per_s", "ops_per_s"),
              ("sweep.cell_p50_ms", "op_p50_ms"),
              ("sweep.cell_p90_ms", "op_tail_ms")],
    "explore": [("explore.scenarios_per_s", "ops_per_s"),
                ("explore.scenario_p50_ms", "op_p50_ms"),
                ("explore.scenario_p99_ms", "op_tail_ms")],
    "repair": [("repair.ops_per_s", "ops_per_s"),
               ("repair.op_p50_ms", "op_p50_ms"),
               ("repair.op_p75_ms", "op_tail_ms")],
    "serve": [("serve.req_per_s", "ops_per_s"),
              ("serve.p50_ms", "op_p50_ms"),
              ("serve.p99_ms", "op_tail_ms")],
}

# Per-layer metrics (BENCHMARK.json "per_layer"), in report order.
LAYER_UNITS = {
    "frontend.lower_ms": "ms", "frontend.programs": "count",
    "trans.flatten_ms": "ms", "trans.unrolled_instrs": "count",
    "encode.s": "s", "encode.sat_vars": "count",
    "encode.sat_clauses": "count",
    "sat.solve_s": "s",
    "engine.mine_s": "s", "engine.include_s": "s", "engine.probe_s": "s",
    "engine.bound_rounds": "count",
    "engine.oracle_discharge_ratio": "ratio",
    "engine.oracle_attempts": "count",
    "engine.analysis_discharge_ratio": "ratio",
    "engine.analysis_attempts": "count",
    "engine.races_won": "count",
    "memmodel.rf_oracle_ms": "ms", "memmodel.enumerator_ms": "ms",
    "memmodel.skips": "count",
    "explore.generate_ms": "ms", "explore.generated": "count",
    "explore.dedup_ratio": "ratio", "explore.skip_ratio": "ratio",
    "explore.divergences": "count",
    "analysis.ms": "ms",
    "harness.synth_checks": "count", "harness.repair_s": "s",
    "harness.minimize_s": "s",
    "api.cache_hit_ratio": "ratio", "api.cache_lookups": "count",
    "api.bounds_seeded": "count", "api.pool_idle_sessions": "count",
    "api.pool_clauses": "count",
    "server.rpc_ms": "ms", "server.queue_wait_ms": "ms",
    "server.queue_wait_p99_ms": "ms", "server.service_ms": "ms",
    "server.service_p99_ms": "ms", "server.rejected": "count",
    "perfbench.trace_overhead_pct": "%",
}
# Span name (benchmark-recorded) -> per-layer self-time metric.
SPAN_METRICS = {
    "frontend.compileC": "frontend.lower_ms",
    "trans.flatten": "trans.flatten_ms",
    "analysis.analyzeRobustness": "analysis.ms",
    "memmodel.checkReadsFrom": "memmodel.rf_oracle_ms",
    "memmodel.enumerateAxiomatic": "memmodel.enumerator_ms",
    "explore.generate": "explore.generate_ms",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


#===----------------------------------------------------------------------===#
# Build and launch
#===----------------------------------------------------------------------===#

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no checkfence sources next to perfbench/ "
                         "(run from the root of a checkout)")
    bdir = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        os.makedirs(bdir, exist_ok=True)
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"], 900, "configure")
    run_quiet(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets,
              900, "build")
    return bdir


def run_quiet(cmd, timeout, what):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("%s failed: %s" % (what, e))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        raise BenchError("%s failed (exit %d)" % (what, proc.returncode))


def launch(cmd, out_path):
    """Runs one benchmark binary; returns (its JSON output, spawn time)."""
    if os.path.exists(out_path):
        os.remove(out_path)
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("%s failed: %s" % (os.path.basename(cmd[0]), e))
    if proc.returncode != 0:
        raise BenchError("%s exited %d" % (os.path.basename(cmd[0]),
                                           proc.returncode))
    with open(out_path) as f:
        return json.load(f), spawn_ns


def run_driver(bdir, args, trace_path=None, setup_only=False):
    out = os.path.join(bdir, "out-%s.json" % args.workload)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", out]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    if setup_only:
        cmd.append("--setup-only")
    data, spawn_ns = launch(cmd, out)
    # Host-speed corrected like every other time: the driver times the
    # kernel right after set-up.
    data["setup_s"] = ((data["head"]["ready_ns"] - spawn_ns) / 1e9
                       * HOST_REF_MS / data["head"]["ready_kernel_ms"])
    return data


#===----------------------------------------------------------------------===#
# Statistics
#===----------------------------------------------------------------------===#

def percentile(values, p):
    """Linear interpolation between closest ranks (the 'inclusive'
    method of statistics.quantiles)."""
    v = sorted(values)
    if not v:
        raise BenchError("no samples")
    pos = (len(v) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


class HostSpeed:
    """The driver's host-speed samples: (start s, cpu, kernel ms) of a
    fixed CPU kernel timed in turn on each CPU the workload is pinned to
    (src/HostSpeed.h). A shared VM's vCPUs flip between fast and slow
    within seconds; the end-to-end times are wall times rescaled to the
    speed at which the kernel takes HOST_REF_MS, averaged over the pinned
    CPUs, over the moments each op ran."""

    def __init__(self, samples):
        if not samples:
            raise BenchError("no host-speed samples")
        self.per_cpu = {}
        for t, cpu, ms in sorted(samples):
            times, values = self.per_cpu.setdefault(cpu, ([], []))
            times.append(t)
            values.append(ms)
        self.all_ms = [ms for _, _, ms in samples]
        self.cells = {}

    def factor(self, cell):
        """Reference seconds per wall second in grid cell \p cell: the
        mean speed of the pinned CPUs, each the median of its samples
        within HOST_PAD_S of the cell."""
        f = self.cells.get(cell)
        if f is None:
            mid = (cell + 0.5) * HOST_CELL_S
            speeds = []
            for times, values in self.per_cpu.values():
                lo = bisect.bisect_left(times, mid - HOST_PAD_S)
                hi = bisect.bisect_right(times, mid + HOST_PAD_S)
                if hi - lo < 3:  # past either end: the nearest samples
                    lo = max(0, min(lo, len(times) - 3))
                    hi = min(len(times), lo + 3)
                speeds.append(HOST_REF_MS / statistics.median(values[lo:hi]))
            f = statistics.mean(speeds)
            self.cells[cell] = f
        return f

    def scaled(self, t0, seconds):
        """Wall interval [t0, t0 + seconds] in reference seconds."""
        end = t0 + seconds
        total = 0.0
        for cell in range(int(t0 // HOST_CELL_S),
                          int(end // HOST_CELL_S) + 1):
            lo = max(t0, cell * HOST_CELL_S)
            hi = min(end, (cell + 1) * HOST_CELL_S)
            if hi > lo:
                total += (hi - lo) * self.factor(cell)
        return total

    def median_ms(self):
        return statistics.median(self.all_ms)


#===----------------------------------------------------------------------===#
# Known answers
#===----------------------------------------------------------------------===#

def parse_model(desc):
    fields = desc.split(",")
    po = fields[0][len("po:"):]
    bits = ({"ll", "ls", "sl", "ss"} if po == "all"
            else set() if po == "none" else set(po.split("+")))
    flags = set(fields[1:])
    return {"bits": frozenset(bits), "fwd": "fwd" in flags,
            "mca": "nomca" not in flags, "serial": "serial" in flags}


def at_least_as_strong(a, b):
    """memmodel::atLeastAsStrong on parsed descriptors."""
    if a["serial"] and len(a["bits"]) == 4:
        return True
    if a["serial"] or b["serial"]:
        return a == b
    if not b["bits"] <= a["bits"]:
        return False
    if not a["mca"] and b["mca"]:
        return False
    fa = a["fwd"] and "sl" not in a["bits"]
    fb = b["fwd"] and "sl" not in b["bits"]
    return fa == fb or (fb and "sl" in a["bits"])


class Answers:
    def __init__(self, head):
        with open(os.path.join(BENCH_DIR, "known_answers.json")) as f:
            table = json.load(f)
        self.verdicts = {(v["impl"], v["test"], v["variant"], v["model"]):
                         v["expect"] for v in table["verdicts"]}
        self.weakest = {(w["impl"], w["test"], w["variant"]):
                        sorted(w["expect"]) for w in table["weakest"]}
        self.synth = table["synthesis"]
        self.names = head["models"]

    def model(self, name):
        return parse_model(self.names.get(name, name))

    def verdict_ok(self, program, model, status):
        expect = self.verdicts.get(program + (model,))
        if expect is not None:
            return status == expect
        return status in ("PASS", "FAIL")

    def lattice_failures(self, program, statuses):
        """Models of one program whose verdicts are inconsistent across
        runs or break lattice monotonicity. statuses: model -> set."""
        bad = {m for m, s in statuses.items() if len(s) > 1}
        single = {m: next(iter(s)) for m, s in statuses.items()
                  if len(s) == 1 and s <= {"PASS", "FAIL"}}
        for strong, s_st in single.items():
            for weak, w_st in single.items():
                if (strong != weak and s_st == "FAIL" and w_st == "PASS"
                        and at_least_as_strong(self.model(strong),
                                               self.model(weak))):
                    bad |= {strong, weak}
        return bad

    def weakest_ok(self, program, weakest):
        exact = self.weakest.get(program)
        if exact is not None and sorted(weakest) != exact:
            return False
        ws = [self.model(w) for w in weakest]
        for (impl, test, variant, model), expect in self.verdicts.items():
            if (impl, test, variant) != program:
                continue
            passes = any(at_least_as_strong(self.model(model), w)
                         for w in ws)
            if passes != (expect == "PASS"):
                return False
        return True


def variant(strip):
    return "stripped" if strip else "fenced"


#===----------------------------------------------------------------------===#
# Per-workload end-to-end metrics and checks
#===----------------------------------------------------------------------===#

def score_sweep(data, ans, host):
    lat, wall, cells = [], 0.0, []
    attempted = failed = 0
    statuses = {}
    for op in data["ops"]:
        scaled = host.scaled(op["t0"], op["wall_s"])
        k = ratio(scaled, op["wall_s"])
        wall += scaled
        program = (op["impl"], op["test"], variant(op["strip"]))
        if not op["ok"] or not op["cells"]:
            attempted += 10
            failed += 10
            continue
        for model, status, seconds in op["cells"]:
            attempted += 1
            lat.append(seconds * 1e3 * k)
            cells.append((program, model, status))
            statuses.setdefault(program, {}).setdefault(model,
                                                        set()).add(status)
    bad = {p: ans.lattice_failures(p, s) for p, s in statuses.items()}
    for program, model, status in cells:
        if not ans.verdict_ok(program, model, status) or model in bad[program]:
            failed += 1
    info = {"passes": data["tail"]["passes"], "cells": len(lat)}
    return lat, len(lat) / wall, attempted, failed, info


def score_explore(data, ans, host):
    lat, wall, run = [], 0.0, 0
    attempted = failed = 0
    for op in data["ops"]:
        scaled = host.scaled(op["t0"], op["wall_s"])
        k = ratio(scaled, op["wall_s"])
        wall += scaled
        run += op["run"]
        lat.extend(ms * k for ms in op["latency_ms"])
        if not op["ok"] or op["cancelled"]:
            attempted += max(op["run"], 1)
            failed += max(op["run"], 1)
        else:
            attempted += op["run"]
            failed += max(op["diverged_events"], len(op["divergences"]))
    info = {"calls": len(data["ops"]), "scenarios": run}
    return lat, run / wall, attempted, failed, info


def score_repair(data, ans, host):
    lat, wall = [], 0.0
    attempted = failed = 0
    bad_rechecks = {r["op"] for r in data["tail"]["rechecks"]
                    if r["verdict"] != ans.synth["recheck_expect"]}
    results = {}
    for op in data["ops"]:
        scaled = host.scaled(op["t0"], op["wall_s"])
        wall += scaled
        lat.append(scaled * 1e3)
        attempted += 1
        program = (op["impl"], op["test"], variant(op["strip"]))
        if op["kind"] == "synth":
            ok = (op["success"] == ans.synth["expect_success"]
                  and op["op"] not in bad_rechecks)
            result = json.dumps(op["fences"])
        else:
            ok = op["success"] and ans.weakest_ok(program, op["weakest"])
            result = json.dumps(sorted(op["weakest"]))
        results.setdefault(op["op"], set()).add(result)
        failed += not ok
    # A deterministic search must give one answer in every pass.
    for op in data["ops"]:
        failed += len(results[op["op"]]) > 1
    passes = data["tail"]["passes"]
    info = {"passes": passes, "ops": len(lat),
            "wall_s_per_pass": wall / passes,
            "rechecks": len(data["tail"]["rechecks"])}
    return lat, len(lat) / wall, attempted, failed, info


def score_serve(data, ans, host):
    tail = data["tail"]
    origin = tail["window_start_s"]
    keys = tail["keys"]
    rows = data["ops"]
    attempted = len(rows)
    failed = 0
    statuses, checks = {}, []
    # Cache fill: the window until the last first-time miss completed.
    # Throughput and latency percentiles cover the requests sent after it
    # (the warm service). The fill is 56 misses over 2 shards whose length
    # moved by 15% between runs of identical work (it ends with whichever
    # shard is slower), which made all-window throughput unsteady.
    cold_end = 0.0
    for key, start, latency, http, verdict, cached, mismatch in (
            r[:7] for r in rows):
        label = keys[key]
        if label.startswith("analyze:"):
            failed += http != 200 or verdict != "OK" or mismatch
            continue
        impl, test, var, model = label.split(":")
        program = (impl, test, var)
        if not cached:
            cold_end = max(cold_end, start + latency)
        statuses.setdefault(program, {}).setdefault(model, set()).add(verdict)
        checks.append((program, model))
        failed += http != 200 or not ans.verdict_ok(program, model, verdict)
    bad = {p: ans.lattice_failures(p, s) for p, s in statuses.items()}
    failed += sum(1 for program, model in checks if model in bad[program])
    failed += (tail["rejected"] + tail["server_cancelled"]
               + tail["version_failures"])
    warm = [r for r in rows if r[1] >= cold_end]
    if not warm:  # a window shorter than the cache fill
        warm, cold_end = rows, 0.0
    lat = [host.scaled(origin + r[1], r[2]) * 1e3 for r in warm]
    misses = [r[2] * 1e3 for r in rows
              if not keys[r[0]].startswith("analyze:") and not r[5]]
    info = {"requests": len(rows), "warm_requests": len(lat),
            "cache_fill_s": round(cold_end, 3), "misses": len(misses),
            "miss_p50_ms": round(percentile(misses, 50), 2) if misses else 0}
    window = host.scaled(origin + cold_end, tail["window_s"] - cold_end)
    return lat, len(warm) / window, attempted, failed, info


SCORERS = {"sweep": score_sweep, "explore": score_explore,
           "repair": score_repair, "serve": score_serve}


def end_to_end(workload, data, setup_samples):
    ans = Answers(data["head"])
    host = HostSpeed(data["tail"]["host"])
    lat, rate, attempted, failed, info = SCORERS[workload](data, ans, host)
    info["host_kernel_ms"] = round(host.median_ms(), 4)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": data["tail"]["peak_rss_kb"] / 1024.0,
        "ops_per_s": rate,
        "op_p50_ms": percentile(lat, 50),
        "op_tail_ms": percentile(lat, TAIL_PERCENTILE[workload]),
    }
    info["samples"] = len(lat)
    return metrics, attempted, failed, info


#===----------------------------------------------------------------------===#
# Per-layer metrics (traced runs)
#===----------------------------------------------------------------------===#

def self_times(trace_path):
    """Span name -> summed self time in seconds (duration minus the part
    covered by the span's children)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    totals = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(e["args"]["id"], []),
                        key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], cursor), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[e["name"]] = totals.get(e["name"], 0.0) + \
            (e["dur"] - covered) / 1e6
    return totals


def engine_stats(workload, data):
    """Cells' ResultStats: sweep report cells (first pass for counts, a
    per-pass mean for times) or the serve misses."""
    if workload == "sweep":
        passes = data["tail"]["passes"]
        cells = [dict(c, pass_=op["pass"]) for op in data["ops"]
                 for c in op["report"]["cells"]]
        first = [c for c in cells if c["pass_"] == 0]
        return cells, first, passes
    if workload == "serve":
        cells = [r[7] for r in data["ops"] if len(r) > 7]
        return cells, cells, 1
    return [], [], 1


def layer_metrics(workload, data, probe, spans):
    m = {name: 0.0 for name in LAYER_UNITS}
    cells, first, passes = engine_stats(workload, data)

    def total(rows, key):
        return float(sum(c.get(key, 0) for c in rows))

    m["trans.unrolled_instrs"] = total(first, "unrolled_instrs")
    m["encode.sat_vars"] = total(first, "sat_vars")
    m["encode.sat_clauses"] = total(first, "sat_clauses")
    m["engine.bound_rounds"] = total(first, "bound_iterations")
    m["engine.races_won"] = total(first, "races_won")
    m["engine.oracle_attempts"] = total(first, "oracle_attempts")
    m["engine.oracle_discharge_ratio"] = ratio(
        total(first, "oracle_discharges"), m["engine.oracle_attempts"])
    m["engine.analysis_attempts"] = total(first, "analysis_attempts")
    m["engine.analysis_discharge_ratio"] = ratio(
        total(first, "analysis_discharges"), m["engine.analysis_attempts"])
    for metric, key in (("encode.s", "encode_seconds"),
                        ("sat.solve_s", "solve_seconds"),
                        ("engine.mine_s", "mining_seconds"),
                        ("engine.include_s", "include_seconds"),
                        ("engine.probe_s", "probe_seconds")):
        m[metric] = total(cells, key) / passes

    if workload == "repair":
        passes = data["tail"]["passes"]
        synth = [op for op in data["ops"] if op["kind"] == "synth"]
        m["harness.synth_checks"] = float(
            sum(op["checks"] for op in synth if op["pass"] == 0))
        m["harness.repair_s"] = sum(op["repair_s"] for op in synth) / passes
        m["harness.minimize_s"] = \
            sum(op["minimize_s"] for op in synth) / passes

    if workload == "explore":
        ops = data["ops"]
        generated = sum(op["generated"] for op in ops)
        skips = sum(op["skips"] for op in ops)
        run = sum(op["run"] for op in ops)
        m["explore.generated"] = float(generated)
        m["explore.dedup_ratio"] = ratio(
            sum(op["deduplicated"] for op in ops), generated)
        m["explore.skip_ratio"] = ratio(skips, run * 4)
        m["explore.divergences"] = float(
            sum(len(op["divergences"]) for op in ops))
        m["memmodel.skips"] = float(skips)

    api = data["tail"]["api"]
    lookups = api["hits"] + api["misses"]
    m["api.cache_lookups"] = float(lookups)
    m["api.cache_hit_ratio"] = ratio(api["hits"], lookups)
    m["api.bounds_seeded"] = float(api["bounds_seeded"])
    m["api.pool_idle_sessions"] = float(api["idle_sessions"])
    m["api.pool_clauses"] = float(api["idle_clauses"])

    if workload == "serve":
        tail = data["tail"]
        m["server.rpc_ms"] = statistics.median(tail["version_probe_ms"])
        m["server.rejected"] = float(tail["rejected"])
        status = tail.get("status") or {}
        for prefix, family in (("server.queue_wait", "queueWaitSeconds"),
                               ("server.service", "requestSeconds")):
            hists = list((status.get(family) or {}).values())
            if hists:
                h = max(hists, key=lambda h: h["count"])
                m[prefix + "_ms"] = h["p50"] * 1e3
                m[prefix + "_p99_ms"] = h["p99"] * 1e3

    for span, metric in SPAN_METRICS.items():
        m[metric] = spans.get(span, 0.0) * 1e3
    m["frontend.programs"] = float(probe["programs"])
    return m


#===----------------------------------------------------------------------===#
# Runs
#===----------------------------------------------------------------------===#

def measure(bdir, args, trace_path=None):
    setup = [run_driver(bdir, args, setup_only=True)["setup_s"]
             for _ in range(SETUP_LAUNCHES if not trace_path else 0)]
    data = run_driver(bdir, args, trace_path)
    setup.append(data["setup_s"])
    metrics, attempted, failed, info = end_to_end(args.workload, data, setup)
    info["setup_samples"] = len(setup)
    return data, metrics, attempted, failed, info


def report_lines(workload, data, metrics, attempted, failed, info):
    print("perfbench: workload=%s seed=%s inputs=%s" % (
        workload, data["head"]["seed"], data["head"]["digest"]))
    print("  " + " ".join("%s=%s" % kv for kv in sorted(info.items())))
    for name, metric in NAMED[workload]:
        print("  %-26s %12.4f %s" % (name, metrics[metric],
                                     E2E_UNITS[metric]))
    for metric in ("setup_s", "peak_rss_mb"):
        print("  %-26s %12.4f %s" % (metric, metrics[metric],
                                     E2E_UNITS[metric]))
    print("  %-26s %12.4f (%d of %d ops)" % (
        "failed_share", ratio(failed, attempted), failed, attempted))


def untraced(bdir, args):
    data, metrics, attempted, failed, info = measure(bdir, args)
    report_lines(args.workload, data, metrics, attempted, failed, info)
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                        for k, v in metrics.items()}}


def traced(bdir, args):
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    base = os.path.join(trace_dir, "%s-%d" % (args.workload, args.seed))

    _, plain, att0, fail0, _ = measure(bdir, args)
    data, traced_m, att1, fail1, info = measure(bdir, args,
                                                base + ".driver.json")
    report_lines(args.workload, data, traced_m, att1, fail1, info)

    probe_out = base + ".layers-counts.json"
    probe, _ = launch([os.path.join(bdir, "perfbench_layers"),
                       "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--out", probe_out,
                       "--trace-out", base + ".layers.json"], probe_out)
    spans = self_times(base + ".driver.json")
    for name, secs in self_times(base + ".layers.json").items():
        spans[name] = spans.get(name, 0.0) + secs

    m = layer_metrics(args.workload, data, probe, spans)
    # Tracing overhead: traced minus untraced, as a share of untraced
    # (positive = the traced run was slower).
    overhead = {}
    for k in ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"):
        delta = traced_m[k] - plain[k]
        overhead[k] = 100.0 * ratio(-delta if k == "ops_per_s" else delta,
                                    plain[k])
    m["perfbench.trace_overhead_pct"] = overhead["ops_per_s"]

    print("  tracing overhead (traced vs untraced run): " + " ".join(
        "%s=%+.2f%%" % kv for kv in sorted(overhead.items())))
    print("  self time by span (s): " + " ".join(
        "%s=%.4f" % kv for kv in sorted(spans.items())))
    for name in LAYER_UNITS:
        print("  %-34s %14.4f %s" % (name, m[name], LAYER_UNITS[name]))
    attempted, failed = att0 + att1, fail0 + fail1
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": LAYER_UNITS[k]}
                        for k, v in m.items()}}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        bdir = build(["perfbench"] + (["perfbench_layers"] if args.trace
                                      else []))
        result = traced(bdir, args) if args.trace else untraced(bdir, args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
