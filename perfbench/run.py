#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/grid.cc, runs one of the
paper's figure grids for a fixed wall time, checks the simulated
results and prints every metric by name with its unit.

    python3 perfbench/run.py [--workload lebench|apps|lebench-sampled|all]
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --regen-digests
    python3 perfbench/run.py --crosscheck SWEEP_JSON

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer split. The exit code is
non-zero when any check fails. perfbench/README.md describes the
workloads and every metric.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import metrics as M

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
GRID_BIN = os.path.join(BUILD_DIR, "perfbench_grid")
DIGESTS = os.path.join(HERE, "digests.json")

# Simulator seeds every run simulates besides its own --seed: the
# reference digests cover exactly these, and the accuracy metrics are
# computed over them, so those metrics read the same on every run.
# 42 is the seed every bench uses; 7 is held out from all tuning.
REF_SEEDS = (42, 7)
# Set-up is timed in this many extra processes besides the measured one,
# half before it and half after, so one busy moment on the host does not
# shift every sample.
SETUP_REPS = 9
# The CI sampled-accuracy job's bound on sampled_err.
SAMPLED_ERR_LIMIT = 0.02

WORKLOADS = {
    "lebench": dict(paper=M.PAPER_LEBENCH, throughput=False, sampled=False),
    "apps": dict(paper=M.PAPER_APPS, throughput=True, sampled=False),
    "lebench-sampled": dict(paper=M.PAPER_LEBENCH, throughput=False,
                            sampled=True),
}
DIGEST_GRIDS = ("lebench", "apps")

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_cycles_per_inst": "cycles/inst",
    "peak_rss_mb": "MB",
    "paper_gap": "ratio",
    "sampled_err": "ratio",
}

_MS, _RATIO, _PKI = "ms", "ratio", "1/kinst"
PER_LAYER_UNITS = {
    "workloads.boot_ms": _MS,
    "workloads.construct_ms.p50": _MS,
    "workloads.construct_ms.p90": _MS,
    "workloads.construct_ms.perspective": _MS,
    "workloads.construct_ms.baseline": _MS,
    "workloads.warmup_ms.p50": _MS,
    "workloads.cell_ms.p50": _MS,
    "workloads.cell_ms.p90": _MS,
    "workloads.self_share": _RATIO,
    "kernel.exec_ms": _MS,
    "kernel.syscalls": "count",
    "kernel.self_share": _RATIO,
    "sim.run_s": "s",
    "sim.ns_per_inst": "ns/inst",
    "sim.ns_per_cycle": "ns/cycle",
    "sim.ns_per_inst.unsafe": "ns/inst",
    "sim.self_share": _RATIO,
    "defenses.tax": _RATIO,
    "core.tax": _RATIO,
    "harness.serialize_ms": _MS,
    "harness.makespan_over_ideal": _RATIO,
    "harness.idle_share": _RATIO,
    "harness.self_share": _RATIO,
    "trace.overhead": _RATIO,
    "sim.ipc": "inst/cycle",
    "sim.squash_waste": _RATIO,
    "sim.sb_hit": _RATIO,
    "sim.gate_elided": _RATIO,
    "sim.l1i_miss": _RATIO,
    "sim.l1d_miss": _RATIO,
    "sim.l2_miss_pki": _PKI,
    "sim.mispredict_pki": _PKI,
    "sim.blocked_share": _RATIO,
    "core.isv_hit": _RATIO,
    "core.dsv_hit": _RATIO,
    "core.dsvmt_mru_hit": _RATIO,
    "core.fence_isv_pki": _PKI,
    "core.fence_dsv_pki": _PKI,
    "sim.sampling.detailed_share": _RATIO,
    "sim.sampling.windows_per_cell": "count",
    "sim.ff_share": _RATIO,
}


class BenchError(Exception):
    pass


def build():
    """Configure once, then build incrementally; the log stays in the
    build directory."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                      "--target", "perfbench_grid"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    tail = f.readlines()[-20:]
                raise BenchError("build failed:\n" + "".join(tail))


def clean_env():
    """The program reads PERSPECTIVE_* variables as defaults; run it
    without any, and report which were dropped."""
    cleared = sorted(k for k in os.environ if k.startswith("PERSPECTIVE_"))
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    return env, cleared


def run_grid(env, out_dir, workload, seeds, seconds, trace=False,
             ref_seeds=(), setup_only=False):
    """Run the driver once; returns (spawn time in ns, its result)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [GRID_BIN, "--workload", workload,
           "--seeds", ",".join(map(str, seeds)),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out_dir]
    if ref_seeds:
        cmd += ["--ref-seeds", ",".join(map(str, ref_seeds))]
    if setup_only:
        cmd.append("--setup-only")
    with open(os.path.join(out_dir, "grid.log"), "w") as log:
        spawn = time.monotonic_ns()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        with open(os.path.join(out_dir, "grid.log")) as f:
            raise BenchError("grid driver failed:\n" + f.read()[-2000:])
    with open(os.path.join(out_dir, "result.json")) as f:
        return spawn, json.load(f)


def load_digests():
    with open(DIGESTS) as f:
        doc = json.load(f)
    return {int(seed): grids for seed, grids in doc["seeds"].items()}


def reference_digests(digests, seed, grid, cells):
    """Stored exact digests of grid at seed, in the order of cells (an
    empty digest for a cell the file lacks, which then fails), or None
    when that seed has none."""
    rows = digests.get(seed, {}).get(grid)
    if rows is None:
        return None
    by_cell = {(r[0], r[1]): r[2:] for r in rows}
    return [by_cell.get(tuple(c), ()) for c in cells]


class Checks:
    """Counts attempted cells and the ones that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, n_cells, bad, what):
        self.attempted += n_cells
        self.failed += len(bad)
        if bad:
            self.notes.append("%d cells failed: %s" % (len(bad), what))


def check_passes(doc, spec, digests, checks):
    """Errors, reference digests, and repeatability: every pass of a
    seed must reproduce that seed's first pass exactly (a traced pass
    included)."""
    cells = doc["cells"]
    first = {}
    for p in doc["passes"]:
        rows = p["digests"]
        bad = {i for i, r in enumerate(rows)
               if not r[4] or r[0] <= 0 or r[1] <= 0 or r[2] > r[1]}
        seed = p["seed"]
        if seed in first:
            bad |= set(M.digest_mismatches([r[:4] for r in rows],
                                           first[seed]))
        else:
            first[seed] = [r[:4] for r in rows]
        if not spec["sampled"]:
            ref = reference_digests(digests, seed, doc["workload"], cells)
            if ref is not None:
                bad |= set(M.digest_mismatches([r[:4] for r in rows], ref))
        checks.add(len(rows), sorted(bad),
                   "seed %d pass %s" % (seed, "traced" if p["traced"]
                                        else "untraced"))
    for r in doc["reference"]:
        bad = [i for i, row in enumerate(r["digests"]) if not row[4]]
        checks.add(len(r["digests"]), bad, "reference seed %d" % r["seed"])
    return first


def rows_of(cells, digests_by_seed, seeds):
    return [(seed, w, s, d[0])
            for seed in seeds
            for (w, s), d in zip(cells, digests_by_seed[seed])]


def accuracy(doc, spec, first, digests):
    """paper_gap and sampled_err over the reference seeds."""
    cells = doc["cells"]
    grid = "lebench" if spec["sampled"] else doc["workload"]
    thr = spec["throughput"]
    measured = M.scheme_geomeans(rows_of(cells, first, REF_SEEDS), thr)
    if spec["sampled"]:
        exact_by_seed = {
            s: reference_digests(digests, s, grid, cells) for s in REF_SEEDS}
        exact = M.scheme_geomeans(rows_of(cells, exact_by_seed, REF_SEEDS),
                                  thr)
        sampled = measured
    elif doc["reference"]:
        exact = measured
        sampled_by_seed = {r["seed"]: r["digests"] for r in doc["reference"]}
        sampled = M.scheme_geomeans(
            rows_of(cells, sampled_by_seed, REF_SEEDS), thr)
    else:  # a traced run of an exact grid skips the sampled passes
        return {"paper_gap": M.paper_gap(measured, spec["paper"])}, measured
    return {"paper_gap": M.paper_gap(measured, spec["paper"]),
            "sampled_err": M.sampled_err(sampled, exact)}, measured


def load_spans(path):
    """Spans of the traced passes. Cell roots hang under their pass's
    harness.grid span, which ran them."""
    spans = []
    grid_of = {}
    next_index = {}
    with open(path) as f:
        next(f)
        for line in f:
            p, c, name, parent, t0, t1, insts, cycles = line.split("\t")
            p, c = int(p), int(c)
            idx = next_index.get((p, c), 0)
            next_index[(p, c)] = idx + 1
            spans.append(dict(id=(p, c, idx), pass_=p, cell=c, name=name,
                              parent=int(parent), t0=int(t0), t1=int(t1),
                              insts=int(insts), cycles=int(cycles)))
            if c < 0 and name == "harness.grid":
                grid_of[p] = (p, c, idx)
    for s in spans:
        if s["parent"] >= 0:
            s["parent"] = (s["pass_"], s["cell"], s["parent"])
        elif s["cell"] >= 0:
            s["parent"] = grid_of[s["pass_"]]
        else:
            s["parent"] = None
    return spans


def model_ratios(sweeps, sampled):
    """Modelled-component ratios over every cell the run simulated,
    from the cells' public stats."""
    tot = {}
    persp = {}
    isv_hits, dsv_hits, windows, sampled_insts = [], [], [], 0
    n_cells = 0
    for doc in sweeps:
        for c in doc["cells"]:
            n_cells += 1
            st = c["stats"]
            tot["cycles"] = tot.get("cycles", 0) + c["cycles"]
            for k, v in st.items():
                tot[k] = tot.get(k, 0) + v
            if c["scheme"] in M.PERSPECTIVE_SCHEMES:
                for k in ("committed", "perspective.fence.isv",
                          "perspective.fence.dsv"):
                    persp[k] = persp.get(k, 0) + st.get(k, 0)
                isv_hits.append(c["isv_cache_hit_rate"])
                dsv_hits.append(c["dsv_cache_hit_rate"])
            smp = c.get("sampling", {})
            windows.append(smp.get("windows", 0))
            sampled_insts += smp.get("sampled_insts", 0)
    g = lambda k: tot.get(k, 0)
    committed = g("committed")
    return {
        "sim.ipc": M.ratio(committed, g("cycles")),
        "sim.squash_waste": M.ratio(g("squashed_uops"), g("fetched")),
        "sim.sb_hit": M.ratio(g("sb.cache.hits"),
                              g("sb.cache.hits") + g("sb.cache.misses")),
        "sim.gate_elided": M.ratio(g("gate.elided"),
                                   g("gate.checks") + g("gate.elided")),
        "sim.l1i_miss": M.ratio(g("l1i.misses"), g("l1i.accesses")),
        "sim.l1d_miss": M.ratio(g("l1d.misses"), g("l1d.accesses")),
        "sim.l2_miss_pki": 1000 * M.ratio(g("l2.data_misses"), committed),
        "sim.mispredict_pki": 1000 * M.ratio(g("mispredicts"), committed),
        "sim.blocked_share": M.ratio(g("blocked_cycles"), g("cycles")),
        "core.isv_hit": statistics.fmean(isv_hits) if isv_hits else 0.0,
        "core.dsv_hit": statistics.fmean(dsv_hits) if dsv_hits else 0.0,
        "core.dsvmt_mru_hit": M.ratio(g("dsvmt.mru.hits"),
                                      g("dsvmt.mru.lookups")),
        "core.fence_isv_pki": 1000 * M.ratio(
            persp.get("perspective.fence.isv", 0), persp.get("committed", 0)),
        "core.fence_dsv_pki": 1000 * M.ratio(
            persp.get("perspective.fence.dsv", 0), persp.get("committed", 0)),
        "sim.sampling.detailed_share":
            M.ratio(sampled_insts, committed) if sampled else 1.0,
        "sim.sampling.windows_per_cell": M.ratio(sum(windows), n_cells),
        "sim.ff_share": M.ratio(g("ff.uops"), committed),
    }


def layer_metrics(doc, spans, boot_s, jobs):
    """Host-time split of the traced passes, from the spans."""
    cells = doc["cells"]
    passes = doc["passes"]
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    untraced = [i for i, p in enumerate(passes) if not p["traced"]]
    dur = lambda s: s["t1"] - s["t0"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    scheme_of = lambda s: cells[s["cell"]][1]

    def per_pass_sum(names, f=dur):
        """Median over traced passes of f summed over the named spans."""
        sums = {i: 0 for i in traced}
        for name in names:
            for s in by_name.get(name, ()):
                sums[s["pass_"]] += f(s)
        return statistics.median(sums.values())

    def ns_per_inst(pred):
        runs = [s for s in by_name["sim.run"] if pred(scheme_of(s))]
        return M.ratio(sum(map(dur, runs)), sum(s["insts"] for s in runs))

    cell_ms = [dur(s) / 1e6 for s in by_name["workloads.cell"]]
    construct = by_name["workloads.construct"]
    construct_ms = [dur(s) / 1e6 for s in construct]
    runs = by_name["sim.run"]
    run_ns = sum(map(dur, runs))
    unsafe = ns_per_inst(lambda s: s == "unsafe")

    self_ns = M.self_times(spans)
    layer_self = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + self_ns[s["id"]]
    all_self = sum(layer_self.values())

    makespan = [passes[i]["makespan"] for i in traced]
    return {
        "workloads.boot_ms": 1000 * statistics.median(boot_s),
        "workloads.construct_ms.p50": M.percentile(construct_ms, 50),
        "workloads.construct_ms.p90": M.percentile(construct_ms, 90),
        "workloads.construct_ms.perspective": statistics.median(
            dur(s) / 1e6 for s in construct
            if scheme_of(s) in M.PERSPECTIVE_SCHEMES),
        "workloads.construct_ms.baseline": statistics.median(
            dur(s) / 1e6 for s in construct
            if scheme_of(s) not in M.PERSPECTIVE_SCHEMES),
        "workloads.warmup_ms.p50": M.percentile(
            [dur(s) / 1e6 for s in by_name["workloads.warmup"]], 50),
        "workloads.cell_ms.p50": M.percentile(cell_ms, 50),
        "workloads.cell_ms.p90": M.percentile(cell_ms, 90),
        "kernel.exec_ms":
            per_pass_sum(("kernel.prepare", "kernel.finish")) / 1e6,
        "kernel.syscalls": per_pass_sum(("kernel.prepare",), lambda s: 1),
        "sim.run_s": per_pass_sum(("sim.run",)) / 1e9,
        "sim.ns_per_inst": M.ratio(run_ns, sum(s["insts"] for s in runs)),
        "sim.ns_per_cycle": M.ratio(run_ns, sum(s["cycles"] for s in runs)),
        "sim.ns_per_inst.unsafe": unsafe,
        "defenses.tax": M.ratio(
            ns_per_inst(lambda s: s in M.BASELINE_DEFENSES), unsafe),
        "core.tax": M.ratio(
            ns_per_inst(lambda s: s in M.PERSPECTIVE_SCHEMES), unsafe),
        "harness.serialize_ms": per_pass_sum(("harness.emit",)) / 1e6,
        "harness.makespan_over_ideal": statistics.median(
            passes[i]["makespan"] / passes[i]["ideal_makespan"]
            for i in traced),
        "harness.idle_share": statistics.median(
            1 - sum(passes[i]["worker_busy"]) / (jobs * m)
            for i, m in zip(traced, makespan)),
        "harness.self_share": M.ratio(layer_self.get("harness", 0), all_self),
        "workloads.self_share": M.ratio(layer_self.get("workloads", 0),
                                        all_self),
        "kernel.self_share": M.ratio(layer_self.get("kernel", 0), all_self),
        "sim.self_share": M.ratio(layer_self.get("sim", 0), all_self),
        "trace.overhead": M.ratio(
            statistics.median(passes[i]["wall_s"] for i in traced),
            statistics.median(passes[i]["wall_s"] for i in untraced)),
    }, len(cell_ms)


def run_seeds(seed):
    """The run's own seed first, then the reference seeds."""
    return list(dict.fromkeys([seed, *REF_SEEDS]))


def measure(workload, seed, seconds, trace, env, digests):
    """One benchmark run of one workload: returns (metrics, checks,
    report lines)."""
    spec = WORKLOADS[workload]
    seeds = run_seeds(seed)
    out = os.path.join(BUILD_DIR, "runs", workload)
    setup_s = []
    boot_s = []

    def set_up(n):
        for _ in range(n):
            spawn, d = run_grid(env, os.path.join(out, "setup"), workload,
                                seeds, 0, setup_only=True)
            setup_s.append((d["first_cell_ns"] - spawn) / 1e9)
            boot_s.extend(d["boot_s"])

    set_up(SETUP_REPS // 2)
    refs = REF_SEEDS if not (trace or spec["sampled"]) else ()
    spawn, doc = run_grid(env, out, workload, seeds, seconds, trace, refs)
    setup_s.append((doc["first_cell_ns"] - spawn) / 1e9)
    boot_s += doc["boot_s"]
    set_up(SETUP_REPS - SETUP_REPS // 2)

    checks = Checks()
    first = check_passes(doc, spec, digests, checks)
    acc, geomeans = accuracy(doc, spec, first, digests)
    if spec["sampled"] and acc["sampled_err"] > SAMPLED_ERR_LIMIT:
        checks.failed += 1
        checks.notes.append("sampled_err %.4f exceeds %.2f"
                            % (acc["sampled_err"], SAMPLED_ERR_LIMIT))

    passes = doc["passes"]
    untraced = [p for p in passes if not p["traced"]]
    # Only the run's own seed repeats; the reference seeds run once.
    timed = [p for p in untraced if p["seed"] == seed]
    mips = [p["instructions"] / p["wall_s"] / 1e6 for p in timed]
    cfg = doc["config"]
    lines = [
        "perfbench %s: seed %d, simulator seeds %s, %d cells per pass, "
        "%d passes (%d traced)" % (
            workload, seed, ",".join(map(str, seeds)), len(doc["cells"]),
            len(passes), len(passes) - len(untraced)),
        "config: jobs=%d iterations=%d warmup=%d sampling=%s cell_cache=%s "
        "boot_snapshot=%s cleared_env=%s" % (
            cfg["jobs"], cfg["iterations"], cfg["warmup"], cfg["sampling"],
            cfg["cell_cache"], cfg["boot_snapshot"],
            ",".join(clean_env()[1]) or "none"),
        "geomean vs unsafe (seeds %s): %s" % (
            ",".join(map(str, REF_SEEDS)),
            " ".join("%s=%.4f" % kv for kv in sorted(geomeans.items()))),
        "fail_ratio %d/%d = %.4f%s" % (
            checks.failed, checks.attempted,
            M.ratio(checks.failed, checks.attempted),
            "".join("\n  " + n for n in checks.notes)),
    ]
    if not trace:
        insts = timed[0]["instructions"]
        secs = M.fastest_pass_seconds(
            [(p["wall_s"], p["cell_s"]) for p in timed], cfg["jobs"])
        clock_hz = M.host_clock_hz(doc["probe_cycles"], doc["probe_s"])
        values = {
            "setup_s": statistics.median(setup_s),
            "host_cycles_per_inst": secs * clock_hz / insts,
            "peak_rss_mb": doc["peak_rss_kb"] / 1024,
            **acc,
        }
        lines.append("mips per pass at seed %d: %s (median %.3f)" % (seed,
            " ".join("%.3f" % m for m in mips), statistics.median(mips)))
        lines.append("fastest cells: %.4f s per pass, %.3f mips; host clock "
                     "%.3f GHz" % (secs, insts / secs / 1e6, clock_hz / 1e9))
        lines.append("setup_s samples: " +
                     " ".join("%.4f" % s for s in setup_s))
        units = END_TO_END_UNITS
    else:
        spans = load_spans(os.path.join(out, "spans.tsv"))
        values, n_cells = layer_metrics(doc, spans, boot_s, cfg["jobs"])
        sweeps = []
        for s in seeds:
            with open(os.path.join(out, "sweep-%d.json" % s)) as f:
                sweeps.append(json.load(f))
        values.update(model_ratios(sweeps, spec["sampled"]))
        tail = M.tail_percentile(n_cells)
        cell_ms = [(s["t1"] - s["t0"]) / 1e6 for s in spans
                   if s["name"] == "workloads.cell"]
        lines.append("cell_ms: p50 %.3f, p%s %.3f (n=%d traced cells)" % (
            M.percentile(cell_ms, 50), tail,
            M.percentile(cell_ms, tail), n_cells))
        units = PER_LAYER_UNITS
    for k in sorted(values):
        lines.append("  %-36s %14.6g %s" % (k, values[k], units[k]))
    return ({k: {"value": v, "unit": units[k]} for k, v in values.items()},
            checks, lines)


def write_digests(doc, path):
    """Indented JSON with one cell per line, so a diff shows which cells
    moved."""
    text = json.dumps(doc, indent=2)
    text = re.sub(r"\[\s+([^][]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    with open(path, "w") as f:
        f.write(text + "\n")


def regen_digests(env):
    """Re-simulate the exact grids at the reference seeds, once each,
    and store their digests."""
    seeds = {str(s): {} for s in REF_SEEDS}
    for grid in DIGEST_GRIDS:
        out = os.path.join(BUILD_DIR, "runs", "regen-" + grid)
        _, doc = run_grid(env, out, grid, list(REF_SEEDS), 0)
        for p in doc["passes"]:
            if not all(r[4] for r in p["digests"]):
                raise BenchError("a cell errored at seed %d" % p["seed"])
            seeds[str(p["seed"])][grid] = [
                [w, s, *d[:4]] for (w, s), d in zip(doc["cells"],
                                                    p["digests"])]
    write_digests({"fields": ["workload", "scheme", *M.DIGEST_FIELDS],
                   "seeds": seeds}, DIGESTS)
    print("wrote %s (seeds %s)" % (DIGESTS, ",".join(map(str, REF_SEEDS))))


def crosscheck(path, digests):
    """Compare the stored seed-42 LEBench digests with the exact cells
    of another sweep JSON, matched by (workload, scheme)."""
    with open(path) as f:
        doc = json.load(f)
    want = {(r[0], r[1]): r[2:] for r in digests[42]["lebench"]}
    pairs, bad = set(), 0
    for c in doc["cells"]:
        key = (c["workload"], c["scheme"])
        if (c.get("seed") != 42 or key not in want or c.get("sampling")
                or c.get("tags", {}).get("exec", "detailed") != "detailed"):
            continue
        pairs.add(key)
        got = [c["cycles"], c["instructions"], c["kernel_instructions"],
               c["fences"]]
        if got != want[key]:
            bad += 1
            print("mismatch %s/%s: %s vs %s" % (*key, got, want[key]))
    print("%d shared (workload, scheme) pairs, %d mismatching cells"
          % (len(pairs), bad))
    return bad == 0 and len(pairs) > 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-digests", action="store_true")
    ap.add_argument("--crosscheck", metavar="SWEEP_JSON")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    env, _ = clean_env()
    try:
        if args.crosscheck:
            return 0 if crosscheck(args.crosscheck, load_digests()) else 1
        build()
        if args.regen_digests:
            regen_digests(env)
            return 0
        digests = load_digests()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for name in names:
            values, checks, lines = measure(name, args.seed, args.seconds,
                                            args.trace == 1, env, digests)
            print("\n".join(lines), flush=True)
            result["attempted"] += checks.attempted
            result["failed"] += checks.failed
            result["correct"] &= checks.failed == 0
            prefix = "" if len(names) == 1 else name + "."
            for k, v in values.items():
                result["metrics"][prefix + k] = v
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
