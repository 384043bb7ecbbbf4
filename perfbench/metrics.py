"""Arithmetic behind the benchmark's metrics.

Pure functions over plain Python data, so the tests in
perfbench/tests can check each one against hand-computed values.
run.py feeds them the driver's output (perfbench/grid.cc).
"""

import math
import statistics

# Geomean normalized latency (Fig 9.2, LEBench) and normalized
# requests per second (Fig 9.3, datacenter apps) the paper reports.
# They are the only reference results the repository has.
PAPER_LEBENCH = {
    "fence": 1.475,
    "dom": 1.231,
    "stt": 1.037,
    "spot": 1.145,
    "perspective-static": 1.041,
    "perspective": 1.036,
    "perspective++": 1.035,
}
PAPER_APPS = {
    "fence": 0.943,
    "dom": 0.983,
    "stt": 0.996,
    "spot": 0.95,
    "perspective-static": 0.987,
    "perspective": 0.988,
    "perspective++": 0.988,
}

PERSPECTIVE_SCHEMES = ("perspective-static", "perspective", "perspective++")
BASELINE_DEFENSES = ("fence", "dom", "stt", "invisispec", "spot")

# Fields of a cell digest: the exact simulated result of one cell.
DIGEST_FIELDS = ("cycles", "instructions", "kernel_instructions", "fences")


def geomean(values):
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of nothing")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def scheme_geomeans(rows, higher_is_better):
    """Per-scheme geomean of each row's cycles normalized to Unsafe.

    rows: (seed, workload, scheme, cycles) tuples. Each (seed, workload)
    group must hold an "unsafe" row. Latency normalizes as
    cycles / unsafe_cycles; throughput (higher_is_better) as the
    inverse, since every cell runs the same number of requests.
    """
    groups = {}
    for seed, workload, scheme, cycles in rows:
        groups.setdefault((seed, workload), {})[scheme] = cycles
    ratios = {}
    for key, by_scheme in groups.items():
        if "unsafe" not in by_scheme:
            raise ValueError("no unsafe cell for %s/%s" % key)
        base = by_scheme["unsafe"]
        for scheme, cycles in by_scheme.items():
            if scheme == "unsafe":
                continue
            r = base / cycles if higher_is_better else cycles / base
            ratios.setdefault(scheme, []).append(r)
    return {s: geomean(r) for s, r in ratios.items()}


def paper_gap(geomeans, paper):
    """Mean relative distance of the geomeans from the paper's values,
    over the schemes the paper reports."""
    return statistics.fmean(
        abs(geomeans[s] - p) / p for s, p in paper.items())


def sampled_err(sampled, exact):
    """Worst per-scheme relative error of sampled geomeans against the
    exact ones."""
    return max(abs(sampled[s] - exact[s]) / exact[s] for s in exact)


def digest_mismatches(got, want):
    """Indices of cells whose exact result differs from the reference.

    got, want: equal-length lists of digests (tuples in DIGEST_FIELDS
    order). A length mismatch fails every cell.
    """
    if len(got) != len(want):
        return list(range(max(len(got), len(want))))
    return [i for i, (g, w) in enumerate(zip(got, want))
            if tuple(g) != tuple(w)]


def fastest_pass_seconds(passes, jobs=1):
    """Seconds of the least disturbed pass the run's passes can be
    pieced into.

    passes: (wall seconds, per-cell seconds) of passes that all ran the
    same grid at the same seed. Every such pass repeats the same
    deterministic work cell for cell, and a busy host only ever slows a
    cell, so each cell's fastest run is its least disturbed one. The
    pass time is the sum of the cells' fastest runs spread over the jobs
    workers, plus the smallest part of a pass spent outside the cells
    (grid set-up, scheduling, JSON emission).
    """
    fastest = [min(c) for c in zip(*(cell_s for _, cell_s in passes))]
    outside = min(wall - sum(cell_s) / jobs for wall, cell_s in passes)
    return sum(fastest) / jobs + outside


def host_clock_hz(probe_cycles, probe_seconds):
    """The host clock rate the clock probe saw at its fastest: a busy
    host only ever lowers it, as it only ever slows a cell."""
    return probe_cycles / min(probe_seconds)


def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of nothing")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, ladder=(50, 90, 99, 99.9)):
    """The highest percentile in ladder with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for q in ladder:
        if round(n * (100 - q) / 100.0, 9) >= 10:  # 99.9 is inexact
            best = q
    return best


def union_length(intervals):
    """Total length covered by (start, end) intervals."""
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it its
    children cover.

    spans: dicts with "id", "parent" (an id or None), "t0", "t1".
    Returns {id: self_time}.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                for c in children.get(s["id"], ())]
        covered = union_length([k for k in kids if k[1] > k[0]])
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def ratio(num, den):
    """num / den, or 0.0 when nothing was counted."""
    return num / den if den else 0.0
